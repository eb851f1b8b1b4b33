import random

import pytest
from hypothesis import given, settings, strategies as st

from rebac_miner.datagen import builtin_spec, generate, inject_unknowns
from rebac_miner.features import (
    ExtractionLimits,
    FeatureTable,
    TaskFeature,
    build_dataset,
    enumerate_condition_features,
    enumerate_constraint_features,
    enumerate_paths,
    extend_with_id_columns,
    prune_useless,
)
from rebac_miner.learner import learn_formula
from rebac_miner.miner import _Phase2
from rebac_miner.model import (
    UNKNOWN,
    AclPolicy,
    AtomicCondition,
    AtomicConstraint,
    ClassModel,
    FieldDecl,
    ModelError,
    Multiplicity,
    ObjectInstance,
    ObjectModel,
    PairLayout,
    Slot,
    SraTuple,
    wsc,
)
from rebac_miner.tvl import FeatureId, LabeledDataset, TruthValue
from tests.conftest import EXAMPLE_ROWS, row_pairs, running_example
from tests.oracles import eval_conjunction, eval_dnf, tval_condition, tval_constraint
from tests.test_model import (
    ORG_ACTIONS,
    ORG_CM,
    ORG_CONDITIONS,
    ORG_CONSTRAINTS,
    org_models,
)

F, U, T = TruthValue.F, TruthValue.U, TruthValue.T


@pytest.fixture
def acl():
    return running_example()[0]


LIMITS = ExtractionLimits()


class TestEnumeratePaths:
    def test_student_depth_one(self, acl):
        assert enumerate_paths(acl.class_model, "Student", 1) == (("dept",), ("id",))

    def test_document_depth_one(self, acl):
        assert enumerate_paths(acl.class_model, "Document", 1) == (
            ("dept",),
            ("id",),
            ("type",),
        )

    def test_cycles_allowed_up_to_bound(self):
        cm = ClassModel({"A": {"next": FieldDecl("A", Multiplicity.ONE)}})
        paths = enumerate_paths(cm, "A", 3, include_id_path=False)
        assert paths == (("next",), ("next", "next"), ("next", "next", "next"))

    def test_unknown_class(self, acl):
        with pytest.raises(ModelError):
            enumerate_paths(acl.class_model, "Nope", 1)


class TestEnumerateConditions:
    def test_document_constants_observed(self, acl):
        got = enumerate_condition_features(
            acl.class_model, acl.object_model, "Document", LIMITS
        )
        assert got == (
            AtomicCondition(("dept",), "in", frozenset({"CS"})),
            AtomicCondition(("type",), "in", frozenset({"Handbook"})),
        )

    def test_id_conditions_on_request(self, acl):
        with_ids = enumerate_condition_features(
            acl.class_model,
            acl.object_model,
            "Document",
            ExtractionLimits(include_id_conditions=True),
        )
        id_conds = [ac for ac in with_ids if ac.path == ("id",)]
        assert {next(iter(ac.value)) for ac in id_conds} == {
            "CS-doc-1",
            "CS-doc-2",
            "CS-doc-3",
        }

    def test_memoized_per_class_and_limits(self, acl):
        cm, om = acl.class_model, acl.object_model
        first = enumerate_condition_features(cm, om, "Document", LIMITS)
        assert enumerate_condition_features(cm, om, "Document", ExtractionLimits()) is first
        with_ids = ExtractionLimits(include_id_conditions=True)
        assert enumerate_condition_features(cm, om, "Document", with_ids) != first
        assert enumerate_condition_features(cm, om, "Student", LIMITS) != first

    def test_fieldless_class_yields_nothing(self, acl):
        got = enumerate_condition_features(
            acl.class_model, acl.object_model, "Department", LIMITS
        )
        assert got == ()

    def test_boolean_and_many_fields(self):
        cm = ClassModel(
            {
                "Skill": {},
                "Emp": {
                    "skills": FieldDecl("Skill", Multiplicity.MANY),
                    "active": FieldDecl("Boolean", Multiplicity.ONE),
                },
            }
        )
        from rebac_miner.model import ObjectInstance, ObjectModel

        om = ObjectModel(
            [
                ObjectInstance("s1", "Skill", {}),
                ObjectInstance("s2", "Skill", {}),
                ObjectInstance(
                    "e", "Emp", {"skills": frozenset({"s1"}), "active": True}
                ),
            ]
        )
        got = enumerate_condition_features(cm, om, "Emp", LIMITS)
        assert AtomicCondition(("active",), "in", frozenset({True})) in got
        assert AtomicCondition(("active",), "in", frozenset({False})) in got
        assert AtomicCondition(("skills",), "contains", "s1") in got
        # s2 is never stored in any skills set, so no condition for it.
        assert AtomicCondition(("skills",), "contains", "s2") not in got


class TestEnumerateConstraints:
    def test_running_example_constraint(self, acl):
        got = enumerate_constraint_features(
            acl.class_model, "Student", "Document", LIMITS
        )
        assert got == (AtomicConstraint(("dept",), "equal", ("dept",)),)

    def test_multiplicity_op_table(self):
        cm = ClassModel(
            {
                "Skill": {},
                "Emp": {
                    "skills": FieldDecl("Skill", Multiplicity.MANY),
                    "top": FieldDecl("Skill", Multiplicity.ONE),
                },
                "Task": {
                    "needs": FieldDecl("Skill", Multiplicity.MANY),
                    "topic": FieldDecl("Skill", Multiplicity.ONE),
                },
            }
        )
        got = set(enumerate_constraint_features(cm, "Emp", "Task", LIMITS))
        assert AtomicConstraint(("top",), "equal", ("topic",)) in got
        assert AtomicConstraint(("top",), "in", ("needs",)) in got
        assert AtomicConstraint(("skills",), "contains", ("topic",)) in got
        assert AtomicConstraint(("skills",), "supseteq", ("needs",)) in got
        assert AtomicConstraint(("skills",), "subseteq", ("needs",)) in got

    def test_empty_vs_empty_only_for_same_type(self):
        cm = ClassModel(
            {
                "Doc": {"owner": FieldDecl("User", Multiplicity.ONE)},
                "User": {},
            }
        )
        same = enumerate_constraint_features(cm, "User", "User", LIMITS)
        assert AtomicConstraint((), "equal", ()) in same
        cross = enumerate_constraint_features(cm, "User", "Doc", LIMITS)
        assert AtomicConstraint((), "equal", ()) not in cross
        assert AtomicConstraint((), "equal", ("owner",)) in cross


class TestFeatureTableBuild:
    @settings(max_examples=50, deadline=None)
    @given(
        om=org_models(max_objects=4),
        pair=st.sampled_from((("Emp", "Task"), ("Emp", "Emp"), ("Task", "Emp"))),
        limits=st.sampled_from(
            (LIMITS, ExtractionLimits(include_id_conditions=True), ExtractionLimits(1, 1))
        ),
    )
    def test_direct_table_is_the_sorted_deduplicated_table(self, om, pair, limits):
        # The enumerators' lists, concatenated, are the table a sort by
        # sort_key with duplicates dropped gives, from any entry order:
        # with Emp x Emp the two condition slots hold the same conditions.
        s_cls, r_cls = pair
        table = FeatureTable.build(ORG_CM, om, s_cls, r_cls, limits)
        entries = [
            TaskFeature(Slot.SUBJECT, ac)
            for ac in enumerate_condition_features(ORG_CM, om, s_cls, limits)
        ]
        entries += [
            TaskFeature(Slot.RESOURCE, ac)
            for ac in enumerate_condition_features(ORG_CM, om, r_cls, limits)
        ]
        entries += [
            TaskFeature(Slot.CONSTRAINT, con)
            for con in enumerate_constraint_features(ORG_CM, s_cls, r_cls, limits)
        ]
        shuffled = entries[::-1] + entries[::2]
        unique = {e.sort_key: e for e in shuffled}
        ordered = tuple(unique[k] for k in sorted(unique))
        assert len(ordered) == len(entries)
        assert table.entries == ordered
        assert table.feature_ids == tuple(
            FeatureId(i, e.label(), wsc(e.payload)) for i, e in enumerate(ordered)
        )

    def test_wsc_order_is_sorted_once(self, acl):
        table = FeatureTable.build(
            acl.class_model, acl.object_model, "Student", "Document", LIMITS
        )
        order = table.by_wsc
        assert order == tuple(
            sorted(table.entries, key=lambda e: (wsc(e.payload), e.sort_key))
        )
        assert sorted(order, key=lambda e: e.sort_key) == list(table.entries)
        assert table.by_wsc is order


def strictly_increasing(keys) -> bool:
    keys = list(keys)
    return all(a < b for a, b in zip(keys, keys[1:]))


class TestSortOrderByConstruction:
    """The enumerators emit their features in ``sort_key`` order without
    sorting on it, and the table and phase 2b's condition options rely on
    that order."""

    @pytest.mark.parametrize("spec_name", ["univ-mini", "org-chart"])
    @pytest.mark.parametrize("n, seed", [(2, 0), (4, 3), (6, 5)])
    @pytest.mark.parametrize("include_ids", [False, True])
    def test_enumerators_table_and_options_are_in_sort_key_order(
        self, spec_name, n, seed, include_ids
    ):
        spec = builtin_spec(spec_name)
        om, _ = generate(spec, n, seed=seed)
        om = inject_unknowns(om, spec, 2, seed=seed)
        cm = spec.class_model
        limits = ExtractionLimits(include_id_conditions=include_ids)
        classes = sorted(cm.classes)
        for cls in classes:
            conditions = enumerate_condition_features(cm, om, cls, limits)
            assert strictly_increasing(c.sort_key for c in conditions)
        booleans = [
            c
            for cls in classes
            for c in enumerate_condition_features(cm, om, cls, limits)
            if isinstance(next(iter(c.value)), bool)
        ]
        assert booleans  # both specs have a Boolean field
        phase2 = _Phase2((), AclPolicy(cm, om, spec.actions, frozenset()), limits, None)
        for s_cls in classes:
            for r_cls in classes:
                constraints = enumerate_constraint_features(cm, s_cls, r_cls, limits)
                assert strictly_increasing(c.sort_key for c in constraints)
                table = FeatureTable.build(cm, om, s_cls, r_cls, limits)
                assert strictly_increasing(e.sort_key for e in table.entries)
                reference = sorted(
                    (wsc(cond), rank, cond.sort_key, slot, cond)
                    for rank, (slot, cls) in enumerate(
                        ((Slot.RESOURCE, r_cls), (Slot.SUBJECT, s_cls))
                    )
                    for cond in enumerate_condition_features(cm, om, cls, limits)
                )
                assert phase2.condition_options(s_cls, r_cls) == [
                    (cost, rank, slot, cond) for cost, rank, _, slot, cond in reference
                ]


class TestBuildDataset:
    def test_reproduces_example_cells(self, acl, example_dataset):
        table = FeatureTable.build(
            acl.class_model, acl.object_model, "Student", "Document", LIMITS
        )
        dataset = build_dataset(acl, "Student", "Document", "read", table)
        assert len(table) == 4
        assert [f.label for f in dataset.features] == [
            "sub.dept=CS",
            "res.dept=CS",
            "res.type=Handbook",
            "sub.dept = res.dept",
        ]
        assert row_pairs(acl.object_model.pairs("Student", "Document")) == [
            pair for pair, _, _ in EXAMPLE_ROWS
        ]
        for got, want in zip(dataset.rows, example_dataset.rows):
            assert got.vector == want.vector
            assert got.label == want.label

    def test_costs_come_from_wsc(self, acl):
        table = FeatureTable.build(
            acl.class_model, acl.object_model, "Student", "Document", LIMITS
        )
        assert [f.cost for f in table.feature_ids] == [2, 2, 2, 2]

    def test_empty_au_gives_all_false(self, acl):
        empty = AclPolicy(
            acl.class_model, acl.object_model, acl.actions, frozenset()
        )
        table = FeatureTable.build(
            acl.class_model, acl.object_model, "Student", "Document", LIMITS
        )
        ds = build_dataset(empty, "Student", "Document", "read", table)
        assert all(r.label is F for r in ds.rows)

    def test_row_count_is_cartesian_product(self, acl):
        table = FeatureTable.build(
            acl.class_model, acl.object_model, "Student", "Document", LIMITS
        )
        ds = build_dataset(acl, "Student", "Document", "read", table)
        assert len(ds.rows) == 2 * 3

    def test_cells_match_direct_tval(self, acl):
        table = FeatureTable.build(
            acl.class_model, acl.object_model, "Student", "Document", LIMITS
        )
        ds = build_dataset(acl, "Student", "Document", "read", table)
        cm, om = acl.class_model, acl.object_model
        for (sid, rid), row in zip(row_pairs(om.pairs("Student", "Document")), ds.rows):
            for i, entry in enumerate(table.entries):
                if entry.kind is Slot.SUBJECT:
                    want = tval_condition(cm, om, sid, entry.payload)
                elif entry.kind is Slot.RESOURCE:
                    want = tval_condition(cm, om, rid, entry.payload)
                else:
                    want = tval_constraint(cm, om, sid, rid, entry.payload)
                assert row.vector.values[i] is want


class TestPrune:
    def test_constant_columns_dropped(self, acl):
        table = FeatureTable.build(
            acl.class_model,
            acl.object_model,
            "Student",
            "Document",
            ExtractionLimits(include_id_conditions=True),
        )
        ds = build_dataset(acl, "Student", "Document", "read", table)
        # sub.id=CS-student-1 varies; nothing here is constant except none.
        pruned_table, pruned_ds = prune_useless(table, ds)
        for i in range(len(pruned_table.entries)):
            assert len({r.vector.values[i] for r in pruned_ds.rows}) > 1

    def test_mixed_u_column_kept(self, acl, example_dataset):
        table = FeatureTable.build(
            acl.class_model, acl.object_model, "Student", "Document", LIMITS
        )
        ds = build_dataset(acl, "Student", "Document", "read", table)
        t2, d2 = prune_useless(table, ds)
        assert t2 is table and d2 is ds

    def test_empty_rows_unchanged(self, acl):
        table = FeatureTable.build(
            acl.class_model, acl.object_model, "Student", "Document", LIMITS
        )
        empty = build_dataset(
            AclPolicy(acl.class_model, acl.object_model, acl.actions, frozenset()),
            "Department",
            "Document",
            "read",
            FeatureTable((), ()),
        )
        t2, d2 = prune_useless(FeatureTable((), ()), empty)
        assert len(t2) == 0

    def test_pruning_preserves_learnability(self, acl):
        table = FeatureTable.build(
            acl.class_model,
            acl.object_model,
            "Student",
            "Document",
            ExtractionLimits(include_id_conditions=True),
        )
        ds = build_dataset(acl, "Student", "Document", "read", table)
        _, pruned = prune_useless(table, ds)
        before = learn_formula(ds).formula
        after = learn_formula(pruned).formula
        for row_b, row_a in zip(ds.rows, pruned.rows):
            assert (eval_dnf(before, row_b.vector) is T) == (
                eval_dnf(after, row_a.vector) is T
            )


class TestIdColumns:
    def test_extension_shapes_and_supplier(self, acl):
        table = FeatureTable.build(
            acl.class_model, acl.object_model, "Student", "Document", LIMITS
        )
        ds = build_dataset(acl, "Student", "Document", "read", table)
        table2, ds2, supplier, hidden = extend_with_id_columns(
            acl, "Student", "Document", table, ds
        )
        assert len(table2) == len(table) + 2 + 3
        assert len(hidden) == 5
        rows = list(ds2.rows)
        for k, row in enumerate(rows):
            conj = supplier(k)
            assert eval_conjunction(conj, row.vector) is T
            for other in rows[:k] + rows[k + 1:]:
                assert eval_conjunction(conj, other.vector) is F

    def test_copies_check_only_the_planes_they_add(self, acl, monkeypatch):
        table = FeatureTable.build(
            acl.class_model, acl.object_model, "Student", "Document", LIMITS
        )
        ds = build_dataset(acl, "Student", "Document", "read", table)
        checked = []
        check = LabeledDataset._check

        def recording(self, planes):
            checked.append(planes)
            return check(self, planes)

        monkeypatch.setattr(LabeledDataset, "_check", recording)
        _, extended, _, _ = extend_with_id_columns(acl, "Student", "Document", table, ds)
        constant = ds.with_columns(
            table.feature_ids + (FeatureId(len(table), "constant"),),
            ds.planes,
            ((ds.all_rows, 0),),
        )
        constant_table = FeatureTable(table.entries + table.entries[:1], constant.features)
        _, pruned = prune_useless(constant_table, constant)
        assert checked == [extended.planes[len(ds.planes):], ((ds.all_rows, 0),), ()]
        assert pruned == ds
        assert extended == LabeledDataset(
            extended.features, extended.planes, ds.labels, ds.size
        )

    @settings(max_examples=25, deadline=None)
    @given(org_models(max_objects=10))
    def test_each_column_names_its_object(self, om):
        acl = AclPolicy(ORG_CM, om, frozenset(ORG_ACTIONS), frozenset())
        table = FeatureTable.build(
            acl.class_model, acl.object_model, "Emp", "Task", LIMITS
        )
        ds = build_dataset(acl, "Emp", "Task", "read", table)
        table2, ds2, _, hidden = extend_with_id_columns(acl, "Emp", "Task", table, ds)
        assert ds2.planes[: len(table)] == ds.planes
        appended = table2.entries[len(table):]
        assert {f.index for f in hidden} == set(range(len(table), len(table2)))
        for k, entry in enumerate(appended, start=len(table)):
            (oid,) = entry.payload.value
            side = 0 if entry.kind is Slot.SUBJECT else 1
            for row, pair in enumerate(row_pairs(om.pairs("Emp", "Task"))):
                cell = T if pair[side] == oid else F
                assert ds2.rows[row].vector[k] is cell


ORG_ENTRIES = (
    [TaskFeature(Slot.SUBJECT, ac) for ac in ORG_CONDITIONS["Emp"]]
    + [TaskFeature(Slot.RESOURCE, ac) for ac in ORG_CONDITIONS["Task"]]
    + [TaskFeature(Slot.CONSTRAINT, c) for c in ORG_CONSTRAINTS[("Emp", "Task")]]
)


def table_in_order(entries):
    """A feature table keeping ``entries`` in the given order."""
    entries = tuple(entries)
    return FeatureTable(
        entries, tuple(FeatureId(i, e.label(), wsc(e.payload)) for i, e in enumerate(entries))
    )


def reference_rows(acl, subject_type, resource_type, action, entries):
    """Per-cell reference for build_dataset: (pair, cells, label) per row."""
    cm, om = acl.class_model, acl.object_model
    rows = []
    for s in om.objects_of(subject_type):
        for r in om.objects_of(resource_type):
            cells = []
            for e in entries:
                if e.kind is Slot.SUBJECT:
                    cells.append(tval_condition(cm, om, s.id, e.payload))
                elif e.kind is Slot.RESOURCE:
                    cells.append(tval_condition(cm, om, r.id, e.payload))
                else:
                    cells.append(tval_constraint(cm, om, s.id, r.id, e.payload))
            label = T if SraTuple(s.id, r.id, action) in acl.au else F
            rows.append(((s.id, r.id), tuple(cells), label))
    return rows


def assert_dataset_and_prune_match_reference(acl, entries):
    table = table_in_order(entries)
    ds = build_dataset(acl, "Emp", "Task", "read", table)
    want = reference_rows(acl, "Emp", "Task", "read", table.entries)
    pairs = row_pairs(acl.object_model.pairs("Emp", "Task"))
    assert ds.features == table.feature_ids
    assert len(ds.rows) == len(want)
    assert [(p, r.vector.values, r.label) for p, r in zip(pairs, ds.rows)] == want

    keep = [
        i for i in range(len(table.entries))
        if len({cells[i] for _, cells, _ in want}) > 1
    ]
    if not want:
        keep = list(range(len(table.entries)))  # nothing to prune on
    pruned_table, pruned = prune_useless(table, ds)
    assert pruned_table.entries == tuple(table.entries[i] for i in keep)
    assert pruned_table.feature_ids == tuple(
        FeatureId(n, table.feature_ids[i].label, table.feature_ids[i].cost)
        for n, i in enumerate(keep)
    )
    assert pruned.features == pruned_table.feature_ids
    assert [(p, r.vector.values, r.label) for p, r in zip(pairs, pruned.rows)] == [
        (pair, tuple(cells[i] for i in keep), label) for pair, cells, label in want
    ]
    return len(keep)


def org_acl(om, granted):
    return AclPolicy(ORG_CM, om, frozenset(ORG_ACTIONS), frozenset(granted))


class TestDatasetMatchesPerCellReference:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), om=org_models())
    def test_random_models_and_table_orders(self, data, om):
        pairs = [
            SraTuple(s.id, r.id, a)
            for s in om.objects_of("Emp")
            for r in om.objects_of("Task")
            for a in ORG_ACTIONS
        ]
        granted = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        # Any order and subset, so entries are usually not grouped by kind.
        entries = data.draw(st.permutations(ORG_ENTRIES))
        entries = entries[: data.draw(st.integers(0, len(entries)))]
        assert_dataset_and_prune_match_reference(org_acl(om, granted), entries)

    def _two_task_model(self):
        emp = {"dept": "d0", "skills": frozenset(), "mentor": None, "active": True}
        task = {
            "dept": "d0", "needs": frozenset(), "focus": None, "owner": None,
            "team": frozenset(),
        }
        return ObjectModel([
            ObjectInstance("d0", "Dept", {"parent": None}),
            ObjectInstance("e0", "Emp", emp),
            ObjectInstance("t0", "Task", {**task, "urgent": False}),
            ObjectInstance("t1", "Task", {**task, "urgent": True}),
        ])

    def test_prune_keeps_one_column(self):
        acl = org_acl(self._two_task_model(), [SraTuple("e0", "t0", "read")])
        # Only res.urgent=false varies between the two rows.
        assert assert_dataset_and_prune_match_reference(acl, ORG_ENTRIES[::-1]) == 1

    def test_conditions_with_and_without_unknown_cells(self):
        # A condition with no U cell gets its F plane as "every pair not
        # T"; one with U cells must keep them apart from F.
        emp = {"skills": frozenset(), "mentor": None}
        task = {"needs": frozenset(), "focus": None, "owner": None, "team": frozenset()}
        om = ObjectModel([
            ObjectInstance("d0", "Dept", {"parent": None}),
            ObjectInstance("d1", "Dept", {"parent": None}),
            ObjectInstance("e0", "Emp", {**emp, "dept": "d0", "active": True}),
            ObjectInstance("e1", "Emp", {**emp, "dept": UNKNOWN, "active": False}),
            ObjectInstance("e2", "Emp", {**emp, "dept": "d1", "active": True}),
            ObjectInstance("t0", "Task", {**task, "dept": "d0", "urgent": False}),
            ObjectInstance("t1", "Task", {**task, "dept": UNKNOWN, "urgent": True}),
        ])
        active = AtomicCondition(("active",), "in", frozenset({True}))
        urgent = AtomicCondition(("urgent",), "in", frozenset({False}))
        dept = AtomicCondition(("dept",), "in", frozenset({"d0"}))
        entries = [
            TaskFeature(Slot.SUBJECT, active),
            TaskFeature(Slot.RESOURCE, dept),
            TaskFeature(Slot.CONSTRAINT, AtomicConstraint(("dept",), "equal", ("dept",))),
            TaskFeature(Slot.SUBJECT, dept),
            TaskFeature(Slot.RESOURCE, urgent),
        ]

        def has_u(cls, ac):
            return any(tval_condition(ORG_CM, om, o.id, ac) is U for o in om.objects_of(cls))

        assert not has_u("Emp", active) and not has_u("Task", urgent)
        assert has_u("Emp", dept) and has_u("Task", dept)
        acl = org_acl(om, [SraTuple("e0", "t0", "read"), SraTuple("e2", "t1", "read")])
        assert assert_dataset_and_prune_match_reference(acl, entries) == len(entries)

    def test_prune_keeps_no_column(self):
        acl = org_acl(self._two_task_model(), [SraTuple("e0", "t0", "read")])
        urgent = ORG_CONDITIONS["Task"][-1]
        constant = [e for e in ORG_ENTRIES if e.payload != urgent]
        assert assert_dataset_and_prune_match_reference(acl, constant) == 0


@st.composite
def layouts_and_masks(draw):
    """A pair layout with random masks over its subjects, its resources,
    each subject's resources and its pairs.

    Shapes range from empty to 40 x 40, whose planes span many int
    digits, with 1 x n and n x 1 among them; fewer subjects than
    resources make one chunk in ``of_subjects`` and more make several, and
    counts past ``_STACK_RUN``, odd ones included, take ``_stack``'s
    halving."""
    n_s, n_r = draw(
        st.one_of(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.tuples(st.just(1), st.integers(1, 40)),
            st.tuples(st.integers(1, 40), st.just(1)),
            st.tuples(st.integers(0, 40), st.integers(0, 40)),
        )
    )

    def mask(n):
        return draw(st.integers(0, (1 << n) - 1))

    layout = PairLayout([f"s{i}" for i in range(n_s)], [f"r{j}" for j in range(n_r)])
    return layout, mask(n_s), mask(n_r), [mask(n_r) for _ in range(n_s)], mask(n_s * n_r)


def check_layout_against_per_bit_loop(layout, subjects, resources, per_subject, plane):
    n_s, n_r = len(layout.subjects), len(layout.resources)
    rows = {(i, j): i * n_r + j for i in range(n_s) for j in range(n_r)}

    def plane_of(pairs):
        return sum(1 << rows[p] for p in pairs)

    assert layout.full == plane_of(rows)
    assert layout.of_subjects(subjects) == plane_of(p for p in rows if subjects >> p[0] & 1)
    assert layout.of_resources(resources) == plane_of(
        p for p in rows if resources >> p[1] & 1
    )
    assert layout.of_subject_rows(per_subject) == plane_of(
        p for p in rows if per_subject[p[0]] >> p[1] & 1
    )
    assert [layout.position(row) for row in rows.values()] == list(rows)
    assert layout.positions(plane) == [p for p, row in rows.items() if plane >> row & 1]


class TestPairLayout:
    """A pair layout's planes and positions equal a loop over the rows
    i*R+j."""

    @settings(max_examples=300, deadline=None)
    @given(layouts_and_masks())
    def test_methods_match_a_per_bit_reference(self, case):
        check_layout_against_per_bit_loop(*case)

    @pytest.mark.parametrize(
        "n_s, n_r", [(33, 40), (35, 36), (39, 7), (40, 40), (65, 3), (1, 40), (40, 1)]
    )
    def test_wide_layouts_match_a_per_bit_reference(self, n_s, n_r):
        rng = random.Random(n_s * 100 + n_r)
        layout = PairLayout([f"s{i}" for i in range(n_s)], [f"r{j}" for j in range(n_r)])
        for density in (0.1, 0.5, 0.9):
            def mask(n):
                return sum(1 << k for k in range(n) if rng.random() < density)

            check_layout_against_per_bit_loop(
                layout, mask(n_s), mask(n_r), [mask(n_r) for _ in range(n_s)], mask(n_s * n_r)
            )
