import hashlib
import logging
from dataclasses import replace
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from rebac_miner import jsonio, learner, miner
from rebac_miner.datagen import (
    builtin_spec,
    generate,
    inject_unknowns,
)
from rebac_miner.features import (
    ExtractionLimits,
    FeatureTable,
    build_dataset,
    extend_with_id_columns,
    prune_useless,
)
from rebac_miner.learner import IdStrategy
from rebac_miner.metrics import jaccard, semantic_similarity
from rebac_miner.miner import (
    MinerConfig,
    MinerError,
    _Phase2,
    _allowed,
    _eliminate_task_negatives,
    eliminate_negative_features,
    extract_rules,
    merge_and_simplify,
    mine,
    mine_detailed,
    naive_unknown_as_false_diagnostic,
)
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
    Policy,
    Rule,
    Slot,
    SraTuple,
    meaning,
    pair_planes,
    policy_planes,
    policy_wsc,
    rule_plane,
    sort_rules,
    wsc,
)
from rebac_miner.tvl import Conjunction, DnfFormula, Literal, Polarity
from tests.conftest import running_example
from tests.oracles import rule_meaning
from tests.test_model import ORG_ACTIONS, ORG_CM, org_models, org_rules


def cond(path, *atoms, negated=False):
    return AtomicCondition(tuple(path), "in", frozenset(atoms), negated=negated)


class TestMineRunningExample:
    def test_exact_recovery(self):
        acl, _ = running_example()
        result = mine_detailed(acl, MinerConfig())
        want = sort_rules(running_example()[1])
        assert result.policy.rules == want
        assert meaning(result.policy) == acl.au

    def test_intermediate_formula(self):
        acl, _ = running_example()
        result = mine_detailed(acl, MinerConfig())
        (task,) = result.tasks
        labels = {
            frozenset(str(l) for l in c.literals) for c in task.result.formula.disjuncts
        }
        assert labels == {
            frozenset({"res.type=Handbook"}),
            frozenset({"sub.dept = res.dept"}),
        }
        assert task.result.used_fallback is False
        assert task.result.iterations == 1

    def test_both_id_strategies_agree_here(self):
        acl, _ = running_example()
        a = mine(acl, MinerConfig(id_strategy=IdStrategy.RETRY_WITH_ID_FEATURES))
        b = mine(acl, MinerConfig(id_strategy=IdStrategy.PER_VECTOR_ID_CONJUNCTION))
        assert a.rules == b.rules

    def test_empty_au(self):
        acl, _ = running_example()
        empty = AclPolicy(acl.class_model, acl.object_model, acl.actions, frozenset())
        assert mine(empty, MinerConfig()).rules == ()

    def test_max_iter_below_one_refused_before_any_table(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("a feature table was built")

        monkeypatch.setattr(FeatureTable, "build", no_table)
        acl, _ = running_example()
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            mine_detailed(acl, MinerConfig(max_iter=0))


class TestAuCheckedAgainstModel:
    """A hand-built AclPolicy is checked as a loaded one is, before any
    task is learned."""

    def with_au(self, *tuples):
        acl, _ = running_example()
        return AclPolicy(acl.class_model, acl.object_model, acl.actions, frozenset(tuples))

    def test_unknown_object(self):
        t = SraTuple("CS-student-1", "ghost", "read")
        with pytest.raises(ModelError) as exc:
            mine_detailed(self.with_au(t))
        assert str(exc.value) == f"authorization references unknown object: {t}"

    def test_undeclared_action(self):
        t = SraTuple("CS-student-1", "CS-doc-1", "delete")
        with pytest.raises(ModelError) as exc:
            mine_detailed(self.with_au(SraTuple("CS-student-1", "CS-doc-2", "read"), t))
        assert str(exc.value) == f"authorization uses undeclared action: {t}"


class TestExtractRules:
    def make_table(self):
        acl, _ = running_example()
        return acl, FeatureTable.build(
            acl.class_model, acl.object_model, "Student", "Document",
            ExtractionLimits(),
        )

    def test_paper_formula_yields_paper_rules(self):
        acl, table = self.make_table()
        handbook = table.feature_ids[2]
        constraint = table.feature_ids[3]
        formula = DnfFormula.of(
            [
                Conjunction.of([Literal(handbook, Polarity.POSITIVE)]),
                Conjunction.of([Literal(constraint, Polarity.POSITIVE)]),
            ]
        )
        rules = extract_rules(formula, table, "Student", "Document", "read")
        assert rules == sort_rules(running_example()[1])

    def test_empty_conjunction_grants_all(self):
        acl, table = self.make_table()
        rules = extract_rules(
            DnfFormula.of([Conjunction()]), table, "Student", "Document", "read"
        )
        (rule,) = rules
        assert not rule.subject_condition and not rule.resource_condition
        assert not rule.constraint
        assert len(rule_meaning(acl.class_model, acl.object_model, rule)) == 6

    def test_negative_literal_becomes_negated_atomic(self):
        acl, table = self.make_table()
        handbook = table.feature_ids[2]
        constraint = table.feature_ids[3]
        formula = DnfFormula.of(
            [
                Conjunction.of(
                    [
                        Literal(handbook, Polarity.NEGATIVE),
                        Literal(constraint, Polarity.POSITIVE),
                    ]
                )
            ]
        )
        (rule,) = extract_rules(formula, table, "Student", "Document", "read")
        assert rule.resource_condition == frozenset(
            {cond(("type",), "Handbook", negated=True)}
        )
        assert rule.constraint == frozenset(
            {AtomicConstraint(("dept",), "equal", ("dept",))}
        )


def status_model():
    """Tasks with a three-valued status domain, for negation elimination."""
    cm = ClassModel(
        {
            "Status": {},
            "User": {},
            "Task": {"status": FieldDecl("Status", Multiplicity.ONE)},
        }
    )
    statuses = ["completed", "in_progress", "not_started"]
    objs = [ObjectInstance(s, "Status", {}) for s in statuses]
    objs += [ObjectInstance("u1", "User", {})]
    objs += [
        ObjectInstance("t1", "Task", {"status": "not_started"}),
        ObjectInstance("t2", "Task", {"status": "in_progress"}),
        ObjectInstance("t3", "Task", {"status": "completed"}),
    ]
    om = ObjectModel(objs)
    au = frozenset(
        {SraTuple("u1", "t1", "edit"), SraTuple("u1", "t2", "edit")}
    )
    return AclPolicy(cm, om, frozenset({"edit"}), au)


class TestEliminateNegatives:
    def test_complement_substep(self):
        acl = status_model()
        rule = Rule(
            "User",
            frozenset(),
            "Task",
            frozenset({cond(("status",), "completed", negated=True)}),
            frozenset(),
            frozenset({"edit"}),
        )
        assert rule_meaning(acl.class_model, acl.object_model, rule) == acl.au
        table = FeatureTable((), ())  # force substep 3, not 2
        (out,) = eliminate_negative_features(rule, acl, table)
        assert out.resource_condition == frozenset(
            {cond(("status",), "in_progress", "not_started")}
        )
        assert rule_meaning(acl.class_model, acl.object_model, out) == acl.au

    def test_navigated_constants_substep(self):
        # Only t1 is authorized, so the complement {in_progress,
        # not_started} grants too much; the constants navigated from the
        # granted pairs (both users with t1) give status=not_started.
        acl = status_model()
        om = ObjectModel(
            list(acl.object_model.objects()) + [ObjectInstance("u2", "User", {})]
        )
        au = frozenset({SraTuple("u1", "t1", "edit"), SraTuple("u2", "t1", "edit")})
        acl = AclPolicy(acl.class_model, om, acl.actions, au)
        rule = Rule(
            "User",
            frozenset(),
            "Task",
            frozenset({cond(("status",), "completed", negated=True)}),
            frozenset(),
            frozenset({"edit"}),
        )
        (out,) = eliminate_negative_features(rule, acl, FeatureTable((), ()))
        assert out.resource_condition == frozenset({cond(("status",), "not_started")})

    def test_droppable_negation_dropped(self):
        acl = status_model()
        # The negated atomic is redundant: every task the rule grants is
        # already authorized without it.
        rule = Rule(
            "User",
            frozenset(),
            "Task",
            frozenset(
                {
                    cond(("status",), "in_progress", "not_started"),
                    cond(("status",), "completed", negated=True),
                }
            ),
            frozenset(),
            frozenset({"edit"}),
        )
        (out,) = eliminate_negative_features(
            rule, acl, FeatureTable((), ())
        )
        assert out.resource_condition == frozenset(
            {cond(("status",), "in_progress", "not_started")}
        )

    def test_id_split_fallback_preserves_meaning(self):
        # A negated constraint cannot be dropped (the weakened rule grants
        # too much) and no substep applies to constraints beyond the table
        # search, so the rule splits into per-pair identity rules.
        cm = ClassModel(
            {
                "Dept": {},
                "User": {"dept": FieldDecl("Dept", Multiplicity.ONE)},
                "Doc": {"dept": FieldDecl("Dept", Multiplicity.ONE)},
            }
        )
        om = ObjectModel(
            [
                ObjectInstance("d1", "Dept", {}),
                ObjectInstance("d2", "Dept", {}),
                ObjectInstance("u1", "User", {"dept": "d1"}),
                ObjectInstance("doc1", "Doc", {"dept": "d2"}),
                ObjectInstance("doc2", "Doc", {"dept": "d1"}),
            ]
        )
        au = frozenset({SraTuple("u1", "doc1", "read")})
        acl = AclPolicy(cm, om, frozenset({"read"}), au)
        rule = Rule(
            "User",
            frozenset(),
            "Doc",
            frozenset(),
            frozenset({AtomicConstraint(("dept",), "equal", ("dept",), negated=True)}),
            frozenset({"read"}),
        )
        assert rule_meaning(cm, om, rule) == au
        out = eliminate_negative_features(rule, acl, FeatureTable((), ()))
        granted = frozenset().union(*(rule_meaning(cm, om, r) for r in out))
        assert granted == au
        assert all(not ac.negated for r in out for _, ac in r.atomics())
        assert any(ac.path == ("id",) for r in out for _, ac in r.atomics())

    def test_id_split_counts_only_same_task_cover(self):
        # The first read rule's negated constraint can neither be dropped
        # nor replaced, so it splits into identity rules.  The second read
        # rule grants two of its pairs; the write rule grants the third,
        # but for another action, so that pair still needs an identity rule.
        cm = ClassModel(
            {
                "Dept": {},
                "User": {"dept": FieldDecl("Dept", Multiplicity.ONE)},
                "Doc": {"dept": FieldDecl("Dept", Multiplicity.ONE)},
            }
        )
        om = ObjectModel(
            [
                ObjectInstance("d1", "Dept", {}),
                ObjectInstance("d2", "Dept", {}),
                ObjectInstance("u1", "User", {"dept": "d1"}),
                ObjectInstance("u2", "User", {"dept": "d2"}),
                ObjectInstance("doc1", "Doc", {"dept": "d2"}),
                ObjectInstance("doc2", "Doc", {"dept": "d1"}),
                ObjectInstance("doc3", "Doc", {"dept": "d2"}),
            ]
        )
        au = frozenset(
            {
                SraTuple("u1", "doc1", "read"),
                SraTuple("u1", "doc3", "read"),
                SraTuple("u2", "doc2", "read"),
                SraTuple("u2", "doc2", "write"),
            }
        )
        acl = AclPolicy(cm, om, frozenset({"read", "write"}), au)
        other_dept = AtomicConstraint(("dept",), "equal", ("dept",), negated=True)
        split = Rule(
            "User", frozenset(), "Doc", frozenset(), frozenset({other_dept}),
            frozenset({"read"}),
        )
        same_task = Rule(
            "User", frozenset({cond(("dept",), "d1")}), "Doc",
            frozenset({cond(("dept",), "d2")}), frozenset(), frozenset({"read"}),
        )
        other_action = Rule(
            "User", frozenset({cond(("dept",), "d2")}), "Doc",
            frozenset({cond(("dept",), "d1")}), frozenset(), frozenset({"write"}),
        )
        table = FeatureTable((), ())
        out = _eliminate_task_negatives((split, same_task), acl, table)
        assert same_task in out
        id_rules = [r for r in out if r != same_task]
        granted = frozenset().union(*(rule_meaning(cm, om, r) for r in id_rules))
        uncovered = rule_meaning(cm, om, split) - rule_meaning(cm, om, same_task)
        assert granted == uncovered == {SraTuple("u2", "doc2", "read")}
        assert all(ac.path == ("id",) for r in id_rules for _, ac in r.atomics())
        # Another action's cover of the same pair does not count.
        alone = eliminate_negative_features(split, acl, table, (same_task, other_action))
        assert list(alone) == id_rules

    def test_unknown_bearing_complement_keeps_meaning(self):
        # With one task's status unknown, the complement rewrite must keep
        # granting exactly the pairs the negated condition granted.
        acl = status_model()
        om2 = ObjectModel(
            list(acl.object_model.objects())
            + [ObjectInstance("t4", "Task", {"status": UNKNOWN})]
        )
        acl = AclPolicy(acl.class_model, om2, acl.actions, acl.au)
        rule = Rule(
            "User",
            frozenset(),
            "Task",
            frozenset({cond(("status",), "completed", negated=True)}),
            frozenset(),
            frozenset({"edit"}),
        )
        before = rule_meaning(acl.class_model, om2, rule)
        out = eliminate_negative_features(rule, acl, FeatureTable((), ()))
        granted = frozenset().union(
            *(rule_meaning(acl.class_model, om2, r) for r in out)
        )
        assert granted == before


    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rewrites_keep_own_grants(self, data):
        # Rules may carry both actions and the AU may grant a pair for one
        # action only: the output keeps every authorized tuple the rule
        # granted, carries no negation, and grants nothing outside the AU
        # that the rule did not grant already.
        om = data.draw(org_models())
        rule = data.draw(org_rules())
        granted = rule_meaning(ORG_CM, om, rule)
        subjects = om.objects_of(rule.subject_type)
        resources = om.objects_of(rule.resource_type)
        typed = [
            SraTuple(s.id, r.id, a) for s in subjects for r in resources for a in ORG_ACTIONS
        ]
        au = data.draw(st.sets(st.sampled_from(typed))) if typed else set()
        acl = AclPolicy(ORG_CM, om, frozenset(ORG_ACTIONS), frozenset(au))
        table = FeatureTable.build(
            ORG_CM, om, rule.subject_type, rule.resource_type, ExtractionLimits()
        )
        out = eliminate_negative_features(rule, acl, table)
        after = frozenset().union(*(rule_meaning(ORG_CM, om, r) for r in out))
        assert after >= granted & acl.au
        assert after <= acl.au | granted
        assert not any(ac.negated for r in out for _, ac in r.atomics())


def per_atomic_reference(rule, acl, table, others=()):
    """Phase 2a as a per-atomic loop: the first negated atomic of the rule
    as rewritten so far is dropped or replaced (``eliminate_one_reference``),
    and the rewritten rule's atomics are scanned again."""
    current = rule
    while True:
        negated = [(slot, ac) for slot, ac in current.atomics() if ac.negated]
        if not negated:
            return (current,)
        slot, atomic = negated[0]
        rewritten = eliminate_one_reference(current, slot, atomic, acl, table)
        if rewritten is None:
            return miner._id_split(current, acl, others)
        current = rewritten


def eliminate_one_reference(rule, slot, atomic, acl, table):
    """``rule`` with the negated ``atomic`` dropped or replaced, or None,
    each candidate judged on ``rule_plane`` of the rule without it."""
    cm, om = acl.class_model, acl.object_model
    allowed = _allowed(rule, acl)
    base = rule.without_atomic(slot, atomic)
    base_plane = rule_plane(cm, om, base)
    if not base_plane & ~allowed:  # (1) plain removal
        return base
    # What the rule grants: its pairs that some action's AU plane holds.
    own = rule_plane(cm, om, rule) & reduce(or_, miner._au_planes_of(rule, acl))
    s_cls, r_cls = rule.subject_type, rule.resource_type
    for new_slot, new in miner._replacements(rule, slot, atomic, acl, table, own):
        plane = base_plane & pair_planes(cm, om, s_cls, r_cls, new_slot, new)[new.negated]
        # Valid, and still granting everything the rule granted before.
        if not plane & ~allowed and not own & ~plane:
            return base.with_atomic(new_slot, new)
    return None


def phase_model(*granted):
    """One user of department d1 and four tasks, each with a department, a
    phase and a status (completed, in progress, not started); the user
    may read the ``granted`` tasks."""
    one = Multiplicity.ONE
    cm = ClassModel({
        "Dept": {},
        "Status": {},
        "User": {"dept": FieldDecl("Dept", one)},
        "Task": {
            "dept": FieldDecl("Dept", one),
            "phase": FieldDecl("Status", one),
            "status": FieldDecl("Status", one),
        },
    })
    objs = [ObjectInstance(d, "Dept", {}) for d in ("d1", "d2")]
    objs += [ObjectInstance(s, "Status", {}) for s in ("c", "ip", "ns")]
    objs.append(ObjectInstance("u1", "User", {"dept": "d1"}))
    for task, dept, phase, status in (
        ("t1", "d2", "ns", "ns"),
        ("t2", "d2", "ip", "ip"),
        ("t3", "d2", "c", "ns"),
        ("t4", "d1", "ns", "ns"),
    ):
        objs.append(
            ObjectInstance(task, "Task", {"dept": dept, "phase": phase, "status": status})
        )
    au = frozenset(SraTuple("u1", t, "read") for t in granted)
    return AclPolicy(cm, ObjectModel(objs), frozenset({"read"}), au)


NOT_COMPLETED = (
    cond(("phase",), "c", negated=True),
    cond(("status",), "c", negated=True),
)
OTHER_DEPT = AtomicConstraint(("dept",), "equal", ("dept",), negated=True)


class TestPhase2aOnePass:
    """The one-pass rewrite returns what the per-atomic loop returns."""

    @pytest.mark.parametrize("naive", [False, True])
    @pytest.mark.parametrize("include_ids", [False, True])
    @pytest.mark.parametrize("spec_name", ["org-chart", "univ-mini"])
    def test_matches_the_per_atomic_loop_on_mined_rules(
        self, spec_name, include_ids, naive, monkeypatch
    ):
        one_pass = miner.eliminate_negative_features
        seen = []

        def compared(rule, acl, table, others=()):
            got = one_pass(rule, acl, table, others)
            assert got == per_atomic_reference(rule, acl, table, others)
            seen.append(sum(ac.negated for _, ac in rule.atomics()))
            return got

        monkeypatch.setattr(miner, "eliminate_negative_features", compared)
        spec = builtin_spec(spec_name)
        cfg = MinerConfig(
            allow_negation=False,
            limits=ExtractionLimits(include_id_conditions=include_ids),
        )
        for n in range(3, 9):
            for s in (1, 2, 3, 4):
                for seed in (1, 2, 3):
                    om, acl = generate(spec, n, seed=seed)
                    degraded = inject_unknowns(om, spec, s, seed=seed)
                    acl = AclPolicy(spec.class_model, degraded, acl.actions, acl.au)
                    mine_detailed(acl, cfg, unknown_as_false=naive)
        assert max(seen) > 1

    def test_replacement_before_a_later_drop(self):
        # not(phase=c) goes first: without it t3 is granted, so it becomes
        # phase in {ip, ns}; that replacement alone keeps t3 out, so
        # not(status=c) is dropped.
        acl = phase_model("t1", "t2", "t4")
        rule = Rule(
            "User", frozenset(), "Task", frozenset(NOT_COMPLETED), frozenset(),
            frozenset({"read"}),
        )
        table = FeatureTable((), ())
        expected = per_atomic_reference(rule, acl, table)
        assert expected == (
            replace(rule, resource_condition=frozenset({cond(("phase",), "ip", "ns")})),
        )
        assert eliminate_negative_features(rule, acl, table) == expected

    def test_replacement_already_in_the_rule(self):
        # resource.dept=d2 is in the rule and among the first table
        # candidates for not(phase=c); it is tried, refused, and the
        # complement phase in {ip, ns} is taken.
        acl = phase_model("t1", "t2")
        in_d2 = cond(("dept",), "d2")
        rule = Rule(
            "User", frozenset(), "Task", frozenset({in_d2, NOT_COMPLETED[0]}),
            frozenset(), frozenset({"read"}),
        )
        table = FeatureTable.build(
            acl.class_model, acl.object_model, "User", "Task", ExtractionLimits()
        )
        assert (Slot.RESOURCE, in_d2) in [(e.kind, e.payload) for e in table.entries]
        expected = per_atomic_reference(rule, acl, table)
        assert expected == (
            replace(rule, resource_condition=frozenset({in_d2, cond(("phase",), "ip", "ns")})),
        )
        assert eliminate_negative_features(rule, acl, table) == expected

    def test_id_split_after_a_replacement_and_a_drop(self, monkeypatch):
        # As above, not(phase=c) is replaced and not(status=c) dropped; the
        # negated constraint then neither drops (t4 would be granted) nor
        # has a replacement, so the rule as rewritten is split.
        acl = phase_model("t1", "t2")
        rule = Rule(
            "User", frozenset(), "Task", frozenset(NOT_COMPLETED),
            frozenset({OTHER_DEPT}), frozenset({"read"}),
        )
        table = FeatureTable((), ())
        expected = per_atomic_reference(rule, acl, table)
        assert len(expected) == 2
        split = miner._id_split
        splits = []

        def recording(rule, acl, others):
            splits.append(rule)
            return split(rule, acl, others)

        monkeypatch.setattr(miner, "_id_split", recording)
        assert eliminate_negative_features(rule, acl, table) == expected
        assert splits == [
            Rule(
                "User", frozenset(), "Task", frozenset({cond(("phase",), "ip", "ns")}),
                frozenset({OTHER_DEPT}), frozenset({"read"}),
            )
        ]


class TestMergeAndSimplify:
    def make_acl(self):
        return running_example()[0]

    def test_action_union(self):
        acl = self.make_acl()
        acl = AclPolicy(
            acl.class_model,
            acl.object_model,
            frozenset({"read", "write"}),
            acl.au | {SraTuple(t.subject, t.resource, "write") for t in acl.au},
        )
        _, base = running_example()
        rules = [replace_actions(r, {"read"}) for r in base]
        rules += [replace_actions(r, {"write"}) for r in base]
        merged = merge_and_simplify(rules, acl)
        assert len(merged) == 2
        assert all(r.actions == frozenset({"read", "write"}) for r in merged)

    def test_redundant_condition_dropped(self):
        acl = self.make_acl()
        _, (same_dept, handbook) = running_example()
        # A subject condition implied by the constraint for every granted
        # tuple: dropping it preserves the rule's meaning.
        bloated = Rule(
            same_dept.subject_type,
            frozenset({cond(("dept",), "CS")}),
            same_dept.resource_type,
            frozenset(),
            same_dept.constraint,
            same_dept.actions,
        )
        out = merge_and_simplify([bloated, handbook], acl)
        assert sort_rules(out) == sort_rules(running_example()[1])

    def test_boolean_negation_rewritten(self):
        cm = ClassModel(
            {
                "User": {},
                "Doc": {"secret": FieldDecl("Boolean", Multiplicity.ONE)},
            }
        )
        om = ObjectModel(
            [
                ObjectInstance("u1", "User", {}),
                ObjectInstance("d1", "Doc", {"secret": False}),
                ObjectInstance("d2", "Doc", {"secret": True}),
            ]
        )
        au = frozenset({SraTuple("u1", "d1", "read")})
        acl = AclPolicy(cm, om, frozenset({"read"}), au)
        rule = Rule(
            "User",
            frozenset(),
            "Doc",
            frozenset({cond(("secret",), True, negated=True)}),
            frozenset(),
            frozenset({"read"}),
        )
        (out,) = merge_and_simplify([rule], acl)
        assert out.resource_condition == frozenset({cond(("secret",), False)})

    def bloated_same_dept(self):
        _, (same_dept, handbook) = running_example()
        # Same policy meaning as same_dept (see test_redundant_condition_dropped),
        # but one more atomic condition.
        bloated = Rule(
            same_dept.subject_type,
            frozenset({cond(("dept",), "CS")}),
            same_dept.resource_type,
            frozenset(),
            same_dept.constraint,
            same_dept.actions,
        )
        return same_dept, handbook, bloated

    def test_replace_rejects_wsc_increase(self):
        acl = self.make_acl()
        same_dept, handbook, bloated = self.bloated_same_dept()
        seen = []

        def phase2(rules):
            return _Phase2(rules, acl, ExtractionLimits(), lambda s, _: seen.append(s))

        lean, heavy = [same_dept, handbook], [bloated, handbook]
        ctx = phase2(lean)
        assert policy_planes(lean, ctx.meaning_of) == policy_planes(heavy, ctx.meaning_of)
        assert policy_wsc(heavy) > policy_wsc(lean)
        assert not ctx.replace("grow", [same_dept], [bloated])
        assert ctx.rules == sort_rules(lean)
        assert seen == []
        ctx = phase2(heavy)
        assert ctx.replace("shrink", [bloated], [same_dept])
        assert ctx.rules == sort_rules(lean)
        assert seen == ["shrink"]

    def test_rejections_logged_once(self, caplog, monkeypatch):
        acl = self.make_acl()
        same_dept, handbook, bloated = self.bloated_same_dept()

        def grow(ctx):
            ctx.replace("grow", [same_dept], [bloated])

        monkeypatch.setattr(miner, "_STEPS", (grow,))
        seen = []
        with caplog.at_level(logging.DEBUG, logger="rebac_miner.miner"):
            out = merge_and_simplify(
                [same_dept, handbook], acl, observer=lambda *event: seen.append(event)
            )
        assert out == sort_rules([same_dept, handbook])
        assert seen == []
        assert caplog.messages == ["phase 2b proposals: grow wsc 1"]

    def test_rejections_counted_by_reason(self, caplog):
        acl = self.make_acl()
        same_dept, handbook, bloated = self.bloated_same_dept()
        with caplog.at_level(logging.DEBUG, logger="rebac_miner.miner"):
            merge_and_simplify([bloated, handbook], acl)
        # The dept condition goes in the first round; in both rounds
        # neither rule is covered by the other.
        assert caplog.messages == [
            "phase 2b proposals: drop-atomic accepted 1, drop-covered-rule meaning 4"
        ]

    def test_bool_rewrite_replaces_only_its_rule(self):
        # Each rewrite must swap exactly the rewritten rule, even after an
        # earlier rewrite re-sorted the rules and merged a duplicate away.
        bools = {f: FieldDecl("Boolean", Multiplicity.ONE) for f in "abc"}
        cm = ClassModel({"User": {}, "Doc": bools})
        om = ObjectModel(
            [
                ObjectInstance("u1", "User", {}),
                ObjectInstance("d1", "Doc", {"a": False, "b": True, "c": True}),
                ObjectInstance("d2", "Doc", {"a": True, "b": False, "c": False}),
            ]
        )
        au = frozenset({SraTuple("u1", "d1", "read"), SraTuple("u1", "d2", "read")})
        acl = AclPolicy(cm, om, frozenset({"read"}), au)

        def doc_rule(*conditions):
            return Rule(
                "User", frozenset(), "Doc", frozenset(conditions), frozenset(),
                frozenset({"read"}),
            )

        def rewritten(rule):
            flipped = {
                cond(c.path, not next(iter(c.value))) if c.negated else c
                for c in rule.resource_condition
            }
            return doc_rule(*flipped)

        rules = [
            doc_rule(cond(("a",), False)),
            doc_rule(cond(("a",), True, negated=True)),
            doc_rule(cond(("b",), True, negated=True)),
            doc_rule(cond(("c",), True)),
        ]
        events = []
        merge_and_simplify(rules, acl, observer=lambda *event: events.append(event))
        before = set(rules)
        rewrites = 0
        for step, after in events:
            after = set(after)
            if step == "rewrite-bool-negation":
                rewrites += 1
                (gone,) = before - after
                assert after == (before - {gone}) | {rewritten(gone)}
            before = after
        assert rewrites == 2

    @settings(max_examples=300, deadline=None)
    @given(om=org_models(), rules=st.lists(org_rules(), min_size=1, max_size=4))
    def test_every_event_keeps_meaning_and_never_grows(self, om, rules):
        def granted(rules):
            return meaning(Policy(ORG_CM, om, frozenset(ORG_ACTIONS), tuple(rules)))

        au = granted(rules)
        acl = AclPolicy(ORG_CM, om, frozenset(ORG_ACTIONS), au)
        events = []
        out = merge_and_simplify(rules, acl, observer=lambda *e: events.append(e))
        last = policy_wsc(sort_rules(rules))
        for _, after in events:
            assert after == sort_rules(after)
            assert granted(after) == au
            assert policy_wsc(after) <= last
            last = policy_wsc(after)
        assert granted(out) == au

        # The same fixpoint driven step by step: after every accepted
        # replace the incrementally kept WSC and rule set are the recomputed ones.
        def check(step, after):
            assert after is ctx.rules
            assert ctx.wsc == policy_wsc(ctx.rules)
            assert set(ctx.current) == set(ctx.rules)

        ctx = _Phase2(rules, acl, ExtractionLimits(), check)
        ctx.changed = True
        while ctx.changed:
            ctx.changed = False
            for step in miner._STEPS:
                step(ctx)
        assert ctx.rules == out

    @settings(max_examples=300, deadline=None)
    @given(
        om=org_models(),
        rules=st.lists(org_rules(), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_replace_matches_the_recomputed_policy(self, om, rules, data):
        # Random proposals, removing rules the policy may or may not hold
        # and adding duplicates, kept rules and edits of them: each verdict
        # and each accepted policy is the one recomputed from scratch.
        au = meaning(Policy(ORG_CM, om, frozenset(ORG_ACTIONS), tuple(rules)))
        acl = AclPolicy(ORG_CM, om, frozenset(ORG_ACTIONS), au)
        ctx = _Phase2(rules, acl, ExtractionLimits(), None)
        pool = list(rules) + data.draw(st.lists(org_rules(), max_size=2))
        for _ in range(data.draw(st.integers(1, 6))):
            current = ctx.rules
            old = data.draw(st.lists(st.sampled_from(pool + list(current)), max_size=2))
            new = data.draw(st.lists(st.sampled_from(pool + list(current)), max_size=3))
            edits = [(r, slot, a) for r in new for slot, a in r.atomics()]
            if edits and data.draw(st.booleans()):
                r, slot, a = data.draw(st.sampled_from(edits))
                new.append(r.without_atomic(slot, a))
            kept = [r for r in current if r not in old]
            proposal = sort_rules(kept + new)
            same = policy_planes(kept + new, ctx.meaning_of) == ctx.meaning
            ok = same and policy_wsc(proposal) <= policy_wsc(current)
            assert ctx.replace("random", old, new) == ok
            assert ctx.rules == (proposal if ok else current)
            assert ctx.wsc == policy_wsc(ctx.rules)
            assert set(ctx.current) == set(ctx.rules)
            pool.extend(new)

    def narrow_rule(self):
        """One pair the running example's same-department rule also grants."""
        return Rule(
            "Student",
            frozenset({AtomicCondition(("id",), "in", frozenset({"CS-student-1"}))}),
            "Document",
            frozenset({AtomicCondition(("id",), "in", frozenset({"CS-doc-2"}))}),
            frozenset(),
            frozenset({"read"}),
        )

    def test_overlapping_rule_dropped(self):
        acl = self.make_acl()
        _, (same_dept, handbook) = running_example()
        out = merge_and_simplify([same_dept, handbook, self.narrow_rule()], acl)
        assert sort_rules(out) == sort_rules((same_dept, handbook))

    def test_replace_counts_a_kept_rule_once(self):
        # Replacing a rule by one the policy already holds removes a rule:
        # the kept copy's WSC is not added a second time.
        acl = self.make_acl()
        _, (same_dept, handbook) = running_example()
        narrow = self.narrow_rule()
        ctx = _Phase2([same_dept, handbook, narrow], acl, ExtractionLimits(), None)
        assert ctx.replace("into-kept", [narrow], [same_dept])
        assert ctx.rules == sort_rules([same_dept, handbook])
        assert ctx.wsc == policy_wsc(ctx.rules)

    def test_within_au_needs_every_action(self):
        acl = self.make_acl()
        acl = AclPolicy(acl.class_model, acl.object_model, acl.actions | {"write"}, acl.au)
        _, (same_dept, handbook) = running_example()
        ctx = _Phase2([same_dept, handbook], acl, ExtractionLimits(), None)
        plane = ctx.meaning_of(same_dept)
        assert plane
        both = replace_actions(same_dept, {"read", "write"})
        assert not plane & ~_allowed(same_dept, acl)
        assert plane & ~_allowed(both, acl)

    def test_meaning_never_changes_and_wsc_never_grows(self):
        spec = builtin_spec("org-chart")
        om, acl = generate(spec, 3, seed=4)
        degraded = inject_unknowns(om, spec, 2, seed=4)
        acl = AclPolicy(spec.class_model, degraded, acl.actions, acl.au)
        seen = []

        def observer(step, rules):
            seen.append((step, rules))

        result = mine_detailed(acl, MinerConfig(), observer=observer)
        assert meaning(result.policy) == acl.au
        last_wsc = None
        for step, rules in seen:
            got = frozenset().union(
                *(rule_meaning(acl.class_model, degraded, r) for r in rules)
            ) if rules else frozenset()
            assert got == acl.au
            current = policy_wsc(rules)
            if last_wsc is not None:
                assert current <= last_wsc
            last_wsc = current

    def test_resource_condition_wins_a_constraint_swap_tie(self):
        # One employee and one task, so every condition true of either
        # object has the constraint's effect.  The cheapest such conditions
        # have WSC 2 on both sides (subject.active=true sorts first among the
        # subject's); at equal WSC a resource condition is tried first.
        om = ObjectModel([
            ObjectInstance("d0", "Dept", {"parent": None}),
            ObjectInstance("e0", "Emp", {
                "dept": "d0", "skills": frozenset(), "mentor": None, "active": True,
            }),
            ObjectInstance("t0", "Task", {
                "dept": "d0", "needs": frozenset(), "focus": None, "owner": "e0",
                "team": frozenset(), "urgent": True,
            }),
        ])
        constraint = AtomicConstraint(("dept",), "equal", ("owner", "dept"))
        rule = Rule(
            "Emp", frozenset(), "Task", frozenset(), frozenset({constraint}),
            frozenset({"read"}),
        )
        acl = AclPolicy(ORG_CM, om, frozenset({"read"}), rule_meaning(ORG_CM, om, rule))
        ctx = _Phase2([rule], acl, ExtractionLimits(), None)
        base = rule.without_atomic(Slot.CONSTRAINT, constraint)
        target = ctx.meaning_of(rule)
        for slot, condition in (
            (Slot.SUBJECT, cond(("active",), True)),
            (Slot.RESOURCE, cond(("dept",), "d0")),
        ):
            assert wsc(condition) == 2 < wsc(constraint)
            assert ctx.meaning_of(base.with_atomic(slot, condition)) == target
        miner._constraints_to_conditions(ctx)
        assert ctx.rules == (base.with_atomic(Slot.RESOURCE, cond(("dept",), "d0")),)



class RecordingPhase2(_Phase2):
    """A ``_Phase2`` that records every proposal it is given and refuses
    those whose call numbers (from 0) are in ``refuse``."""

    def __init__(self, rules, acl, refuse=()):
        super().__init__(rules, acl, ExtractionLimits(), None)
        self.calls = []
        self.refuse = set(refuse)

    def replace(self, step, old, new):
        old, new = tuple(old), tuple(new)
        self.calls.append((step, old, new))
        if len(self.calls) - 1 in self.refuse:
            return False
        return super().replace(step, old, new)


def greedy_drop_oracle(ctx):
    """The drop-atomic loop as a plain greedy: after every accepted drop
    each atomic's leave-one-out plane is recomputed from scratch and every
    candidate is tried again in (conditions first, plane size, sort key,
    position) order; a refused candidate passes to the next one."""
    for rule in ctx.rules:
        if rule not in ctx.current:
            continue
        working = rule
        progressed = True
        while progressed:
            progressed = False
            atomics = working.atomics()
            planes = [
                rule_plane(ctx.cm, ctx.om, working.without_atomic(*item)) for item in atomics
            ]
            order = sorted(
                range(len(atomics)),
                key=lambda k: (
                    atomics[k][0] is Slot.CONSTRAINT,
                    planes[k].bit_count(),
                    atomics[k][1].sort_key,
                ),
            )
            for k in order:
                if planes[k] & ~_allowed(working, ctx.acl):
                    continue
                shrunk = working.without_atomic(*atomics[k])
                if ctx.replace("drop-atomic", (working,), (shrunk,)):
                    working = shrunk
                    progressed = True
                    break


RUNNING_ATOMICS = (
    (Slot.SUBJECT, cond(("dept",), "CS")),
    (Slot.SUBJECT, cond(("id",), "CS-student-1")),
    (Slot.SUBJECT, cond(("id",), "CS-student-1", "EE-student-1")),
    (Slot.RESOURCE, cond(("dept",), "CS")),
    (Slot.RESOURCE, cond(("type",), "Handbook")),
    (Slot.RESOURCE, cond(("id",), "CS-doc-1")),
    (Slot.RESOURCE, cond(("id",), "CS-doc-1", "CS-doc-2")),
    (Slot.CONSTRAINT, AtomicConstraint(("dept",), "equal", ("dept",))),
)


@st.composite
def running_example_rules_drawn(draw):
    """Rules from students to documents of the running example, each
    carrying any of ``RUNNING_ATOMICS``, some negated."""
    parts = ([], [], [])
    for slot, atomic in draw(st.lists(st.sampled_from(RUNNING_ATOMICS), unique=True)):
        if draw(st.booleans()):
            atomic = replace(atomic, negated=True)
        parts[slot].append(atomic)
    s, r, c = map(frozenset, parts)
    return Rule("Student", s, "Document", r, c, frozenset({"read"}))


@st.composite
def drop_cases(draw):
    """(acl, rules): random rules over a random org-chart model or the
    running example, and an AU that holds their meaning and maybe more,
    so that some drops within the AU change the policy's meaning."""
    if draw(st.booleans()):
        om = draw(org_models())
        cm, actions = ORG_CM, frozenset(ORG_ACTIONS)
        rules = draw(st.lists(org_rules(), min_size=1, max_size=4))
    else:
        example, _ = running_example()
        cm, om, actions = example.class_model, example.object_model, example.actions
        rules = draw(st.lists(running_example_rules_drawn(), min_size=1, max_size=3))
    granted = meaning(Policy(cm, om, actions, tuple(rules)))
    typed = sorted(
        SraTuple(s.id, r.id, a)
        for rule in rules
        for s in om.objects_of(rule.subject_type)
        for r in om.objects_of(rule.resource_type)
        for a in rule.actions
    )
    extra = draw(st.sets(st.sampled_from(typed))) if typed else set()
    return AclPolicy(cm, om, actions, granted | frozenset(extra)), rules


class TestPhase2bIncremental:
    """Phase 2b's incremental steps make the proposals and verdicts of
    their plain counterparts."""

    @settings(max_examples=200, deadline=None)
    @given(om=org_models(), rules=st.lists(org_rules(), min_size=1, max_size=4), data=st.data())
    def test_leave_one_out_matches_rule_plane(self, om, rules, data):
        # After any atomics are dropped, the plane without each atomic left
        # is the rule plane of the rule without it.
        for rule in rules:
            s_cls, r_cls = rule.subject_type, rule.resource_type
            atomics = rule.atomics()
            t = [pair_planes(ORG_CM, om, s_cls, r_cls, slot, a)[a.negated] for slot, a in atomics]
            indices = range(len(atomics))
            dropped = data.draw(st.sets(st.sampled_from(indices))) if atomics else set()
            left = [k for k in indices if k not in dropped]
            without = miner._leave_one_out(
                om.pairs(s_cls, r_cls).full, (t[k] for k in left)
            )
            base = rule
            for k in dropped:
                base = base.without_atomic(*atomics[k])
            for k in left:
                shrunk = base.without_atomic(*atomics[k])
                assert without(t[k]) == rule_plane(ORG_CM, om, shrunk)

    @settings(max_examples=300, deadline=None)
    @given(case=drop_cases(), refuse=st.sets(st.integers(0, 12), max_size=4))
    def test_drop_atomics_proposes_as_the_greedy_loop(self, case, refuse):
        # Same replace calls in the same order, with the same verdicts,
        # whether replace refuses a proposal on its own (a drop within the
        # AU that changes the meaning) or the stub refuses it.
        acl, rules = case
        oracle = RecordingPhase2(rules, acl, refuse)
        greedy_drop_oracle(oracle)
        lazy = RecordingPhase2(rules, acl, refuse)
        miner._drop_atomics(lazy)
        assert lazy.calls == oracle.calls
        assert lazy.rules == oracle.rules
        assert lazy.outcomes == oracle.outcomes

    def test_drop_atomics_retries_a_refused_drop_after_the_next(self):
        # One employee and one task: every atomic is T on the one pair, so
        # every drop keeps the meaning.  The first proposal, dropping the
        # subject condition, is refused; it is proposed again right after
        # the next accepted drop, and the constraint goes last.
        om = ObjectModel([
            ObjectInstance("d0", "Dept", {"parent": None}),
            ObjectInstance("e0", "Emp", {
                "dept": "d0", "skills": frozenset(), "mentor": None, "active": True,
            }),
            ObjectInstance("t0", "Task", {
                "dept": "d0", "needs": frozenset(), "focus": None, "owner": "e0",
                "team": frozenset(), "urgent": True,
            }),
        ])
        active, urgent = cond(("active",), True), cond(("urgent",), True)
        constraint = AtomicConstraint(("dept",), "equal", ("dept",))
        rule = Rule(
            "Emp", frozenset({active}), "Task", frozenset({urgent}),
            frozenset({constraint}), frozenset({"read"}),
        )
        acl = AclPolicy(
            ORG_CM, om, frozenset({"read"}), frozenset({SraTuple("e0", "t0", "read")})
        )
        ctx = RecordingPhase2([rule], acl, refuse={0})
        miner._drop_atomics(ctx)
        no_urgent = rule.without_atomic(Slot.RESOURCE, urgent)
        bare = no_urgent.without_atomic(Slot.SUBJECT, active)
        assert ctx.calls == [
            ("drop-atomic", (rule,), (rule.without_atomic(Slot.SUBJECT, active),)),
            ("drop-atomic", (rule,), (no_urgent,)),
            ("drop-atomic", (no_urgent,), (bare,)),
            ("drop-atomic", (bare,), (bare.without_atomic(Slot.CONSTRAINT, constraint),)),
        ]
        assert ctx.rules == (bare.without_atomic(Slot.CONSTRAINT, constraint),)

    @settings(max_examples=300, deadline=None)
    @given(
        om=org_models(),
        rules=st.lists(org_rules(), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_keeps_meaning_matches_the_full_comparison(self, om, rules, data):
        # Drops, additions and swaps, with old rules the policy may not
        # hold: the touched-keys check and replace's meaning verdict are
        # the comparison of the recomputed policy meaning.
        au = meaning(Policy(ORG_CM, om, frozenset(ORG_ACTIONS), tuple(rules)))
        acl = AclPolicy(ORG_CM, om, frozenset(ORG_ACTIONS), au)
        ctx = _Phase2(rules, acl, ExtractionLimits(), None)
        outside = data.draw(st.lists(org_rules(), min_size=1, max_size=3))
        for _ in range(data.draw(st.integers(1, 6))):
            current = list(ctx.rules)
            edits = [r.without_atomic(*item) for r in current for item in r.atomics()]
            pool = current + outside + edits
            kind = data.draw(st.sampled_from(("drop", "add", "swap") if current else ("add",)))
            old = []
            if kind != "add":
                old = data.draw(st.lists(st.sampled_from(current), min_size=1, max_size=2))
            if data.draw(st.booleans()):
                old.append(data.draw(st.sampled_from(outside)))
            new = []
            if kind != "drop":
                new = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
            kept = [r for r in current if r not in old]
            same = policy_planes(kept + new, ctx.meaning_of) == ctx.meaning
            assert ctx.keeps_meaning({r for r in old if r in ctx.current}, new) == same
            refused = ctx.outcomes["random", "meaning"]
            accepted = ctx.replace("random", old, new)
            assert ctx.outcomes["random", "meaning"] == refused + (not same)
            assert not accepted or same
            assert policy_planes(ctx.rules, ctx.meaning_of) == ctx.meaning

    def test_bool_rewrite_builds_the_chained_edits(self):
        # Several flips in both condition slots, one of them onto a
        # condition the rule already holds: the rule built once equals the
        # one built flip by flip.
        rule = Rule(
            "Emp",
            frozenset({
                cond(("active",), True, negated=True),
                cond(("dept",), "d0", negated=True),
            }),
            "Task",
            frozenset({
                cond(("urgent",), False, negated=True),
                cond(("urgent",), True),
                cond(("dept",), "d1"),
            }),
            frozenset(),
            frozenset({"read"}),
        )
        chained = rule
        for slot, ac in rule.atomics():
            if ac.negated and isinstance(next(iter(ac.value)), bool):
                flipped = cond(ac.path, not next(iter(ac.value)))
                chained = chained.without_atomic(slot, ac).with_atomic(slot, flipped)
        om = ObjectModel([])
        acl = AclPolicy(ORG_CM, om, frozenset(ORG_ACTIONS), frozenset())
        ctx = RecordingPhase2([rule], acl)
        miner._rewrite_bool_negations(ctx)
        assert ctx.calls == [("rewrite-bool-negation", (rule,), (chained,))]
        assert ctx.calls[0][2][0].sort_key == chained.sort_key

def replace_actions(rule, actions):
    return Rule(
        rule.subject_type,
        rule.subject_condition,
        rule.resource_type,
        rule.resource_condition,
        rule.constraint,
        frozenset(actions),
    )


class TestFinalCheck:
    """``mine_detailed`` refuses a policy whose meaning is not the AU."""

    ACLS = {
        "running-example": lambda: running_example()[0],
        "org-chart-n5": lambda: generate(builtin_spec("org-chart"), 5, seed=1)[1],
    }

    @pytest.mark.parametrize("acl_name", sorted(ACLS))
    @pytest.mark.parametrize("tamper", ["drop-rule", "add-over-granting-rule"])
    def test_disagreement_raises_naming_smallest_difference(
        self, monkeypatch, acl_name, tamper
    ):
        acl = self.ACLS[acl_name]()
        simplify = miner.merge_and_simplify
        mined = []

        def tampered(rules, acl, **kwargs):
            rules = simplify(rules, acl, **kwargs)
            if tamper == "drop-rule":
                rules = rules[1:]
            else:
                first = rules[0]
                everything = Rule(
                    first.subject_type, frozenset(), first.resource_type,
                    frozenset(), frozenset(), first.actions,
                )
                rules = rules + (everything,)
            mined.extend(rules)
            return rules

        monkeypatch.setattr(miner, "merge_and_simplify", tampered)
        with pytest.raises(MinerError) as raised:
            mine_detailed(acl, MinerConfig())
        granted = frozenset().union(
            *(rule_meaning(acl.class_model, acl.object_model, r) for r in mined)
        )
        assert granted != acl.au
        expected = sorted(granted ^ acl.au)[0]
        assert str(raised.value) == f"mined policy disagrees with input at {expected}"


class TestNaiveDiagnostic:
    def test_denies_the_unknown_typed_document(self):
        acl, _ = running_example()
        policy = naive_unknown_as_false_diagnostic(acl, MinerConfig())
        granted = meaning(policy)
        assert SraTuple("CS-student-1", "CS-doc-2", "read") not in granted
        assert jaccard(granted, acl.au) == pytest.approx(2 / 3)

    def test_final_check_reports_instead_of_raising(self):
        result = mine_detailed(running_example()[0], unknown_as_false=True)
        assert result.missing == SraTuple("CS-student-1", "CS-doc-2", "read")
        assert result.extra is None

    def test_identity_on_fully_known_data(self):
        spec = builtin_spec("univ-mini")
        om, acl = generate(spec, 3, seed=8)
        a = mine(acl, MinerConfig())
        b = naive_unknown_as_false_diagnostic(acl, MinerConfig())
        assert a.rules == b.rules


class TestRoundTrips:
    @pytest.mark.parametrize("spec_name", ["univ-mini", "org-chart"])
    @pytest.mark.parametrize("allow_negation", [True, False])
    def test_mined_policy_grants_exactly_au(self, spec_name, allow_negation):
        spec = builtin_spec(spec_name)
        for seed in (0, 1):
            om, acl = generate(spec, 3, seed=seed)
            degraded = inject_unknowns(om, spec, 2, seed=seed)
            acl = AclPolicy(spec.class_model, degraded, acl.actions, acl.au)
            cfg = MinerConfig(allow_negation=allow_negation)
            policy = mine(acl, cfg)
            assert meaning(policy) == acl.au
            if not allow_negation:
                assert all(
                    not ac.negated for r in policy.rules for _, ac in r.atomics()
                )

    def test_semantic_similarity_one_for_ground_truth(self):
        spec = builtin_spec("univ-mini")
        om, acl = generate(spec, 4, seed=17)
        policy = mine(acl, MinerConfig())
        truth = Policy(spec.class_model, om, spec.actions, spec.rules)
        assert semantic_similarity(policy, truth) == 1.0

    def test_jobs_parallel_same_result(self):
        spec = builtin_spec("org-chart")
        om, acl = generate(spec, 3, seed=12)
        a = mine_detailed(acl, MinerConfig(), jobs=1).policy
        b = mine_detailed(acl, MinerConfig(), jobs=4).policy
        assert a.rules == b.rules


def per_task_columns(acl, cfg, report, unknown_as_false):
    """The table and dataset of ``report``'s task prepared for that task
    alone: built, rewritten to two values if ``unknown_as_false``, pruned,
    and for a retried task relearned with identity conditions or extended
    by the per-pair identity columns, as its strategy says."""
    s_cls, r_cls, action = report.subject_type, report.resource_type, report.action
    retry = cfg.id_strategy is IdStrategy.RETRY_WITH_ID_FEATURES
    limits = cfg.limits
    if report.retried_with_ids and retry:
        limits = replace(limits, include_id_conditions=True)
    table = FeatureTable.build(acl.class_model, acl.object_model, s_cls, r_cls, limits)
    dataset = build_dataset(acl, s_cls, r_cls, action, table)
    if unknown_as_false:
        everything = dataset.all_rows
        dataset = replace(
            dataset, planes=tuple((t, everything & ~t) for t, _ in dataset.planes)
        )
    table, dataset = prune_useless(table, dataset)
    if report.retried_with_ids and not retry:
        table, dataset, _, _ = extend_with_id_columns(acl, s_cls, r_cls, table, dataset)
    return table, dataset


class TestClassPairSharing:
    """The tasks of one class pair share one preparation of their feature
    table and columns; no report may show it."""

    @staticmethod
    def instance(seed):
        # Two actions on Employee/Task (at seed 9 one task falls back and
        # one does not; at seed 23 both do), plus an Employee/Employee
        # task so that a thread pool has two class pairs to map over.
        spec = builtin_spec("org-chart")
        om, acl = generate(spec, 4, seed=seed)
        om = inject_unknowns(om, spec, 2, seed=seed)
        au = set(acl.au) | {
            SraTuple(e.id, e.id, "view") for e in om.objects_of("Employee")
        }
        return AclPolicy(spec.class_model, om, acl.actions, au)

    @pytest.mark.parametrize("seed", [9, 23])
    @pytest.mark.parametrize(
        "route", ["per-vector", "retry", "unknown-as-false"]
    )
    def test_reports_match_per_task_preparation(self, seed, route):
        acl = self.instance(seed)
        cfg = MinerConfig(
            id_strategy=IdStrategy.RETRY_WITH_ID_FEATURES
            if route == "retry"
            else IdStrategy.PER_VECTOR_ID_CONJUNCTION
        )
        naive = route == "unknown-as-false"
        result = mine_detailed(acl, cfg, unknown_as_false=naive)
        keys = [(r.subject_type, r.resource_type, r.action) for r in result.tasks]
        assert keys == sorted(acl.au_planes)
        assert [k for k in keys if k[:2] == ("Employee", "Task")] == [
            ("Employee", "Task", "assign"),
            ("Employee", "Task", "view"),
        ]
        if not naive:
            assert any(r.retried_with_ids for r in result.tasks)
        om = acl.object_model
        for report, key in zip(result.tasks, keys):
            table, dataset = per_task_columns(acl, cfg, report, naive)
            assert report.table == table
            assert report.dataset.features == dataset.features
            assert report.dataset.planes == dataset.planes
            assert report.dataset.size == dataset.size
            granted = acl.au_planes[key]
            full = om.pairs(*key[:2]).full
            assert report.dataset.labels == (granted, full & ~granted)
        pooled = mine_detailed(acl, cfg, unknown_as_false=naive, jobs=2)
        assert pooled.tasks == result.tasks
        assert pooled.policy.rules == result.policy.rules


# sha256 of the policy JSON mined from org-chart n=20, s=2: the scale at
# which tasks first fail without identity features (retry) and need the
# per-pair identity fallback.  Recorded with the per-row learner (seed 2
# took about a minute there); both negation modes mine the same policy.
REGRESSION_DIGESTS = {
    2: "ef70deecb3f0d07cddc63d4e2f3b61ccf0979fb574edf70e6718b6445572d4a1",
    3: "ea16467d915c2a7a91cc08e03c7d30987fe19d060f44e08f4731d8eb6154f4da",
}


# sha256 of the policy JSON mined from org-chart n=15, s=2, seed 2 with
# identity conditions among the candidate features, per allow_negation:
# the identity-laden rules make phase 2b's drop-atomic proposals many.
INCLUDE_IDS_DIGESTS = {
    True: "92766738a2809293fc81899c60d77b5a107232637f27d0f5086992a9f4cb5078",
    False: "c554158e97b0bbd9402df60df470c521124eba33a590f7dfeb70f22495d9416c",
}

# sha256 of the phase-2b observer stream (``event_stream_digest``) of the
# same runs, per allow_negation: it pins the order of phase 2b's
# proposals, the drop-atomic order in particular, not only where they end.
INCLUDE_IDS_EVENTS_DIGESTS = {
    True: "a61e2ed9bf2afd5877f7580c8a1363edee1a4f9b7e6dae4ae228423fe8e7e0e4",
    False: "f427b13d18a271f3046b9eb2e3c48b14e22f6ce5052beb8e005075776e370055",
}


# sha256 of the policy JSON mined from org-chart, s=2 with the retry
# identity strategy, per (n, seed, allow_negation): in each cell one of
# the two tasks fails without identity features and is learned again with
# them.
RETRY_DIGESTS = {
    (15, 2, True): "b5c8c9aefaf7c536ba87396e5fb066c84211ce9ecb10c329567d04e595e87bbe",
    (15, 2, False): "0139bd2d8d0247ca0a2ca41469bac1a9b86f004165a95ec3daeed5f4a724515a",
    (20, 3, False): "c0cb2cdb31a2e2e7e72b64e66f9e79ddd279cf182b655a875b03f010620b3549",
}


# sha256 of the phase-2b observer stream (each event's step and rule
# texts, in order) for org-chart n=20, s=2, seed 2 with negation.
REGRESSION_EVENTS_DIGEST = "f47ced78bc218225e86a02bfc0df01b274ad8dd4ecf84ba67558a07f806df381"


def event_stream_digest(events) -> str:
    stream = "\n".join(
        "\t".join((step, *(rule.text() for rule in rules))) for step, rules in events
    )
    return hashlib.sha256(stream.encode()).hexdigest()


class TestRegressionCells:
    def test_org_chart_n20_s2_phase2b_events(self):
        spec = builtin_spec("org-chart")
        om, acl = generate(spec, 20, seed=2)
        degraded = inject_unknowns(om, spec, 2, seed=2)
        acl = AclPolicy(spec.class_model, degraded, acl.actions, acl.au)
        events = []
        mine_detailed(acl, MinerConfig(), observer=lambda *e: events.append(e))
        assert events
        assert event_stream_digest(events) == REGRESSION_EVENTS_DIGEST

    @pytest.mark.parametrize("allow_negation", [True, False])
    def test_org_chart_n15_s2_with_identity_conditions(self, allow_negation):
        spec = builtin_spec("org-chart")
        om, acl = generate(spec, 15, seed=2)
        degraded = inject_unknowns(om, spec, 2, seed=2)
        acl = AclPolicy(spec.class_model, degraded, acl.actions, acl.au)
        cfg = MinerConfig(
            allow_negation=allow_negation,
            limits=ExtractionLimits(include_id_conditions=True),
        )
        events = []
        result = mine_detailed(acl, cfg, observer=lambda *e: events.append(e))
        assert meaning(result.policy) == acl.au
        text = jsonio.dumps(
            jsonio.rules_to_json(result.policy.actions, result.policy.rules)
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == INCLUDE_IDS_DIGESTS[allow_negation]
        assert event_stream_digest(events) == INCLUDE_IDS_EVENTS_DIGESTS[allow_negation]

    @pytest.mark.parametrize("n, seed, allow_negation", sorted(RETRY_DIGESTS))
    def test_org_chart_s2_retry_with_identity_features(self, n, seed, allow_negation):
        spec = builtin_spec("org-chart")
        om, acl = generate(spec, n, seed=seed)
        degraded = inject_unknowns(om, spec, 2, seed=seed)
        acl = AclPolicy(spec.class_model, degraded, acl.actions, acl.au)
        cfg = MinerConfig(
            allow_negation=allow_negation, id_strategy=IdStrategy.RETRY_WITH_ID_FEATURES
        )
        result = mine_detailed(acl, cfg)
        assert any(t.retried_with_ids for t in result.tasks)
        assert meaning(result.policy) == acl.au
        text = jsonio.dumps(
            jsonio.rules_to_json(result.policy.actions, result.policy.rules)
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == RETRY_DIGESTS[n, seed, allow_negation]

    def test_per_vector_route_grows_no_more_trees(self, monkeypatch):
        # Both tasks fail their first attempt and take the per-vector
        # identity route, which reuses that attempt's conjunctions: every
        # tree grown is one of the tasks' reported iterations.
        spec = builtin_spec("org-chart")
        om, acl = generate(spec, 20, seed=2)
        degraded = inject_unknowns(om, spec, 2, seed=2)
        acl = AclPolicy(spec.class_model, degraded, acl.actions, acl.au)
        trees = []
        build_tree = learner.build_tree

        def counting(*args, **kwargs):
            trees.append(None)
            return build_tree(*args, **kwargs)

        monkeypatch.setattr(learner, "build_tree", counting)
        result = mine_detailed(acl, MinerConfig())
        assert len(result.tasks) == 2
        assert all(t.retried_with_ids and t.result.used_fallback for t in result.tasks)
        assert len(trees) == sum(t.result.iterations for t in result.tasks)

    @pytest.mark.parametrize("seed", sorted(REGRESSION_DIGESTS))
    @pytest.mark.parametrize("allow_negation", [True, False])
    def test_org_chart_n20_s2(self, seed, allow_negation):
        spec = builtin_spec("org-chart")
        om, acl = generate(spec, 20, seed=seed)
        degraded = inject_unknowns(om, spec, 2, seed=seed)
        acl = AclPolicy(spec.class_model, degraded, acl.actions, acl.au)
        result = mine_detailed(acl, MinerConfig(allow_negation=allow_negation))
        assert meaning(result.policy) == acl.au
        assert any(t.retried_with_ids and t.result.used_fallback for t in result.tasks)
        text = jsonio.dumps(
            jsonio.rules_to_json(result.policy.actions, result.policy.rules)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == REGRESSION_DIGESTS[seed]
