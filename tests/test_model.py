import random
from dataclasses import replace
from functools import partial
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from rebac_miner import jsonio, miner
from rebac_miner.features import (
    ExtractionLimits,
    enumerate_condition_features,
    enumerate_paths,
    observed_constants,
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
    meaning_mismatch,
    pair_planes,
    path_type,
    policy_planes,
    rule_plane,
    validate_object_model,
    validate_rule,
    value_index,
    value_sort_key,
    wsc,
)
from rebac_miner.tvl import TruthValue, mask_of
from tests.conftest import running_example
from tests.oracles import nav, rule_meaning, satisfies, tval_condition, tval_constraint

F, U, T = TruthValue.F, TruthValue.U, TruthValue.T

ONE = Multiplicity.ONE
OPT = Multiplicity.OPTIONAL
MANY = Multiplicity.MANY


@pytest.fixture
def cm():
    return running_example()[0].class_model


@pytest.fixture
def om():
    return running_example()[0].object_model


class TestClassModel:
    def test_validates_field_types(self):
        with pytest.raises(ModelError):
            ClassModel({"A": {"x": FieldDecl("Nope", ONE)}})

    def test_boolean_must_be_single(self):
        with pytest.raises(ModelError):
            ClassModel({"A": {"x": FieldDecl("Boolean", MANY)}})

    def test_id_reserved(self):
        with pytest.raises(ModelError):
            ClassModel({"A": {"id": FieldDecl("Boolean", ONE)}})

    @pytest.mark.parametrize("name", ["", "d.x", ".", "dept."])
    def test_field_name_is_text_without_dots(self, name):
        # A path's text joins field names with ".", so a name holding one,
        # or an empty name, would not read back as the path it came from.
        with pytest.raises(ModelError) as exc:
            ClassModel({"Dept": {}, "Emp": {name: FieldDecl("Dept", ONE)}})
        assert str(exc.value) == (
            f"class Emp: bad field name {name!r}"
            " (field names are non-empty and contain no '.')"
        )

    def test_implicit_id_field(self, cm):
        decl = cm.field("Student", "id")
        assert decl.type == "String" and decl.multiplicity is ONE

    def test_path_multiplicity(self):
        cm = ClassModel(
            {
                "A": {"bs": FieldDecl("B", MANY), "b": FieldDecl("B", OPT)},
                "B": {"flag": FieldDecl("Boolean", ONE)},
            }
        )
        assert path_type(cm, "A", ("bs", "flag")) == ("Boolean", MANY)
        assert path_type(cm, "A", ("b", "flag")) == ("Boolean", OPT)
        assert path_type(cm, "A", ()) == ("A", ONE)


class TestObjectModel:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ModelError):
            ObjectModel(
                [ObjectInstance("x", "A", {}), ObjectInstance("x", "B", {})]
            )

    def test_validation_accepts_running_example(self, cm, om):
        validate_object_model(cm, om)

    def test_unknown_inside_stored_set_rejected(self):
        cm = ClassModel({"S": {}, "A": {"xs": FieldDecl("S", MANY)}})
        om = ObjectModel(
            [
                ObjectInstance("s1", "S", {}),
                ObjectInstance("a", "A", {"xs": frozenset({"s1", UNKNOWN})}),
            ]
        )
        with pytest.raises(ModelError):
            validate_object_model(cm, om)

    def test_missing_field_rejected(self, cm):
        om = ObjectModel([ObjectInstance("s", "Student", {})])
        with pytest.raises(ModelError):
            validate_object_model(cm, om)


class TestNav:
    def test_unknown_field(self, cm, om):
        assert nav(cm, om, "EE-student-1", ("dept",)) is UNKNOWN

    def test_known_field(self, cm, om):
        assert nav(cm, om, "CS-student-1", ("dept",)) == "CS"

    def test_empty_path_is_self(self, cm, om):
        assert nav(cm, om, "CS-doc-2", ()) == "CS-doc-2"

    def test_many_path_collects_and_flags_unknown(self):
        cm = ClassModel(
            {
                "Skill": {},
                "Emp": {"skills": FieldDecl("Skill", MANY)},
                "Team": {"members": FieldDecl("Emp", MANY)},
            }
        )
        om = ObjectModel(
            [
                ObjectInstance("sq", "Skill", {}),
                ObjectInstance("sw", "Skill", {}),
                ObjectInstance("e1", "Emp", {"skills": frozenset({"sq", "sw"})}),
                ObjectInstance("e2", "Emp", {"skills": UNKNOWN}),
                ObjectInstance("t", "Team", {"members": frozenset({"e1", "e2"})}),
            ]
        )
        assert nav(cm, om, "t", ("members", "skills")) == frozenset(
            {"sq", "sw", UNKNOWN}
        )
        assert nav(cm, om, "e2", ("skills",)) == frozenset({UNKNOWN})

    def test_unknown_scalar_prefix_of_many_path(self):
        cm = ClassModel(
            {
                "Skill": {},
                "Profile": {"skills": FieldDecl("Skill", MANY)},
                "Emp": {"profile": FieldDecl("Profile", ONE)},
            }
        )
        om = ObjectModel(
            [
                ObjectInstance("p", "Profile", {"skills": frozenset()}),
                ObjectInstance("e", "Emp", {"profile": UNKNOWN}),
            ]
        )
        assert nav(cm, om, "e", ("profile", "skills")) == frozenset({UNKNOWN})

    def test_none_short_circuits_optional_path(self):
        cm = ClassModel(
            {
                "Dept": {},
                "Emp": {"mentor": FieldDecl("Emp", OPT), "dept": FieldDecl("Dept", ONE)},
            }
        )
        om = ObjectModel(
            [
                ObjectInstance("d", "Dept", {}),
                ObjectInstance("e1", "Emp", {"mentor": None, "dept": "d"}),
            ]
        )
        assert nav(cm, om, "e1", ("mentor", "dept")) is None

    def test_type_errors_raise(self, cm, om):
        with pytest.raises(ModelError):
            nav(cm, om, "CS-student-1", ("nope",))


def cond(path, *atoms, negated=False):
    return AtomicCondition(tuple(path), "in", frozenset(atoms), negated=negated)


class TestTvalCondition:
    def test_known_match(self, cm, om):
        assert tval_condition(cm, om, "CS-student-1", cond(["dept"], "CS")) is T

    def test_unknown_gives_u(self, cm, om):
        assert tval_condition(cm, om, "EE-student-1", cond(["dept"], "CS")) is U
        assert tval_condition(cm, om, "CS-doc-2", cond(["type"], "Handbook")) is U

    def test_known_mismatch(self, cm, om):
        assert tval_condition(cm, om, "CS-doc-2", cond(["dept"], "EE-nope")) is F

    def test_negation_is_kleene_on_scalars(self, cm, om):
        assert tval_condition(cm, om, "CS-student-1", cond(["dept"], "CS", negated=True)) is F
        assert tval_condition(cm, om, "EE-student-1", cond(["dept"], "CS", negated=True)) is U

    def test_negated_contains_with_unknown_in_set_gives_u(self):
        cm = ClassModel({"Skill": {}, "Emp": {"skills": FieldDecl("Skill", MANY)},
                         "Team": {"members": FieldDecl("Emp", MANY)}})
        om = ObjectModel(
            [
                ObjectInstance("sq", "Skill", {}),
                ObjectInstance("e1", "Emp", {"skills": frozenset({"sq"})}),
                ObjectInstance("e2", "Emp", {"skills": UNKNOWN}),
                ObjectInstance("t", "Team", {"members": frozenset({"e1", "e2"})}),
            ]
        )
        ac = AtomicCondition(("members", "skills"), "contains", "sq", negated=True)
        # Base truth is T (sq present) but the set also contains unknown.
        assert tval_condition(cm, om, "t", ac) is U


class TestTvalConstraint:
    def test_equal_known(self, cm, om):
        con = AtomicConstraint(("dept",), "equal", ("dept",))
        assert tval_constraint(cm, om, "CS-student-1", "CS-doc-2", con) is T

    def test_equal_one_side_unknown(self, cm, om):
        con = AtomicConstraint(("dept",), "equal", ("dept",))
        assert tval_constraint(cm, om, "CS-student-1", "CS-doc-1", con) is U
        assert tval_constraint(cm, om, "EE-student-1", "CS-doc-3", con) is U

    def test_subset_ops_with_unknowns(self):
        cm = ClassModel(
            {
                "Skill": {},
                "Emp": {"skills": FieldDecl("Skill", MANY)},
                "Task": {"needs": FieldDecl("Skill", MANY)},
            }
        )
        om = ObjectModel(
            [
                ObjectInstance("a", "Skill", {}),
                ObjectInstance("b", "Skill", {}),
                ObjectInstance("e-known", "Emp", {"skills": frozenset({"a", "b"})}),
                ObjectInstance("e-unknown", "Emp", {"skills": UNKNOWN}),
                ObjectInstance("t-ab", "Task", {"needs": frozenset({"a", "b"})}),
                ObjectInstance("t-a", "Task", {"needs": frozenset({"a"})}),
            ]
        )
        sup = AtomicConstraint(("skills",), "supseteq", ("needs",))
        assert tval_constraint(cm, om, "e-known", "t-ab", sup) is T
        assert tval_constraint(cm, om, "e-unknown", "t-a", sup) is U
        sub = AtomicConstraint(("skills",), "subseteq", ("needs",))
        assert tval_constraint(cm, om, "e-known", "t-a", sub) is F
        assert tval_constraint(cm, om, "e-unknown", "t-a", sub) is U

    def test_in_membership_unknown_atom(self):
        cm = ClassModel(
            {
                "Skill": {},
                "Emp": {"top": FieldDecl("Skill", ONE)},
                "Task": {"needs": FieldDecl("Skill", MANY)},
            }
        )
        om = ObjectModel(
            [
                ObjectInstance("a", "Skill", {}),
                ObjectInstance("e", "Emp", {"top": UNKNOWN}),
                ObjectInstance("t", "Task", {"needs": frozenset({"a"})}),
                ObjectInstance("t0", "Task", {"needs": frozenset()}),
            ]
        )
        con = AtomicConstraint(("top",), "in", ("needs",))
        assert tval_constraint(cm, om, "e", "t", con) is U
        assert tval_constraint(cm, om, "e", "t0", con) is F


class TestSatisfiesAndMeaning:
    def test_example_rows(self, cm, om):
        _, (same_dept, handbook) = running_example()
        assert satisfies(cm, om, SraTuple("CS-student-1", "CS-doc-2", "read"), same_dept)
        assert not satisfies(cm, om, SraTuple("CS-student-1", "CS-doc-3", "read"), same_dept)
        assert not satisfies(cm, om, SraTuple("CS-student-1", "CS-doc-3", "read"), handbook)

    def test_action_mismatch(self, cm, om):
        same_dept, _ = running_example()[1]
        assert not satisfies(cm, om, SraTuple("CS-student-1", "CS-doc-2", "write"), same_dept)

    def test_meaning_matches_au(self, cm, om):
        policy = Policy(cm, om, frozenset({"read"}), running_example()[1])
        assert meaning(policy) == running_example()[0].au

    def test_empty_policy(self, cm, om):
        assert meaning(Policy(cm, om, frozenset({"read"}), ())) == frozenset()

    def test_union_without_duplicates(self, cm, om):
        rules = running_example()[1]
        policy = Policy(cm, om, frozenset({"read"}), rules + rules)
        assert meaning(policy) == running_example()[0].au

    def test_meaning_agrees_with_independent_tval(self, cm, om):
        # Second, deliberately naive evaluation of the same semantics.
        def naive_nav(oid, path):
            if not path:
                return oid
            v = om.field_value(oid, path[0])
            if v is UNKNOWN or v is None:
                t, m = path_type(cm, om.get(oid).type, path)
                if m is Multiplicity.MANY:
                    return frozenset({UNKNOWN}) if v is UNKNOWN else frozenset()
                return v
            if isinstance(v, frozenset):
                out = set()
                for el in v:
                    r = naive_nav(el, path[1:])
                    if isinstance(r, frozenset):
                        out |= r
                    elif r is not None:
                        out.add(r)
                return frozenset(out)
            if isinstance(v, bool):
                return v
            return naive_nav(v, path[1:])

        def naive_cond(oid, ac):
            v = naive_nav(oid, ac.path)
            if isinstance(v, frozenset):
                base = T if ac.value in v else (U if UNKNOWN in v else F)
            elif v is UNKNOWN:
                base = U
            else:
                base = T if v in ac.value else F
            if ac.negated:
                if base is T and isinstance(v, frozenset) and UNKNOWN in v:
                    return U
                return TruthValue(2 - base)
            return base

        def naive_grants(rule):
            out = set()
            for s in om.objects_of(rule.subject_type):
                for r in om.objects_of(rule.resource_type):
                    ok = all(naive_cond(s.id, ac) is T for ac in rule.subject_condition)
                    ok = ok and all(
                        naive_cond(r.id, ac) is T for ac in rule.resource_condition
                    )
                    for con in rule.constraint:
                        v1, v2 = naive_nav(s.id, con.path1), naive_nav(r.id, con.path2)
                        if con.op == "equal":
                            tv = (
                                U
                                if (v1 is UNKNOWN or v2 is UNKNOWN)
                                else (T if v1 == v2 else F)
                            )
                        else:
                            raise NotImplementedError
                        ok = ok and tv is T
                    if ok:
                        out |= {SraTuple(s.id, r.id, a) for a in rule.actions}
            return out

        mine = set()
        for rule in running_example()[1]:
            mine |= rule_meaning(cm, om, rule)
        naive = set()
        for rule in running_example()[1]:
            naive |= naive_grants(rule)
        assert mine == naive == running_example()[0].au


class TestRefinementMonotonicity:
    def test_definite_tvals_survive_refinement(self):
        # Replacing an unknown field value with a concrete one never flips
        # a condition/constraint verdict that was already definite.
        rng = random.Random(31)
        cm = ClassModel(
            {
                "Skill": {},
                "Dept": {},
                "Emp": {
                    "dept": FieldDecl("Dept", ONE),
                    "skills": FieldDecl("Skill", MANY),
                },
                "Task": {
                    "dept": FieldDecl("Dept", ONE),
                    "needs": FieldDecl("Skill", MANY),
                    "urgent": FieldDecl("Boolean", ONE),
                },
            }
        )
        skills = ["s1", "s2", "s3"]
        depts = ["d1", "d2"]

        def random_model():
            objs = [ObjectInstance(s, "Skill", {}) for s in skills]
            objs += [ObjectInstance(d, "Dept", {}) for d in depts]
            for i in range(3):
                objs.append(
                    ObjectInstance(
                        f"e{i}",
                        "Emp",
                        {
                            "dept": rng.choice(depts + [UNKNOWN]),
                            "skills": UNKNOWN
                            if rng.random() < 0.3
                            else frozenset(rng.sample(skills, rng.randint(0, 3))),
                        },
                    )
                )
            for i in range(3):
                objs.append(
                    ObjectInstance(
                        f"t{i}",
                        "Task",
                        {
                            "dept": rng.choice(depts + [UNKNOWN]),
                            "needs": frozenset(rng.sample(skills, rng.randint(0, 2))),
                            "urgent": rng.choice([True, False, UNKNOWN]),
                        },
                    )
                )
            return objs

        def refine(objs):
            out = []
            for obj in objs:
                fields = dict(obj.fields)
                for name, value in fields.items():
                    if value is UNKNOWN and rng.random() < 0.7:
                        if name == "urgent":
                            fields[name] = rng.choice([True, False])
                        elif name == "skills":
                            fields[name] = frozenset(
                                rng.sample(skills, rng.randint(0, 3))
                            )
                        else:
                            fields[name] = rng.choice(depts)
                out.append(ObjectInstance(obj.id, obj.type, fields))
            return out

        conditions = [
            ("Emp", cond(["dept"], "d1")),
            ("Task", AtomicCondition(("urgent",), "in", frozenset({True}))),
            ("Task", AtomicCondition(("needs",), "contains", "s1")),
            ("Emp", AtomicCondition(("skills",), "contains", "s2", negated=True)),
        ]
        constraints = [
            AtomicConstraint(("dept",), "equal", ("dept",)),
            AtomicConstraint(("skills",), "supseteq", ("needs",)),
            AtomicConstraint(("skills",), "subseteq", ("needs",), negated=True),
        ]
        for _ in range(60):
            objs = random_model()
            before, after = ObjectModel(objs), ObjectModel(refine(objs))
            for cls, ac in conditions:
                for obj in before.objects_of(cls):
                    tv0 = tval_condition(cm, before, obj.id, ac)
                    tv1 = tval_condition(cm, after, obj.id, ac)
                    if tv0 is not U:
                        assert tv1 is tv0
            for con in constraints:
                for e in before.objects_of("Emp"):
                    for t in before.objects_of("Task"):
                        tv0 = tval_constraint(cm, before, e.id, t.id, con)
                        tv1 = tval_constraint(cm, after, e.id, t.id, con)
                        if tv0 is not U:
                            assert tv1 is tv0

    def test_fully_known_models_are_two_valued(self, cm):
        om = ObjectModel(
            [
                ObjectInstance("CS", "Department", {}),
                ObjectInstance("Handbook", "DocType", {}),
                ObjectInstance("s", "Student", {"dept": "CS"}),
                ObjectInstance("d", "Document", {"dept": "CS", "type": "Handbook"}),
            ]
        )
        for ac in (cond(["dept"], "CS"), cond(["dept"], "CS", negated=True)):
            assert tval_condition(cm, om, "s", ac) in (T, F)
        con = AtomicConstraint(("dept",), "equal", ("dept",))
        assert tval_constraint(cm, om, "s", "d", con) in (T, F)


class TestRuleValidation:
    def test_op_must_match_multiplicity(self, cm):
        bad = Rule(
            "Student",
            frozenset({AtomicCondition(("dept",), "contains", "CS")}),
            "Document",
            frozenset(),
            frozenset(),
            frozenset({"read"}),
        )
        with pytest.raises(ModelError):
            validate_rule(cm, bad)

    def test_constraint_types_must_agree(self, cm):
        bad = Rule(
            "Student",
            frozenset(),
            "Document",
            frozenset(),
            frozenset({AtomicConstraint(("dept",), "equal", ("type",))}),
            frozenset({"read"}),
        )
        with pytest.raises(ModelError):
            validate_rule(cm, bad)

    @pytest.mark.parametrize(
        "op, value",
        [
            ("in", frozenset({1})),
            ("in", frozenset({"CS", 1.5})),
            ("contains", 1),
            ("contains", 1.5),
            ("contains", [1]),
            ("contains", frozenset({"CS"})),
        ],
        ids=["in-int", "in-float", "contains-int", "contains-float",
             "contains-list", "contains-set"],
    )
    def test_non_atom_constants_rejected(self, op, value):
        # The int 1 and the string "1" would share a sort key.
        with pytest.raises(ModelError):
            AtomicCondition(("type",), op, value)

    def test_running_example_rules_validate(self, cm):
        for rule in running_example()[1]:
            validate_rule(cm, rule)


class TestWsc:
    def test_singleton_condition(self):
        assert wsc(cond(["dept"], "CS")) == 2

    def test_negated_constraint(self):
        con = AtomicConstraint((), "in", ("patient", "COIs"), negated=True)
        assert wsc(con) == 3

    def test_handbook_rule(self):
        _, handbook = running_example()[1]
        assert wsc(handbook) == 3

    def test_policy_sums_rules(self, cm, om):
        rules = running_example()[1]
        policy = Policy(cm, om, frozenset({"read"}), rules)
        assert wsc(policy) == sum(wsc(r) for r in rules) == 6

    def test_negation_and_constants_increase_wsc(self):
        base = cond(["dept"], "CS")
        assert wsc(cond(["dept"], "CS", negated=True)) == wsc(base) + 1
        assert wsc(cond(["dept"], "CS", "EE")) == wsc(base) + 1


# A class model exercising every multiplicity, optional and many-valued
# paths, Boolean fields, every constraint operator, and a class (Room)
# that never has objects.
ORG_CM = ClassModel(
    {
        "Skill": {},
        "Dept": {"parent": FieldDecl("Dept", OPT)},
        "Emp": {
            "dept": FieldDecl("Dept", ONE),
            "skills": FieldDecl("Skill", MANY),
            "mentor": FieldDecl("Emp", OPT),
            "active": FieldDecl("Boolean", ONE),
        },
        "Task": {
            "dept": FieldDecl("Dept", ONE),
            "needs": FieldDecl("Skill", MANY),
            "focus": FieldDecl("Skill", OPT),
            "owner": FieldDecl("Emp", OPT),
            "team": FieldDecl("Emp", MANY),
            "urgent": FieldDecl("Boolean", ONE),
        },
        "Room": {"dept": FieldDecl("Dept", ONE)},
    }
)
ORG_SKILLS = ("s0", "s1", "s2")
ORG_DEPTS = ("d0", "d1")
ORG_CONDITIONS = {
    "Emp": (
        AtomicCondition(("dept",), "in", frozenset({"d0"})),
        AtomicCondition(("dept",), "in", frozenset({"d0", "d1"})),
        AtomicCondition(("dept", "parent"), "in", frozenset({"d1"})),
        AtomicCondition(("skills",), "contains", "s1"),
        AtomicCondition(("mentor",), "in", frozenset({"e0"})),
        AtomicCondition(("mentor", "skills"), "contains", "s2"),
        AtomicCondition(("mentor", "dept"), "in", frozenset({"d1"})),
        AtomicCondition(("active",), "in", frozenset({True})),
        AtomicCondition(("id",), "in", frozenset({"e1"})),
    ),
    "Task": (
        AtomicCondition(("dept",), "in", frozenset({"d0"})),  # also on Emp, Room
        AtomicCondition(("dept",), "in", frozenset({"d1"})),
        AtomicCondition(("needs",), "contains", "s0"),
        AtomicCondition(("focus",), "in", frozenset({"s1", "s2"})),
        AtomicCondition(("owner", "dept"), "in", frozenset({"d0"})),
        AtomicCondition(("team", "skills"), "contains", "s1"),
        AtomicCondition(("urgent",), "in", frozenset({False})),
    ),
    "Room": (AtomicCondition(("dept",), "in", frozenset({"d0"})),),
}
ORG_CONSTRAINTS = {
    ("Emp", "Task"): (
        AtomicConstraint(("dept",), "equal", ("dept",)),
        AtomicConstraint((), "equal", ("owner",)),
        AtomicConstraint(("dept",), "equal", ("owner", "dept")),
        AtomicConstraint((), "in", ("team",)),
        AtomicConstraint(("skills",), "contains", ("focus",)),
        AtomicConstraint(("skills",), "supseteq", ("needs",)),
        AtomicConstraint(("skills",), "subseteq", ("needs",)),
        AtomicConstraint(("mentor",), "in", ("team",)),
    ),
    ("Emp", "Emp"): (
        AtomicConstraint((), "equal", ()),
        AtomicConstraint(("mentor",), "equal", ()),
        AtomicConstraint(("dept",), "equal", ("dept",)),
        AtomicConstraint(("skills",), "supseteq", ("mentor", "skills")),
    ),
    ("Task", "Emp"): (
        AtomicConstraint(("team",), "contains", ()),
        AtomicConstraint(("needs",), "subseteq", ("skills",)),
    ),
    ("Emp", "Room"): (AtomicConstraint(("dept",), "equal", ("dept",)),),
}
ORG_ACTIONS = ("read", "write")
ORG_IDS = ("e0", "e1", "e2", "t0", "t1", "t2", "d0", "nobody")


@st.composite
def org_models(draw, max_objects=3, none_in_many=False):
    """Small random ORG_CM object models, with up to ``max_objects``
    employees and as many tasks; any field may be unknown.

    With ``none_in_many`` a many-valued field may also hold None, which
    :func:`validate_object_model` refuses but a path's value reads as the
    empty set; such a model is left unvalidated."""
    n_emp = draw(st.integers(0, max_objects))
    n_task = draw(st.integers(0, max_objects))
    emps = [f"e{i}" for i in range(n_emp)]

    def pick(options):
        return draw(st.sampled_from(tuple(options) + (UNKNOWN,)))

    def subset(pool):
        k = draw(st.integers(0, 5 if none_in_many else 4))
        if k == 0:
            return UNKNOWN
        if k == 5:
            return None
        return frozenset(draw(st.sets(st.sampled_from(pool))) if pool else ())

    objs = [ObjectInstance(s, "Skill", {}) for s in ORG_SKILLS]
    objs += [
        ObjectInstance(d, "Dept", {"parent": pick(ORG_DEPTS + (None,))})
        for d in ORG_DEPTS
    ]
    for e in emps:
        objs.append(ObjectInstance(e, "Emp", {
            "dept": pick(ORG_DEPTS),
            "skills": subset(ORG_SKILLS),
            "mentor": pick(tuple(emps) + (None,)),
            "active": pick((True, False)),
        }))
    for i in range(n_task):
        objs.append(ObjectInstance(f"t{i}", "Task", {
            "dept": pick(ORG_DEPTS),
            "needs": subset(ORG_SKILLS),
            "focus": pick(ORG_SKILLS + (None,)),
            "owner": pick(tuple(emps) + (None,)),
            "team": subset(tuple(emps)),
            "urgent": pick((True, False)),
        }))
    om = ObjectModel(objs)
    if not none_in_many:
        validate_object_model(ORG_CM, om)
    return om


@st.composite
def org_rules(draw):
    s_cls = draw(st.sampled_from(("Emp", "Task")))
    r_cls = draw(st.sampled_from(("Emp", "Task", "Room")))

    def atomics(pool):
        chosen = draw(st.lists(st.sampled_from(pool), max_size=2)) if pool else []
        return frozenset(
            ac if not draw(st.booleans()) else replace(ac, negated=True)
            for ac in chosen
        )

    def conditions(cls):
        # One in three sides also gets an identity condition naming ids of
        # that class, of another class, or of no object at all.
        if draw(st.integers(0, 2)):
            return atomics(ORG_CONDITIONS[cls])
        ids = draw(st.sets(st.sampled_from(ORG_IDS), min_size=1, max_size=3))
        identity = AtomicCondition(("id",), "in", frozenset(ids), draw(st.booleans()))
        return atomics(ORG_CONDITIONS[cls]) | {identity}

    rule = Rule(
        s_cls,
        conditions(s_cls),
        r_cls,
        conditions(r_cls),
        atomics(ORG_CONSTRAINTS.get((s_cls, r_cls), ())),
        frozenset(draw(st.sets(st.sampled_from(ORG_ACTIONS), min_size=1))),
    )
    validate_rule(ORG_CM, rule)
    return rule


def satisfying_tuples(cm, om, rule):
    """Oracle: every typed tuple that ``satisfies`` accepts."""
    return frozenset(
        t
        for s in om.objects()
        for r in om.objects()
        for a in ORG_ACTIONS + ("other",)
        for t in (SraTuple(s.id, r.id, a),)
        if satisfies(cm, om, t, rule)
    )


class TestRuleMeaningMatchesSatisfies:
    @settings(max_examples=200, deadline=None)
    @given(om=org_models(), rules=st.lists(org_rules(), min_size=1, max_size=4))
    def test_random_models_and_rules(self, om, rules):
        # Several rules per model, so later ones reuse cached masks.
        for rule in rules:
            assert rule_meaning(ORG_CM, om, rule) == satisfying_tuples(ORG_CM, om, rule)

    def test_class_without_objects_grants_nothing(self):
        om = ObjectModel([ObjectInstance("d0", "Dept", {"parent": None})])
        rule = Rule("Room", frozenset(), "Room", frozenset(), frozenset(),
                    frozenset({"read"}))
        assert rule_meaning(ORG_CM, om, rule) == frozenset()

    def test_masks_are_keyed_by_class(self):
        # One condition on two classes and one constraint on two class
        # pairs: each (class, atomic) gets its own mask.
        om = ObjectModel([
            ObjectInstance("d0", "Dept", {"parent": None}),
            ObjectInstance("d1", "Dept", {"parent": None}),
            ObjectInstance("e0", "Emp", {
                "dept": "d0", "skills": frozenset(), "mentor": None, "active": True,
            }),
            ObjectInstance("e1", "Emp", {
                "dept": "d1", "skills": frozenset(), "mentor": None, "active": True,
            }),
            ObjectInstance("t0", "Task", {
                "dept": "d1", "needs": frozenset(), "focus": None,
                "owner": None, "team": frozenset(), "urgent": False,
            }),
        ])
        in_d0 = AtomicCondition(("dept",), "in", frozenset({"d0"}))
        same_dept = AtomicConstraint(("dept",), "equal", ("dept",))
        rules = [
            Rule("Emp", frozenset({in_d0}), "Task", frozenset(), frozenset(),
                 frozenset({"read"})),
            Rule("Task", frozenset({in_d0}), "Emp", frozenset(), frozenset(),
                 frozenset({"read"})),
            Rule("Emp", frozenset(), "Task", frozenset(), frozenset({same_dept}),
                 frozenset({"read"})),
            Rule("Emp", frozenset(), "Emp", frozenset(), frozenset({same_dept}),
                 frozenset({"read"})),
        ]
        for rule in rules:
            assert rule_meaning(ORG_CM, om, rule) == satisfying_tuples(ORG_CM, om, rule)

    def test_models_never_share_cached_masks(self):
        def model(dept):
            return ObjectModel([
                ObjectInstance("d0", "Dept", {"parent": None}),
                ObjectInstance("d1", "Dept", {"parent": None}),
                ObjectInstance("e0", "Emp", {
                    "dept": dept, "skills": frozenset(), "mentor": None,
                    "active": True,
                }),
                ObjectInstance("t0", "Task", {
                    "dept": "d0", "needs": frozenset(), "focus": None,
                    "owner": None, "team": frozenset(), "urgent": False,
                }),
            ])

        first, second = model("d0"), model("d1")
        in_d0 = Rule(
            "Emp", frozenset({AtomicCondition(("dept",), "in", frozenset({"d0"}))}),
            "Task", frozenset(),
            frozenset({AtomicConstraint(("dept",), "equal", ("dept",))}),
            frozenset({"read"}),
        )
        granted = frozenset({SraTuple("e0", "t0", "read")})
        assert rule_meaning(ORG_CM, first, in_d0) == granted
        assert rule_meaning(ORG_CM, second, in_d0) == frozenset()
        assert rule_meaning(ORG_CM, first, in_d0) == granted
        assert first._planes is not second._planes
        assert first._planes != second._planes


def decoded(om, planes):
    """Oracle: the tuples a (subject type, resource type, action) -> pair
    plane mapping stands for, read bit by bit."""
    out = set()
    for (s_cls, r_cls, action), plane in planes.items():
        subjects, resources = om.objects_of(s_cls), om.objects_of(r_cls)
        assert plane >> (len(subjects) * len(resources)) == 0
        for i, s in enumerate(subjects):
            for j, r in enumerate(resources):
                if plane >> (i * len(resources) + j) & 1:
                    out.add(SraTuple(s.id, r.id, action))
    return frozenset(out)


SLOT_FIELDS = {
    Slot.SUBJECT: "subject_condition",
    Slot.RESOURCE: "resource_condition",
    Slot.CONSTRAINT: "constraint",
}


@st.composite
def org_model_and_au(draw):
    """An org model and a random typed subset of its tuples, over actions
    that include one ("other") that may never be granted."""
    om = draw(org_models())
    ids = [obj.id for obj in om.objects()]
    actions = ORG_ACTIONS + ("other",)
    tuples = [SraTuple(s, r, a) for s in ids for r in ids for a in actions]
    au = draw(st.sets(st.sampled_from(tuples), max_size=40))
    return om, frozenset(au)


@st.composite
def org_au_documents(draw):
    """An org model and a JSON authorization array over its objects: any
    triples, repeated ones included, over actions "read" and "write"."""
    om = draw(org_models())
    ids = [obj.id for obj in om.objects()]
    triples = [[s, r, a] for s in ids for r in ids for a in ORG_ACTIONS]
    document = draw(st.lists(st.sampled_from(triples), max_size=40))
    repeats = draw(st.lists(st.sampled_from(document), max_size=5)) if document else []
    return om, [list(t) for t in document + repeats]


@st.composite
def org_au_documents_any(draw):
    """An org model and a parsed JSON value for its authorizations: mostly
    arrays whose entries are lists or tuples of object ids and actions,
    repeated ones included; half of them also hold wrong lengths,
    non-strings, nulls and unknown ids, or are not arrays at all."""
    om = draw(org_models())
    ids = [obj.id for obj in om.objects()]
    known = st.sampled_from(ids)
    action = st.sampled_from(ORG_ACTIONS)
    triple = st.tuples(known, known, action)
    entry = st.one_of(triple.map(list), triple)
    if draw(st.booleans()):
        word = st.sampled_from(ids + ["ghost", "other"])
        element = st.one_of(word, st.none(), st.integers(-1, 1), st.booleans())
        odd = st.lists(element, max_size=4)
        entry = st.one_of(
            entry,
            st.lists(word, min_size=3, max_size=3),
            odd,
            odd.map(tuple),
            st.none(),
            st.text(max_size=3),
            st.just({}),
        )
    document = draw(st.one_of(st.lists(entry, max_size=8), st.just({"au": []})))
    if isinstance(document, list) and document:
        document += draw(st.lists(st.sampled_from(document), max_size=3))
    return om, document


def old_au_actions(document, om):
    """Reference: the old first pass, ``jsonio._au_actions``, as it was."""
    jsonio._require(
        isinstance(document, list), "authorizations: expected an array of triples"
    )
    ids = om._by_id
    actions: set[str] = set()
    add = actions.add
    for raw in document:
        if not (
            isinstance(raw, list)
            and len(raw) == 3
            and isinstance(raw[0], str)
            and isinstance(raw[1], str)
            and isinstance(raw[2], str)
        ):
            raise jsonio.SchemaError(f"authorizations: bad triple {raw!r}")
        if raw[0] not in ids:
            raise jsonio.SchemaError(f"authorizations: unknown subject {raw[0]}")
        if raw[1] not in ids:
            raise jsonio.SchemaError(f"authorizations: unknown resource {raw[1]}")
        add(raw[2])
    return frozenset(actions)


def old_au_planes(self):
    """Reference: the old second pass, ``AclPolicy.au_planes``, as it was."""
    om, actions = self.object_model, self.actions
    size = {cls: len(objects) for cls, objects in om._by_type.items()}
    place = om._place
    positions: dict[tuple[str, str, str], list[int]] = {}
    for t in self.triples:
        subject, resource, action = t
        try:
            (s_type, s_pos), (r_type, r_pos) = place[subject], place[resource]
        except KeyError:
            raise ModelError(
                f"authorization references unknown object: {SraTuple._make(t)}"
            ) from None
        if action not in actions:
            raise ModelError(
                f"authorization uses undeclared action: {SraTuple._make(t)}"
            )
        # PairLayout's row i*R + j, inlined: a layout lookup and an
        # (i, j) tuple per triple would cost more than the row itself.
        row = s_pos * size[r_type] + r_pos
        try:
            positions[s_type, r_type, action].append(row)
        except KeyError:
            positions[s_type, r_type, action] = [row]
    return MappingProxyType({
        (s, r, a): mask_of(rows, size[s] * size[r])
        for (s, r, a), rows in positions.items()
    })


def au_planes_by_tuples(om, au):
    """Oracle: the planes of a set of :class:`SraTuple`, built one tuple at
    a time as (subject type, resource type, action) -> bits."""
    size = {cls: len(om.objects_of(cls)) for cls in ORG_CM.classes}
    positions = {}
    for t in au:
        (s_type, s_pos), (r_type, r_pos) = om._place[t.subject], om._place[t.resource]
        positions.setdefault((s_type, r_type, t.action), []).append(
            s_pos * size[r_type] + r_pos
        )
    return {
        (s, r, a): mask_of(bits, size[s] * size[r]) for (s, r, a), bits in positions.items()
    }


def per_triple_au_planes(om, actions, triples):
    """Reference: ``AclPolicy.au_planes`` as a loop that checks each triple
    as it reads it, the first offending triple raising :class:`ModelError`."""
    size = {cls: len(objects) for cls, objects in om._by_type.items()}
    place = om._place
    positions: dict[tuple[str, str, str], list[int]] = {}
    for t in triples:
        if not (
            isinstance(t, (list, tuple))
            and len(t) == 3
            and isinstance(t[0], str)
            and isinstance(t[1], str)
            and isinstance(t[2], str)
        ):
            raise ModelError(f"authorizations: bad triple {t!r}")
        subject, resource, action = t
        try:
            (s_type, s_pos), (r_type, r_pos) = place[subject], place[resource]
        except KeyError:
            raise ModelError(
                f"authorization references unknown object: {SraTuple._make(t)}"
            ) from None
        if actions is not None and action not in actions:
            raise ModelError(
                f"authorization uses undeclared action: {SraTuple._make(t)}"
            )
        row = s_pos * size[r_type] + r_pos
        positions.setdefault((s_type, r_type, action), []).append(row)
    return {
        (s, r, a): mask_of(rows, size[s] * size[r])
        for (s, r, a), rows in positions.items()
    }


def per_object_validate(cm, om):
    """Reference: ``validate_object_model`` as a loop that looks each
    object's declarations and references up anew."""
    for obj in om.objects():
        if not cm.has_class(obj.type):
            raise ModelError(f"object {obj.id} has unknown type {obj.type}")
        declared = dict(cm.fields_of(obj.type))
        for name in obj.fields:
            if name not in declared:
                raise ModelError(f"object {obj.id} has undeclared field {name!r}")
        for name, decl in declared.items():
            if name not in obj.fields:
                raise ModelError(f"object {obj.id} is missing field {name!r}")
            value = obj.fields[name]
            if value is UNKNOWN:
                continue
            if decl.multiplicity is MANY:
                if not isinstance(value, frozenset):
                    raise ModelError(f"{obj.id}.{name}: many-valued field needs a set")
                if UNKNOWN in value:
                    raise ModelError(
                        f"{obj.id}.{name}: unknown cannot appear inside a stored set"
                    )
                for el in value:
                    _check_atom_reference(om, obj, name, decl, el)
            elif value is None:
                if decl.multiplicity is not OPT:
                    raise ModelError(f"{obj.id}.{name}: None needs multiplicity optional")
            else:
                _check_atom_reference(om, obj, name, decl, value)


def _check_atom_reference(om, obj, name, decl, value):
    if decl.type == "Boolean":
        if not isinstance(value, bool):
            raise ModelError(f"{obj.id}.{name}: expected a Boolean, got {value!r}")
    else:
        if not isinstance(value, str) or not om.has(value):
            raise ModelError(f"{obj.id}.{name}: dangling reference {value!r}")
        if om.get(value).type != decl.type:
            raise ModelError(
                f"{obj.id}.{name}: reference {value!r} has type "
                f"{om.get(value).type}, expected {decl.type}"
            )


def outcome(compute):
    """The result of ``compute()`` as a plain value, or its
    :class:`ModelError`'s text."""
    try:
        result = compute()
    except ModelError as exc:
        return f"ModelError: {exc}"
    return dict(result) if isinstance(result, MappingProxyType) else result


@st.composite
def org_triple_arrays(draw):
    """An org model, declared actions or None, and an array of triples:
    lists, tuples and :class:`SraTuple` of ids and actions, repeated ones
    included; in half the arrays also three-character strings, wrong
    lengths, non-string and unhashable fields, unknown ids and undeclared
    actions."""
    om = draw(org_models())
    ids = [obj.id for obj in om.objects()]
    declared = draw(st.sampled_from((None, frozenset(ORG_ACTIONS))))
    known = st.sampled_from(ids)  # every org model has its skills and depts
    field = st.sampled_from(ids + list(ORG_ACTIONS))
    action = st.sampled_from(ORG_ACTIONS + draw(st.sampled_from(((), ("delete",)))))
    if draw(st.booleans()):
        field = st.one_of(
            field,
            st.sampled_from(("ghost", "other", "e0x")),
            st.sampled_from((None, 3, True, 2.5, b"e0")),
            st.sampled_from(([], {}, ["e0"], frozenset({"e0"}))),
        )
        action = st.one_of(action, field)
        kinds = st.sampled_from(("list", "tuple", "sra", "text", "short", "long"))
    else:
        kinds = st.sampled_from(("list", "tuple", "sra"))

    @st.composite
    def entry(draw):
        kind = draw(kinds)
        if kind == "text":
            return draw(st.text(min_size=3, max_size=3))
        if kind in ("short", "long"):
            size = draw(st.integers(0, 2) if kind == "short" else st.integers(4, 5))
            return draw(st.lists(field, min_size=size, max_size=size))
        # known ids half the time or more, so arrays are often accepted
        triple = (draw(st.one_of(known, field)), draw(st.one_of(known, field)), draw(action))
        return {"list": list, "tuple": tuple, "sra": SraTuple._make}[kind](triple)

    array = draw(st.lists(entry(), max_size=12))
    if array:
        array += draw(st.lists(st.sampled_from(array), max_size=3))
    return om, declared, array


@st.composite
def org_models_with_faults(draw):
    """An org model whose objects carry up to three injected faults (an
    unknown type, an undeclared or missing field, a dangling or wrongly
    typed reference, a non-Boolean, a non-set in a many field, unknown
    inside a set, None on a one field), its objects given in a shuffled
    order so that document order is not id order."""
    objects = list(draw(org_models()).objects())
    values = st.sampled_from((
        "ghost", "s0", "d0", "e0", "t0", None, True, 1, "yes", UNKNOWN, ["s0"],
        frozenset({"s0", UNKNOWN}), frozenset({"ghost"}), frozenset({"d0"}),
        frozenset({"s0", "s1"}), frozenset({"e0"}),
    ))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(objects) - 1))
        obj = objects[k]
        fields = dict(obj.fields)
        fault = draw(st.sampled_from(("type", "undeclared", "missing") + ("value",) * 4))
        if fault == "type":
            obj = replace(obj, type="Ghost")
        elif fault == "undeclared":
            fields["extra"] = draw(values)
        elif fields:
            name = draw(st.sampled_from(sorted(fields)))
            if fault == "missing":
                del fields[name]
            else:
                fields[name] = draw(values)
        objects[k] = replace(obj, fields=fields)
    return ObjectModel(draw(st.permutations(objects)))


def fresh_sorted(rule, slot):
    """Oracle: one slot's atomics, sorted from scratch."""
    return sorted(getattr(rule, SLOT_FIELDS[slot]), key=lambda a: a.sort_key)


def assert_canonical(rule):
    """Every view :class:`Rule` caches equals its definition from scratch."""
    for atomic in rule.subject_condition | rule.resource_condition:
        assert atomic.sort_key == (
            atomic.path, atomic.op, atomic.negated, value_sort_key(atomic.value)
        )
    for atomic in rule.constraint:
        assert atomic.sort_key == (atomic.path1, atomic.op, atomic.path2, atomic.negated)
    assert rule.atomics() == tuple(
        (slot, a) for slot in Slot for a in fresh_sorted(rule, slot)
    )
    assert rule.sort_key == (
        rule.subject_type,
        rule.resource_type,
        tuple(sorted(c.sort_key for c in rule.subject_condition)),
        tuple(sorted(c.sort_key for c in rule.resource_condition)),
        tuple(sorted(c.sort_key for c in rule.constraint)),
        tuple(sorted(rule.actions)),
    )
    sc = "; ".join(c.text("subject") for c in fresh_sorted(rule, Slot.SUBJECT))
    rc = "; ".join(c.text("resource") for c in fresh_sorted(rule, Slot.RESOURCE))
    con = "; ".join(c.text() for c in fresh_sorted(rule, Slot.CONSTRAINT))
    assert rule.text() == (
        f"<{rule.subject_type}; {sc or 'true'}; {rule.resource_type}; {rc or 'true'};"
        f" {con or 'true'}; {{{','.join(sorted(rule.actions))}}}>"
    )
    assert jsonio.rule_to_json(rule) == {
        "subjectType": rule.subject_type,
        "subjectCondition": [
            jsonio._condition_to_json(c) for c in fresh_sorted(rule, Slot.SUBJECT)
        ],
        "resourceType": rule.resource_type,
        "resourceCondition": [
            jsonio._condition_to_json(c) for c in fresh_sorted(rule, Slot.RESOURCE)
        ],
        "constraint": [
            jsonio._constraint_to_json(c) for c in fresh_sorted(rule, Slot.CONSTRAINT)
        ],
        "actions": sorted(rule.actions),
    }
    assert wsc(rule) == rule.wsc == sum(
        wsc(a) for field in SLOT_FIELDS.values() for a in getattr(rule, field)
    ) + len(rule.actions)


def assert_derived(edited):
    """An edited rule's spliced caches equal those of the same rule built
    by its constructor, whose caches are computed from scratch."""
    rebuilt = Rule(
        edited.subject_type,
        edited.subject_condition,
        edited.resource_type,
        edited.resource_condition,
        edited.constraint,
        edited.actions,
    )
    assert edited == rebuilt
    assert edited.by_slot == rebuilt.by_slot
    assert edited.atomics() == rebuilt.atomics()
    assert all(type(slot) is Slot for slot, _ in edited.atomics())
    assert edited.sort_key == rebuilt.sort_key
    assert edited.wsc == rebuilt.wsc
    assert edited.wsc == sum(wsc(a) for _, a in rebuilt.atomics()) + len(rebuilt.actions)


class TestObjectModelMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(om=org_models_with_faults())
    def test_validation_matches_the_per_object_reference(self, om):
        # Same error text, or both accept: objects are checked in id order
        # whatever order they were given in.
        got = outcome(lambda: validate_object_model(ORG_CM, om))
        assert got == outcome(lambda: per_object_validate(ORG_CM, om))


class TestRuleCanonicalOrder:
    @settings(max_examples=200, deadline=None)
    @given(rule=org_rules(), data=st.data())
    def test_cached_views_and_edits(self, rule, data):
        assert_canonical(rule)
        assert_canonical(rule)  # a second read returns the cached values
        for slot, atomic in rule.atomics():
            field = SLOT_FIELDS[slot]
            shrunk = rule.without_atomic(slot, atomic)
            assert shrunk == replace(rule, **{field: getattr(rule, field) - {atomic}})
            assert_canonical(shrunk)
            assert_derived(shrunk)
            # Removing an absent atomic or adding a present one: no change.
            assert_derived(shrunk.without_atomic(slot, atomic))
            assert shrunk.without_atomic(slot, atomic) == shrunk
            assert_derived(rule.with_atomic(slot, atomic))
            assert rule.with_atomic(slot, atomic) == rule
            # Putting it back derives the parent's caches from the child's.
            regrown = shrunk.with_atomic(slot, atomic)
            assert regrown == rule
            assert_derived(regrown)
            if slot is not Slot.CONSTRAINT:
                rest = miner._value_set_merge_key(rule, slot, atomic)[0]
                assert rest == shrunk.sort_key
        # A chain of edits, each derived from the last one's caches.
        chained = rule
        for slot, atomic in data.draw(st.permutations(rule.atomics())):
            chained = chained.without_atomic(slot, atomic)
            assert_derived(chained)
        pools = {
            Slot.SUBJECT: ORG_CONDITIONS[rule.subject_type],
            Slot.RESOURCE: ORG_CONDITIONS[rule.resource_type],
            Slot.CONSTRAINT: ORG_CONSTRAINTS.get((rule.subject_type, rule.resource_type)),
        }
        for slot, pool in pools.items():
            if pool:
                atomic = data.draw(st.sampled_from(pool))
                field = SLOT_FIELDS[slot]
                grown = rule.with_atomic(slot, atomic)
                assert grown == replace(rule, **{field: getattr(rule, field) | {atomic}})
                assert_canonical(grown)
                assert_derived(grown)
                if atomic not in getattr(rule, field):
                    assert rule.without_atomic(slot, atomic) == rule
                    assert_derived(rule.without_atomic(slot, atomic))
                chained = chained.with_atomic(slot, atomic)
                assert_derived(chained)


class TestPlanes:
    @settings(max_examples=200, deadline=None)
    @given(data=org_model_and_au())
    def test_au_planes_decode_to_au(self, data):
        om, au = data
        acl = AclPolicy(ORG_CM, om, frozenset(ORG_ACTIONS + ("other",)), au)
        planes = acl.au_planes
        assert all(planes.values())
        for s_cls, r_cls, _ in planes:
            assert om.objects_of(s_cls) and om.objects_of(r_cls)
        assert decoded(om, planes) == au
        assert acl.au_planes is planes

    @settings(max_examples=200, deadline=None)
    @given(data=org_au_documents())
    def test_au_read_into_planes_matches_per_tuple_loop(self, data):
        om, document = data
        acl = jsonio.acl_from_documents(
            jsonio.class_model_to_json(ORG_CM), jsonio.object_model_to_json(om), document
        )
        au = frozenset(map(SraTuple._make, document))
        assert acl.actions == {action for _, _, action in document}
        assert acl.au == au
        want = au_planes_by_tuples(acl.object_model, au)
        assert dict(acl.au_planes) == want
        # Declared but never granted: no plane; the tuple set gives the same.
        declared = frozenset(ORG_ACTIONS + ("other",))
        for triples in (document, au):
            assert dict(AclPolicy(ORG_CM, om, declared, triples).au_planes) == want

    @settings(max_examples=300, deadline=None)
    @given(data=org_au_documents_any())
    def test_one_pass_reader_matches_the_two_pass_reference(self, data):
        # The reference reads the document with tuple triples made lists:
        # the one-pass reader takes a tuple triple as the equal list.
        om, document = data
        cm_doc, om_doc = jsonio.class_model_to_json(ORG_CM), jsonio.object_model_to_json(om)
        try:
            acl = jsonio.acl_from_documents(cm_doc, om_doc, document)
        except jsonio.SchemaError:
            acl = None
        as_lists = document
        if isinstance(document, list):
            as_lists = [list(t) if isinstance(t, tuple) else t for t in document]
        try:
            ref_om = jsonio.object_model_from_json(om_doc, ORG_CM)
            ref = AclPolicy(ORG_CM, ref_om, old_au_actions(as_lists, ref_om), as_lists)
            ref_planes = old_au_planes(ref)
        except (jsonio.SchemaError, ModelError):
            ref = None
        assert (acl is None) == (ref is None)
        if acl is not None:
            assert acl.actions == ref.actions
            assert acl.au_planes == ref_planes
            assert acl.au == ref.au

    @settings(max_examples=400, deadline=None)
    @given(data=org_triple_arrays())
    def test_bulk_reader_matches_the_per_triple_reference(self, data):
        # Same planes or the same error text: the bulk checks must name
        # the first offending triple, as the per-triple loop does.
        om, declared, array = data
        got = outcome(lambda: AclPolicy(ORG_CM, om, declared, array).au_planes)
        assert got == outcome(lambda: per_triple_au_planes(om, declared, array))
        if declared is None and isinstance(got, dict):
            acl = AclPolicy(ORG_CM, om, None, array)
            assert acl.actions == {action for _, _, action in got}

    def test_triples_checked_with_the_tuple_texts(self):
        om = ObjectModel([ObjectInstance("d0", "Dept", {"parent": None})])
        for triple, text in (
            (["d0", "ghost", "read"], "authorization references unknown object"),
            (["d0", "d0", "delete"], "authorization uses undeclared action"),
        ):
            acl = AclPolicy(ORG_CM, om, frozenset(ORG_ACTIONS), [["d0", "d0", "read"], triple])
            with pytest.raises(ModelError) as exc:
                acl.au_planes
            assert str(exc.value) == f"{text}: {SraTuple(*triple)}"

    def test_au_planes_of_an_empty_au(self):
        om = ObjectModel([ObjectInstance("d0", "Dept", {"parent": None})])
        acl = AclPolicy(ORG_CM, om, frozenset(ORG_ACTIONS), frozenset())
        assert dict(acl.au_planes) == {}

    @settings(max_examples=200, deadline=None)
    @given(om=org_models(), rules=st.lists(org_rules(), max_size=4))
    def test_policy_meaning_decodes_to_meaning(self, om, rules):
        planes = policy_planes(rules, partial(rule_plane, ORG_CM, om))
        assert all(planes.values())
        assert decoded(om, planes) == frozenset().union(
            *(rule_meaning(ORG_CM, om, rule) for rule in rules)
        )

    @settings(max_examples=200, deadline=None)
    @given(om=org_models(), rules=st.lists(org_rules(), max_size=4))
    def test_meaning_is_union_of_rule_meanings(self, om, rules):
        policy = Policy(ORG_CM, om, frozenset(ORG_ACTIONS), tuple(rules))
        assert meaning(policy) == frozenset().union(
            *(rule_meaning(ORG_CM, om, rule) for rule in rules)
        )

    @settings(max_examples=200, deadline=None)
    @given(om=org_models(), rules=st.lists(org_rules(), max_size=4), data=st.data())
    def test_meaning_mismatch_names_smallest_differences(self, om, rules, data):
        granted = frozenset().union(*(rule_meaning(ORG_CM, om, rule) for rule in rules))
        universe = sorted(
            SraTuple(s.id, r.id, a)
            for s_cls in ("Emp", "Task")
            for r_cls in ("Emp", "Task", "Room")
            for s in om.objects_of(s_cls)
            for r in om.objects_of(r_cls)
            for a in ORG_ACTIONS
        )
        # The AU is the granted set with a few tuples flipped, so equal
        # sets and one-sided differences are both common.
        flips = data.draw(st.sets(st.sampled_from(universe), max_size=4)) if universe else ()
        au = granted.symmetric_difference(flips)
        acl = AclPolicy(ORG_CM, om, frozenset(ORG_ACTIONS), au)
        planes = policy_planes(rules, partial(rule_plane, ORG_CM, om))
        missing, extra = meaning_mismatch(om, planes, acl.au_planes)
        assert missing == min(au - granted, default=None)
        assert extra == min(granted - au, default=None)


def plane_cells(planes, size):
    """Oracle: the truth values a (T, F) plane pair stands for, bit by bit."""
    t, f = planes
    assert not t & f and not (t | f) >> size
    return [T if t >> k & 1 else F if f >> k & 1 else U for k in range(size)]


class TestSlotPlanesMatchTval:
    # Up to ten objects per class, so masks cross a byte boundary.
    @settings(max_examples=100, deadline=None)
    @given(om=org_models(max_objects=10))
    def test_every_org_atomic(self, om):
        # ORG_CONDITIONS has multi-atom "in" sets and one path (dept) on two
        # classes with objects; the enumerated conditions add every observed
        # constant, identity conditions and an "in" on a many Boolean path.
        limits = ExtractionLimits(include_id_conditions=True)
        for cls in ("Emp", "Task", "Room"):
            objects = om.objects_of(cls)
            conditions = ORG_CONDITIONS[cls]
            conditions += enumerate_condition_features(ORG_CM, om, cls, limits)
            for ac in conditions:
                want = [tval_condition(ORG_CM, om, o.id, ac) for o in objects]
                # Two class pairs per slot, Emp x Emp among them: the pair
                # layout's memo must tell the class pairs apart.
                for slot, s_cls, r_cls in (
                    (Slot.SUBJECT, cls, "Task"),
                    (Slot.SUBJECT, cls, "Emp"),
                    (Slot.RESOURCE, "Emp", cls),
                    (Slot.RESOURCE, "Task", cls),
                ):
                    # Pair k = i*|R| + j holds subject i's or resource j's cell.
                    n_s, n_r = len(om.objects_of(s_cls)), len(om.objects_of(r_cls))
                    side = [divmod(k, n_r)[slot] for k in range(n_s * n_r)]
                    planes = pair_planes(ORG_CM, om, s_cls, r_cls, slot, ac)
                    assert plane_cells(planes, n_s * n_r) == [want[i] for i in side], (
                        slot, s_cls, r_cls, ac,
                    )
        for (s_cls, r_cls), constraints in ORG_CONSTRAINTS.items():
            pairs = [
                (s.id, r.id) for s in om.objects_of(s_cls) for r in om.objects_of(r_cls)
            ]
            for con in constraints:
                want = [tval_constraint(ORG_CM, om, s, r, con) for s, r in pairs]
                planes = pair_planes(ORG_CM, om, s_cls, r_cls, Slot.CONSTRAINT, con)
                assert plane_cells(planes, len(pairs)) == want, (s_cls, r_cls, con)


def stored_constants(cm, om, start, path):
    """Oracle for observed_constants: a scan of the atoms stored in the
    path's terminal field on the class owning it."""
    owner = path_type(cm, start, path[:-1])[0]
    atoms = set()
    for obj in om.objects_of(owner):
        value = om.field_value(obj.id, path[-1])
        if value is UNKNOWN or value is None:
            continue
        if isinstance(value, frozenset):
            atoms |= value
        else:
            atoms.add(value)
    return atoms


def index_from_nav(cm, om, cls, path):
    """Oracle for value_index: every field of the index recomputed from
    :func:`nav`, object by object."""
    objects = om.objects_of(cls)
    values = tuple(nav(cm, om, o.id, path) for o in objects)
    many = path_type(cm, cls, path)[1] is Multiplicity.MANY
    by, unknown = {}, 0
    for i, value in enumerate(values):
        for atom in value if many else (value,):
            if atom is UNKNOWN:
                unknown |= 1 << i
            else:
                by[atom] = by.get(atom, 0) | 1 << i
    return values, by, unknown, (1 << len(objects)) - 1, many


class TestValueIndexMatchesNav:
    # Paths of up to three hops over ORG_CM cross many-valued hops (skills,
    # needs, team) and reach None (Dept.parent, Emp.mentor, Task.owner) or
    # UNKNOWN in their middle: longer paths' indexes are composed from
    # shorter ones, which this compares with navigation from scratch by
    # the oracle's own navigator.  A many field may hold None too, so the
    # index's one-hop read of it as the empty set is checked as well.
    @settings(max_examples=50, deadline=None)
    @given(om=org_models(max_objects=10, none_in_many=True))
    def test_values_and_observed_constants(self, om):
        for cls in sorted(ORG_CM.classes):
            for path in ((),) + enumerate_paths(ORG_CM, cls, 3):
                index = value_index(ORG_CM, om, cls, path)
                want = index_from_nav(ORG_CM, om, cls, path)
                assert tuple(index) == want, path
                if path:
                    assert observed_constants(ORG_CM, om, cls, path) == stored_constants(
                        ORG_CM, om, cls, path
                    ), path
