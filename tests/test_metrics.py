import pytest
from hypothesis import given, settings, strategies as st

from rebac_miner.metrics import (
    compare_policies,
    jaccard,
    semantic_similarity,
    syn_condition_sets,
    syn_policy,
    syn_rule,
    syn_sim_atomic_condition,
)
from rebac_miner.model import (
    AtomicCondition,
    ObjectModel,
    Policy,
    Rule,
)
from tests.conftest import running_example
from tests.test_model import (
    ORG_ACTIONS,
    ORG_CM,
    org_rules,
)


def cond(path, *atoms, negated=False):
    return AtomicCondition(tuple(path), "in", frozenset(atoms), negated=negated)


def rule(sc=(), rc=(), cons=(), actions=("read",), st="Student", rt="Document"):
    return Rule(
        st, frozenset(sc), rt, frozenset(rc), frozenset(cons), frozenset(actions)
    )


class TestJaccard:
    def test_formula(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_identical_sets(self):
        s = frozenset({"x", "y"})
        assert jaccard(s, s) == 1.0

    def test_single_values(self):
        assert jaccard("v", "v") == 1.0
        assert jaccard("v", "w") == 0.0

    def test_empty_sets_score_one(self):
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_symmetry(self):
        a, b = {"x"}, {"x", "y", "z"}
        assert jaccard(a, b) == jaccard(b, a)

    @given(
        st.frozensets(st.integers(0, 9), max_size=8),
        st.frozensets(st.integers(0, 9), max_size=8),
    )
    def test_bounded_symmetric_and_exact_on_equal(self, a, b):
        score = jaccard(a, b)
        assert 0.0 <= score <= 1.0
        assert score == jaccard(b, a)
        assert jaccard(a, a) == 1.0
        if score == 1.0:
            assert a == b


class TestAtomicSimilarity:
    def test_identical(self):
        assert syn_sim_atomic_condition(cond(["dept"], "CS"), cond(["dept"], "CS")) == 1.0

    def test_value_overlap(self):
        got = syn_sim_atomic_condition(
            cond(["dept"], "CS"), cond(["dept"], "CS", "EE")
        )
        assert got == pytest.approx(5 / 6)

    def test_path_mismatch_scores_zero(self):
        assert syn_sim_atomic_condition(cond(["dept"], "CS"), cond(["type"], "CS")) == 0.0

    def test_sign_mismatch(self):
        got = syn_sim_atomic_condition(
            cond(["dept"], "CS"), cond(["dept"], "CS", negated=True)
        )
        assert got == pytest.approx(2 / 3)


class TestConditionSets:
    def test_both_empty(self):
        assert syn_condition_sets((), ()) == 1.0

    def test_identical_singletons(self):
        assert syn_condition_sets((cond(["dept"], "CS"),), (cond(["dept"], "CS"),)) == 1.0

    def test_disjoint_paths(self):
        got = syn_condition_sets((cond(["dept"], "CS"),), (cond(["type"], "H"),))
        assert got == 0.0

    def test_each_path_scores_its_best_pair(self):
        # Two conditions on one path: the best pair counts, not the sum.
        two = (cond(["type"], "H"), cond(["type"], "M", negated=True))
        assert syn_condition_sets(two, two) == 1.0
        one = (cond(["type"], "H"),)
        assert syn_condition_sets(two, one) == syn_condition_sets(one, two) == 1.0
        # A path only one side constrains scores 0.
        assert syn_condition_sets(two + (cond(["dept"], "CS"),), two) == 0.5


class TestRuleSimilarity:
    def test_identical(self):
        _, (r1, r2) = running_example()
        assert syn_rule(r1, r1) == 1.0
        assert syn_rule(r2, r2) == 1.0

    def test_action_difference_only(self):
        r1 = rule(actions=("read",))
        r2 = rule(actions=("read", "write"))
        assert syn_rule(r1, r2) == pytest.approx(11 / 12)

    def test_type_mismatch_components(self):
        r1 = rule(st="Student", rt="Document")
        r2 = rule(st="Department", rt="DocType")
        assert syn_rule(r1, r2) == pytest.approx(4 / 6)


class TestPolicyLevel:
    def make_policy(self, rules):
        acl, _ = running_example()
        return Policy(acl.class_model, acl.object_model, acl.actions, tuple(rules))

    def test_policy_vs_itself(self):
        p = self.make_policy(running_example()[1])
        assert syn_policy(p, p) == 1.0
        assert semantic_similarity(p, p) == 1.0

    def test_empty_vs_nonempty(self):
        p = self.make_policy(running_example()[1])
        empty = self.make_policy(())
        assert syn_policy(empty, p) == 0.0
        assert syn_policy(p, empty) == 0.0
        assert syn_policy(empty, empty) == 1.0
        assert semantic_similarity(empty, p) == 0.0

    def test_disjoint_meanings_score_zero(self):
        _, (same_dept, handbook) = running_example()
        assert semantic_similarity(
            self.make_policy((same_dept,)), self.make_policy((handbook,))
        ) == 0.0

    def test_asymmetry_is_deliberate(self):
        _, (r1, r2) = running_example()
        p_both = self.make_policy((r1, r2))
        p_one = self.make_policy((r1,))
        assert syn_policy(p_one, p_both) == 1.0
        assert syn_policy(p_both, p_one) < 1.0

    def test_report_fields(self):
        p = self.make_policy(running_example()[1])
        report = compare_policies(p, p)
        assert report.syntactic == 1.0
        assert report.semantic == 1.0
        assert report.wsc_mined == report.wsc_reference == 6
        assert all(score == 1.0 for _, _, score in report.per_rule_best_match)


class TestScoreRange:
    @settings(max_examples=200, deadline=None)
    @given(
        rules1=st.lists(org_rules(), max_size=4),
        rules2=st.lists(org_rules(), max_size=4),
    )
    def test_scores_lie_in_unit_interval(self, rules1, rules2):
        # org_rules may put two conditions on one path (dept in {d0} and
        # dept in {d0,d1}).
        p1, p2 = (
            Policy(ORG_CM, ObjectModel(()), frozenset(ORG_ACTIONS), tuple(rules))
            for rules in (rules1, rules2)
        )
        for r1 in rules1:
            for r2 in rules2:
                assert 0.0 <= syn_rule(r1, r2) <= 1.0
        assert 0.0 <= syn_policy(p1, p2) <= 1.0
