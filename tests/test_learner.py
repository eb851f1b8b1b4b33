import random

import pytest
from hypothesis import given, settings, strategies as st

from rebac_miner import jsonio, learner
from rebac_miner.learner import (
    DefaultCovers,
    FailedFeatures,
    IdStrategy,
    LearnResult,
    LearningError,
    cover_rest,
    eliminate_unknown_literal,
    learn_formula,
)
from rebac_miner.tvl import (
    Conjunction,
    DnfFormula,
    FeatureId,
    FeatureVector,
    Literal,
    Polarity,
    TruthValue,
    conjunction_rows,
    dnf_rows,
    literal_rows,
)
from tests import reference_learner as reference
from tests.conftest import make_dataset
from tests.oracles import eval_conjunction, eval_dnf

F, U, T = TruthValue.F, TruthValue.U, TruthValue.T


def lit(f, polarity=Polarity.POSITIVE):
    return Literal(f, polarity)


def brute_force_eval(formula, vector):
    """Minimal independent evaluator used to cross-check learner output."""
    best = F
    for conj in formula.disjuncts:
        worst = T
        for literal in conj.literals:
            cell = vector[literal.feature]
            if literal.polarity is Polarity.POSITIVE:
                value = cell
            elif literal.polarity is Polarity.NEGATIVE:
                value = TruthValue(2 - cell)
            else:
                value = T if cell is U else F
            worst = min(worst, value)
        best = max(best, worst)
    return best


class TestConfig:
    def test_max_iter_validated(self, example_dataset, monkeypatch):
        def no_tree(*args, **kwargs):
            raise AssertionError("a tree was grown")

        monkeypatch.setattr(learner, "build_tree", no_tree)
        with pytest.raises(ValueError, match="max_iter"):
            learn_formula(example_dataset, max_iter=0)


def per_feature_cover(dataset, row):
    """The cover conjunction as it was made with one plane lookup per
    feature and polarity, kept as an oracle."""
    bit = 1 << row
    value = {Polarity.POSITIVE: T, Polarity.NEGATIVE: F}

    def rows_with(pair, cell, rows):
        t, f = pair
        return rows & (t if cell is T else f)

    return Conjunction.of(
        Literal(feature, polarity)
        for feature in dataset.features
        for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE)
        if rows_with(dataset.planes[feature.index], value[polarity], bit)
    )


def default_cover_conjunction(dataset, row):
    """The default cover of one row, made as :func:`cover_rest` makes it."""
    return DefaultCovers(dataset, 1 << row).conjunctions()[0]


class TestDefaultCoverConjunction:
    def test_direct(self):
        features = tuple(FeatureId(i, f"f{i}", 1) for i in range(3))
        ds = make_dataset(features, (((T, F, U), T),))
        conj = default_cover_conjunction(ds, 0)
        assert conj == Conjunction.of(
            [lit(features[0]), lit(features[1], Polarity.NEGATIVE)]
        )

    def test_all_unknown_is_empty(self):
        features = (FeatureId(0),)
        ds = make_dataset(features, (((U,), T),))
        assert default_cover_conjunction(ds, 0) == Conjunction()

    def test_example_row4(self, example_dataset):
        conj = default_cover_conjunction(example_dataset, 3)
        assert conj == Conjunction.of([lit(example_dataset.features[2])])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_per_feature_cover(self, data):
        # All chosen rows are decoded at once; each row's cover and its
        # rows are those of the row on its own.
        n_feat = data.draw(st.integers(0, 6))
        codes = st.sampled_from((F, U, T))
        rows = data.draw(st.lists(
            st.tuples(st.tuples(*[codes] * n_feat), codes),
            min_size=1,
            max_size=70,
        ))
        ds = make_dataset(tuple(FeatureId(i) for i in range(n_feat)), rows)
        chosen = data.draw(st.sets(st.integers(0, len(rows) - 1)))
        covers = DefaultCovers(ds, sum(1 << k for k in chosen))
        assert list(covers.rows) == sorted(chosen)
        for k, conj in zip(covers.rows, covers.conjunctions()):
            assert conj == per_feature_cover(ds, k)
            assert conj == reference.default_cover_conjunction(ds, k)
            assert covers.rows[k] == conjunction_rows(conj, ds)
            assert eval_conjunction(conj, ds.rows[k].vector) is T


class TestEliminateUnknownLiteral:
    def test_plain_removal_on_example(self, example_dataset):
        handbook, constraint = example_dataset.features[2], example_dataset.features[3]
        conj = Conjunction.of(
            [lit(handbook, Polarity.IS_UNKNOWN), lit(constraint)]
        )
        out = eliminate_unknown_literal(conj, example_dataset, 0, example_dataset.all_rows)
        assert out == Conjunction.of([lit(constraint)])

    def test_removal_invalid_then_replacement(self):
        # Dropping is-unknown(f0) leaves the always-T conjunction, invalid
        # because an F row exists; f1 works as the replacement.
        f0, f1 = FeatureId(0, "f0", 1), FeatureId(1, "f1", 1)
        ds = make_dataset(
            (f0, f1),
            (((U, T), T), ((T, F), F)),
        )
        conj = Conjunction.of([lit(f0, Polarity.IS_UNKNOWN)])
        out = eliminate_unknown_literal(conj, ds, 0, ds.all_rows)
        assert out == Conjunction.of([lit(f1)])

    def test_exhaustion_reports_features(self):
        f0 = FeatureId(0, "f0", 1)
        ds = make_dataset(
            (f0,),
            (((U,), T), ((T,), F), ((F,), F)),
        )
        conj = Conjunction.of([lit(f0, Polarity.IS_UNKNOWN)])
        out = eliminate_unknown_literal(conj, ds, 0, ds.all_rows)
        assert out == FailedFeatures(frozenset({f0}))


@st.composite
def replacement_problems(draw):
    """A dataset whose feature costs come from a small range, so costs tie,
    and a conjunction over some of its features with an is-unknown
    literal among others of any polarity."""
    n = draw(st.integers(1, 8))
    features = tuple(FeatureId(i, f"f{i}", draw(st.integers(1, 3))) for i in range(n))
    ds = make_dataset(features, (((U,) * n, T),))
    chosen = draw(st.lists(st.sampled_from(features), min_size=1, unique=True))
    polarities = [Polarity.IS_UNKNOWN]
    polarities += [draw(st.sampled_from(Polarity)) for _ in chosen[1:]]
    return ds, Conjunction.of(map(Literal, chosen, polarities))


class TestReplacementOrder:
    @settings(max_examples=200, deadline=None)
    @given(problem=replacement_problems())
    def test_free_features_cheapest_first_positive_before_negative(self, problem):
        ds, conjunction = problem
        assert ds.by_cost == tuple(sorted(ds.features, key=lambda f: (f.cost, f.index)))
        used = conjunction.feature_indices()
        free = [f for f in ds.features if f.index not in used]
        polarities = (Polarity.POSITIVE, Polarity.NEGATIVE)
        expected = sorted(
            (Literal(f, p) for f in free for p in polarities),
            key=lambda l: (l.polarity.value, l.feature.cost, l.feature.index),
        )
        walked = list(learner._replacement_candidates(ds, used))
        assert [Literal(f, p) for f, p, _ in walked] == expected
        assert [plane for _, _, plane in walked] == [literal_rows(l, ds) for l in expected]
        assert expected == list(reference._replacement_literals(conjunction, ds))


class TestLearnFormula:
    def test_running_example(self, example_dataset):
        handbook, constraint = example_dataset.features[2], example_dataset.features[3]
        result = learn_formula(example_dataset)
        assert result.formula == DnfFormula.of(
            [Conjunction.of([lit(handbook)]), Conjunction.of([lit(constraint)])]
        )
        assert result.used_fallback is False
        assert result.iterations == 1
        assert result.blacklisted == frozenset()

    def test_no_t_rows_empty_formula(self):
        f0 = FeatureId(0)
        ds = make_dataset((f0,), (((T,), F), ((U,), F)))
        result = learn_formula(ds)
        assert result.formula == DnfFormula()
        assert result.iterations == 0

    def test_two_feature_disjunction(self):
        f0, f1 = FeatureId(0, "f0", 1), FeatureId(1, "f1", 1)
        ds = make_dataset(
            (f0, f1),
            (
                ((T, F), T),
                ((F, T), T),
                ((F, F), F),
                ((T, T), T),
            ),
        )
        result = learn_formula(ds)
        want = DnfFormula.of([Conjunction.of([lit(f0)]), Conjunction.of([lit(f1)])])
        for row in ds.rows:
            got = eval_dnf(result.formula, row.vector)
            assert (got is T) == (eval_dnf(want, row.vector) is T)
            assert (got is T) == (row.label is T)

    def test_result_has_no_unknown_literals(self, example_dataset):
        formula = learn_formula(example_dataset).formula
        assert not any(c.unknown_literals() for c in formula.disjuncts)

    def test_non_monotonic_without_features_raises(self):
        # Identical vectors, contradictory labels: no formula can separate.
        f0 = FeatureId(0)
        ds = make_dataset(
            (f0,),
            (((U,), T), ((U,), F)),
        )
        with pytest.raises(LearningError) as err:
            learn_formula(ds)
        assert err.value.index == 1 and err.value.row.label is F

    def test_blacklist_then_fallback_covers_remaining_rows(self):
        # The only T path is the is-unknown edge of f0; dropping the test is
        # invalid and every replacement literal grants an F row, so f0 gets
        # blacklisted and the T row is covered by its per-vector conjunction.
        f0, f1, f2 = (FeatureId(i, f"f{i}", 1) for i in range(3))
        ds = make_dataset(
            (f0, f1, f2),
            (
                ((U, T, F), T),
                ((T, T, T), F),
                ((F, F, T), F),
                ((T, F, F), F),
            ),
        )
        result = learn_formula(ds, max_iter=1)
        assert result.used_fallback is True
        assert result.blacklisted == frozenset({f0})
        assert result.formula == DnfFormula.of(
            [Conjunction.of([lit(f1), lit(f2, Polarity.NEGATIVE)])]
        )
        for row in ds.rows:
            assert (eval_dnf(result.formula, row.vector) is T) == (row.label is T)

    def test_determinism(self, example_dataset):
        a = learn_formula(example_dataset)
        b = learn_formula(example_dataset)
        assert a == b


class TestCoverRest:
    def test_custom_supplier_covers_failed_attempt(self):
        # Force total coverage failure in the tree phase: a single feature,
        # U-valued on every row.  The first attempt's per-vector cover is
        # empty, so it grants the F row too and fails.
        f0 = FeatureId(0, "f0", 1)
        extra = FeatureId(1, "row-tag", 1)
        rows = (((U, T), T), ((U, F), F))
        narrow = make_dataset((f0,), tuple((cells[:1], label) for cells, label in rows))
        with pytest.raises(LearningError) as err:
            learn_formula(narrow, max_iter=1)
        # The same rows with one more column that the supplier can use.
        ds = make_dataset((f0, extra), rows)
        calls = []

        def supplier(row):
            calls.append(row)
            return Conjunction.of([lit(extra)])

        learned = err.value.learned
        result = cover_rest(learned, dnf_rows(learned.formula, ds), ds, supplier)
        assert calls == [0]
        assert result.used_fallback is True
        assert result.formula == DnfFormula.of([Conjunction.of([lit(extra)])])
        assert result.iterations == err.value.learned.iterations == 1

    @pytest.mark.parametrize(
        "cells, wrong, message",
        [
            ((U, F), 0, "formula does not grant row 0 (labeled T)"),
            ((T, T), 1, "formula would grant row 1 (labeled F)"),
        ],
        ids=["misses-its-row", "grants-f-row"],
    )
    def test_failure_names_the_misevaluated_row(self, cells, wrong, message):
        f0 = FeatureId(0, "f0", 1)
        ds = make_dataset(
            (f0,), ((cells[:1], T), (cells[1:], F))
        )
        learned = LearnResult(DnfFormula(), False, frozenset(), 1)
        with pytest.raises(LearningError) as err:
            cover_rest(learned, 0, ds, lambda row: Conjunction.of([lit(f0)]))
        assert err.value.index == wrong and err.value.row == ds.rows[wrong]
        assert err.value.learned is learned
        assert str(err.value) == message

    def test_failure_indexes_a_csv_row_among_equal_ones(self):
        # Rows 1 and 3 hold the same cells and label; the T row between
        # them has no cell to cover, so its empty cover grants row 1 first.
        ds = jsonio.dataset_from_csv("f0,label\nT,T\nU,F\nU,T\nU,F\n")
        with pytest.raises(LearningError) as err:
            learn_formula(ds)
        assert err.value.index == 1
        assert err.value.row == ds.rows[1] == ds.rows[3]


def random_monotonic_dataset(rng, max_features=5, max_rows=30):
    """Labels come from a random formula, so the dataset is monotonic and
    always exactly learnable."""
    n = rng.randint(1, max_features)
    features = tuple(FeatureId(i, f"f{i}", rng.randint(1, 4)) for i in range(n))
    conjs = []
    for _ in range(rng.randint(1, 3)):
        chosen = rng.sample(features, rng.randint(1, n))
        conjs.append(
            Conjunction.of(
                [
                    Literal(f, rng.choice((Polarity.POSITIVE, Polarity.NEGATIVE)))
                    for f in chosen
                ]
            )
        )
    formula = DnfFormula.of(conjs)
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        cells = tuple(rng.choice((F, U, T)) for _ in range(n))
        vector = FeatureVector(cells)
        rows.append((cells, eval_dnf(formula, vector)))
    return make_dataset(features, tuple(rows))


class TestLearnerOracle:
    def test_random_monotonic_datasets_learned_exactly(self):
        rng = random.Random(2024)
        for _ in range(200):
            ds = random_monotonic_dataset(rng)
            result = learn_formula(ds)
            for row in ds.rows:
                got = brute_force_eval(result.formula, row.vector)
                assert (got is T) == (row.label is T)

    def test_monotonic_datasets_never_raise(self):
        rng = random.Random(77)
        for _ in range(100):
            ds = random_monotonic_dataset(rng, max_features=4, max_rows=20)
            learn_formula(ds, max_iter=1)


@st.composite
def three_valued_datasets(draw):
    """A random dataset with U cells and tied feature costs.  Its labels
    come from a random formula (so it may be learnable) or are drawn at
    random, U labels included."""
    n = draw(st.integers(0, 6))
    features = tuple(FeatureId(i, f"f{i}", draw(st.integers(1, 3))) for i in range(n))
    codes = st.sampled_from((F, U, T))
    cells = draw(st.lists(st.tuples(*[codes] * n), min_size=1, max_size=40))
    if n and draw(st.booleans()):
        conjs = [
            Conjunction.of(
                Literal(f, draw(st.sampled_from((Polarity.POSITIVE, Polarity.NEGATIVE))))
                for f in draw(st.lists(st.sampled_from(features), min_size=1, unique=True))
            )
            for _ in range(draw(st.integers(1, 3)))
        ]
        formula = DnfFormula.of(conjs)
        labels = [eval_dnf(formula, FeatureVector(c)) for c in cells]
    else:
        labels = draw(st.lists(
            st.sampled_from((T, T, F, F, U)), min_size=len(cells), max_size=len(cells)
        ))
    return make_dataset(features, tuple(zip(cells, labels)))


def outcome(run):
    """``run()``'s LearnResult, or the index, text and learned result of
    its LearningError."""
    try:
        return run()
    except LearningError as err:
        return ("error", err.index, str(err), err.learned)


class TestMatchesTheReferenceLearner:
    @settings(max_examples=400, deadline=None)
    @given(ds=three_valued_datasets(), max_iter=st.integers(1, 3))
    def test_learn_formula(self, ds, max_iter):
        got = outcome(lambda: learn_formula(ds, max_iter))
        assert got == outcome(lambda: reference.learn_formula(ds, max_iter))

    @settings(max_examples=200, deadline=None)
    @given(ds=three_valued_datasets(), data=st.data())
    def test_cover_rest_with_a_supplier(self, ds, data):
        # Any learned formula, covered by a supplier of per-row covers or by
        # the default covers: the reference's result or error either way.
        conjs = [
            Conjunction.of(
                Literal(f, data.draw(st.sampled_from((Polarity.POSITIVE, Polarity.NEGATIVE))))
                for f in data.draw(st.lists(st.sampled_from(ds.features), unique=True))
            )
            for _ in range(data.draw(st.integers(0, 3)))
        ] if ds.features else []
        learned = LearnResult(DnfFormula.of(conjs), False, frozenset(), 1)
        granted = dnf_rows(learned.formula, ds)
        supplier = lambda row: reference.default_cover_conjunction(ds, row)
        want = outcome(lambda: reference.cover_rest(learned, ds, supplier))
        assert outcome(lambda: cover_rest(learned, granted, ds, supplier)) == want
        assert outcome(lambda: cover_rest(learned, granted, ds)) == want
