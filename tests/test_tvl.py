import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from rebac_miner.tvl import (
    Conjunction,
    DnfFormula,
    FeatureId,
    FeatureVector,
    LabeledDataset,
    LabeledRow,
    Literal,
    Polarity,
    TruthValue,
    conjunction_rows,
    covers,
    dnf_rows,
    first_validity_violation,
    literal_rows,
    remove_redundant,
    uncovered_t_rows,
)
from tests.conftest import make_dataset
from tests.reference_learner import remove_redundant as reference_remove_redundant
from tests.oracles import (
    eval_conjunction,
    eval_dnf,
    eval_literal,
    fv_leq,
    info_leq,
    kleene_and,
    kleene_not,
    kleene_or,
)

F, U, T = TruthValue.F, TruthValue.U, TruthValue.T
ALL = (F, U, T)

truth_values = st.sampled_from(ALL)


def vec(*values):
    return FeatureVector(tuple(values))


class TestConnectives:
    def test_not_table(self):
        assert kleene_not(T) is F
        assert kleene_not(F) is T
        assert kleene_not(U) is U

    def test_and_table(self):
        expected = {
            (F, F): F, (F, U): F, (F, T): F,
            (U, F): F, (U, U): U, (U, T): U,
            (T, F): F, (T, U): U, (T, T): T,
        }
        for (a, b), out in expected.items():
            assert kleene_and(a, b) is out

    def test_or_table(self):
        expected = {
            (F, F): F, (F, U): U, (F, T): T,
            (U, F): U, (U, U): U, (U, T): T,
            (T, F): T, (T, U): T, (T, T): T,
        }
        for (a, b), out in expected.items():
            assert kleene_or(a, b) is out

    def test_de_morgan_exhaustive(self):
        for a, b in itertools.product(ALL, repeat=2):
            assert kleene_not(kleene_and(a, b)) is kleene_or(kleene_not(a), kleene_not(b))
            assert kleene_not(kleene_or(a, b)) is kleene_and(kleene_not(a), kleene_not(b))

    def test_double_negation(self):
        for a in ALL:
            assert kleene_not(kleene_not(a)) is a

    def test_lattice_laws_exhaustive(self):
        for a, b, c in itertools.product(ALL, repeat=3):
            assert kleene_and(a, b) is kleene_and(b, a)
            assert kleene_or(a, b) is kleene_or(b, a)
            assert kleene_and(kleene_and(a, b), c) is kleene_and(a, kleene_and(b, c))
            assert kleene_or(kleene_or(a, b), c) is kleene_or(a, kleene_or(b, c))
            assert kleene_and(a, kleene_or(b, c)) is kleene_or(
                kleene_and(a, b), kleene_and(a, c)
            )
            assert kleene_or(a, kleene_and(b, c)) is kleene_and(
                kleene_or(a, b), kleene_or(a, c)
            )
        for a in ALL:
            assert kleene_and(a, a) is a
            assert kleene_or(a, a) is a


class TestInfoOrdering:
    def test_examples(self):
        assert info_leq(U, T)
        assert not info_leq(T, F)
        assert info_leq(F, F)

    def test_u_is_bottom(self):
        for a in ALL:
            assert info_leq(U, a)

    def test_fv_leq(self):
        assert fv_leq(vec(U, T), vec(F, T))
        assert not fv_leq(vec(T, T), vec(T, U))
        v = vec(T, F, U)
        assert fv_leq(v, v)

    def test_fv_leq_width_mismatch(self):
        with pytest.raises(ValueError):
            fv_leq(vec(T), vec(T, F))


class TestMonotonicity:
    def test_example_violates_strict_ordering_but_is_learnable(self, example_dataset):
        # The all-unknown F row sits information-below the T rows, so the
        # strict pairwise ordering is violated; what makes the dataset
        # learnable in the loose sense is that no T row sits below a non-T
        # row (a T verdict can never be forced onto a denial).
        assert any(
            fv_leq(r1.vector, r2.vector) and not info_leq(r1.label, r2.label)
            for r1 in example_dataset.rows
            for r2 in example_dataset.rows
        )
        for low in example_dataset.rows:
            for high in example_dataset.rows:
                if low.label is T and fv_leq(low.vector, high.vector):
                    assert high.label is T


f0 = FeatureId(0, "f0", 1)
f1 = FeatureId(1, "f1", 1)
f2 = FeatureId(2, "f2", 1)


def lit(f, polarity=Polarity.POSITIVE):
    return Literal(f, polarity)


class TestEvaluation:
    def test_literal(self):
        assert eval_literal(lit(f0), vec(U)) is U
        assert eval_literal(lit(f0, Polarity.NEGATIVE), vec(U)) is U
        assert eval_literal(lit(f0, Polarity.IS_UNKNOWN), vec(U)) is T
        assert eval_literal(lit(f0, Polarity.IS_UNKNOWN), vec(T)) is F
        assert eval_literal(lit(f0, Polarity.IS_UNKNOWN), vec(F)) is F

    def test_conjunction(self):
        c = Conjunction.of([lit(f0), lit(f1)])
        assert eval_conjunction(c, vec(T, U)) is U
        assert eval_conjunction(Conjunction(), vec(T, U)) is T

    def test_conjunction_on_example_row2(self, example_dataset):
        constraint = example_dataset.features[3]
        c = Conjunction.of([lit(constraint)])
        assert eval_conjunction(c, example_dataset.rows[1].vector) is T

    def test_one_literal_per_feature(self):
        with pytest.raises(ValueError):
            Conjunction.of([lit(f0), lit(f0, Polarity.NEGATIVE)])

    def test_dnf(self, example_dataset):
        assert eval_dnf(DnfFormula(), vec(T)) is F
        handbook, constraint = example_dataset.features[2], example_dataset.features[3]
        formula = DnfFormula.of(
            [Conjunction.of([lit(handbook)]), Conjunction.of([lit(constraint)])]
        )
        assert eval_dnf(formula, example_dataset.rows[0].vector) is T
        assert eval_dnf(formula, example_dataset.rows[5].vector) is U

    def test_valid_and_covers_on_learned_formula(self, example_dataset):
        handbook, constraint = example_dataset.features[2], example_dataset.features[3]
        formula = DnfFormula.of(
            [Conjunction.of([lit(handbook)]), Conjunction.of([lit(constraint)])]
        )
        granted = dnf_rows(formula, example_dataset)
        assert first_validity_violation(granted, example_dataset) is None
        assert covers(granted, example_dataset)

    def test_always_true_is_invalid_with_f_row(self):
        ds = make_dataset((f0,), (((F,), F),))
        always = DnfFormula.of([Conjunction()])
        assert first_validity_violation(dnf_rows(always, ds), ds) is not None
        assert first_validity_violation(dnf_rows(DnfFormula(), ds), ds) is None

    def test_empty_formula_coverage(self):
        with_t = make_dataset((f0,), (((T,), T),))
        without_t = make_dataset((f0,), (((T,), F),))
        assert not covers(dnf_rows(DnfFormula(), with_t), with_t)
        assert covers(dnf_rows(DnfFormula(), without_t), without_t)


def enumerate_vectors(n):
    for cells in itertools.product(ALL, repeat=n):
        yield FeatureVector(cells)


class TestRemoveRedundant:
    def test_superset_absorbed(self):
        formula = DnfFormula.of(
            [Conjunction.of([lit(f0), lit(f1)]), Conjunction.of([lit(f0)])]
        )
        assert remove_redundant(formula) == DnfFormula.of([Conjunction.of([lit(f0)])])

    def test_negated_superset_absorbed_and_equivalent(self):
        formula = DnfFormula.of(
            [
                Conjunction.of([lit(f0, Polarity.NEGATIVE), lit(f2)]),
                Conjunction.of([lit(f2)]),
            ]
        )
        reduced = remove_redundant(formula)
        assert reduced == DnfFormula.of([Conjunction.of([lit(f2)])])
        for v in enumerate_vectors(3):
            assert eval_dnf(formula, v) is eval_dnf(reduced, v)

    def test_no_subsumption_unchanged(self):
        formula = DnfFormula.of([Conjunction.of([lit(f0)]), Conjunction.of([lit(f1)])])
        assert remove_redundant(formula) == formula

    def test_never_changes_evaluation(self):
        rng = random.Random(7)
        features = (f0, f1, f2, FeatureId(3, "f3", 1))
        for _ in range(100):
            conjs = []
            for _ in range(rng.randint(1, 4)):
                literals = [
                    Literal(f, rng.choice((Polarity.POSITIVE, Polarity.NEGATIVE)))
                    for f in rng.sample(features, rng.randint(0, 3))
                ]
                conjs.append(Conjunction.of(literals))
            formula = DnfFormula.of(conjs)
            reduced = remove_redundant(formula)
            for v in enumerate_vectors(4):
                assert eval_dnf(formula, v) is eval_dnf(reduced, v)


@st.composite
def overlapping_formulas(draw):
    """Up to 12 disjuncts over few features, so that they share literals
    and often contain one another; the empty disjunct now and then."""
    n = draw(st.integers(1, 4))
    features = tuple(FeatureId(i, f"f{i}", 1) for i in range(n))
    polarities = st.sampled_from((Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.IS_UNKNOWN))
    conjs = [
        Conjunction.of(
            Literal(f, draw(polarities))
            for f in draw(st.lists(st.sampled_from(features), unique=True))
        )
        for _ in range(draw(st.integers(0, 12)))
    ]
    return DnfFormula.of(conjs)


class TestRemoveRedundantMatchesAllPairs:
    @settings(max_examples=500, deadline=None)
    @given(overlapping_formulas())
    def test_same_formula_as_comparing_every_pair(self, formula):
        assert remove_redundant(formula) == reference_remove_redundant(formula)

    def test_non_canonical_input(self):
        # Disjuncts out of order and repeated come out canonical.
        a, b = Conjunction.of([lit(f1)]), Conjunction.of([lit(f0), lit(f1)])
        formula = DnfFormula((b, a, a))
        assert remove_redundant(formula) == DnfFormula.of([a])
        assert remove_redundant(formula) == reference_remove_redundant(formula)


@st.composite
def random_formula_and_vectors(draw):
    n = draw(st.integers(2, 4))
    features = tuple(FeatureId(i, f"f{i}", 1) for i in range(n))
    conjs = []
    for _ in range(draw(st.integers(1, 3))):
        chosen = draw(
            st.lists(st.sampled_from(features), unique=True, min_size=0, max_size=n)
        )
        literals = [
            Literal(f, draw(st.sampled_from((Polarity.POSITIVE, Polarity.NEGATIVE))))
            for f in chosen
        ]
        conjs.append(Conjunction.of(literals))
    formula = DnfFormula.of(conjs)
    base = draw(st.lists(truth_values, min_size=n, max_size=n))
    return formula, FeatureVector(tuple(base))


class TestMonotonicityTheorem:
    @given(random_formula_and_vectors())
    def test_formulas_are_information_monotone(self, case):
        formula, v1 = case
        # Raise some U cells to definite values: v1 <= v2 by construction.
        raised = tuple(T if cell is U and i % 2 == 0 else cell
                       for i, cell in enumerate(v1.values))
        v2 = FeatureVector(raised)
        assert fv_leq(v1, v2)
        assert info_leq(eval_dnf(formula, v1), eval_dnf(formula, v2))

    def test_ten_thousand_random_pairs(self):
        rng = random.Random(123)
        for _ in range(10_000):
            n = rng.randint(1, 4)
            features = tuple(FeatureId(i, f"f{i}", 1) for i in range(n))
            conjs = []
            for _ in range(rng.randint(1, 3)):
                literals = [
                    Literal(f, rng.choice((Polarity.POSITIVE, Polarity.NEGATIVE)))
                    for f in rng.sample(features, rng.randint(0, n))
                ]
                conjs.append(Conjunction.of(literals))
            formula = DnfFormula.of(conjs)
            v1_cells = tuple(rng.choice(ALL) for _ in range(n))
            v2_cells = tuple(
                rng.choice(ALL) if cell is U else cell for cell in v1_cells
            )
            v1, v2 = FeatureVector(v1_cells), FeatureVector(v2_cells)
            assert fv_leq(v1, v2)
            assert info_leq(eval_dnf(formula, v1), eval_dnf(formula, v2))

    def test_removing_definite_literal_never_lowers_value(self):
        rng = random.Random(5)
        for _ in range(2000):
            n = rng.randint(1, 4)
            features = tuple(FeatureId(i, f"f{i}", 1) for i in range(n))
            literals = [
                Literal(f, rng.choice((Polarity.POSITIVE, Polarity.NEGATIVE)))
                for f in rng.sample(features, rng.randint(1, n))
            ]
            conj = Conjunction.of(literals)
            v = FeatureVector(tuple(rng.choice(ALL) for _ in range(n)))
            before = eval_conjunction(conj, v)
            for literal in literals:
                after = eval_conjunction(conj.without(literal), v)
                assert after >= before


@st.composite
def labeled_rows(draw, max_width=5, max_rows=8):
    """Random three-valued rows (possibly none) with U labels allowed."""
    width = draw(st.integers(0, max_width))
    cells = st.tuples(*[truth_values] * width)
    rows = draw(st.lists(st.tuples(cells, truth_values), max_size=max_rows))
    return width, [LabeledRow(FeatureVector(c), label) for c, label in rows]


def bits(mask, size):
    """A plane's bits as booleans, row by row; it must set no others."""
    assert 0 <= mask < 1 << size
    return [bool(mask >> k & 1) for k in range(size)]


class TestDatasetPlanes:
    @given(labeled_rows())
    def test_matches_row_by_row_fill(self, width_rows):
        width, rows = width_rows
        features = tuple(FeatureId(i) for i in range(width))
        ds = LabeledDataset.from_rows(features, rows)
        assert ds.size == len(ds.rows) == len(rows)
        for i, (t, f) in enumerate(ds.planes):
            cells = [row.vector[i] for row in rows]
            assert bits(t, len(rows)) == [c is T for c in cells]
            assert bits(f, len(rows)) == [c is F for c in cells]
        label_t, label_f = ds.labels
        assert bits(label_t, len(rows)) == [row.label is T for row in rows]
        assert bits(label_f, len(rows)) == [row.label is F for row in rows]
        assert list(ds.rows) == rows
        assert [ds.rows[k] for k in range(len(rows))] == rows
        assert list(ds.rows[1:3]) == rows[1:3]
        assert list(ds.rows[::-2]) == rows[::-2]
        assert list(ds.rows[:]) == rows
        if rows:
            assert ds.rows[-1] == rows[-1]
        with pytest.raises(IndexError):
            ds.rows[len(rows)]

    def test_malformed_planes_rejected(self):
        LabeledDataset((f0,), ((1, 0),), (0, 1), 1)
        for planes in (((1, 1),), ((2, 0),), ()):
            with pytest.raises(ValueError):
                LabeledDataset((f0,), planes, (0, 1), 1)
        with pytest.raises(ValueError):
            LabeledDataset((f0,), ((1, 0),), (0, 2), 1)

    def test_copies_check_the_planes_they_add(self):
        ds = LabeledDataset((f0,), ((1, 0),), (0, 1), 1)
        f1 = FeatureId(1)
        copy = ds.with_columns((f0, f1), ds.planes, ((0, 1),))
        assert copy == LabeledDataset((f0, f1), ((1, 0), (0, 1)), (0, 1), 1)
        assert copy.all_rows == 1 and copy.by_cost == (f0, f1)
        assert ds.with_columns((), ()) == LabeledDataset((), (), (0, 1), 1)
        for added in (((1, 1),), ((2, 0),)):
            with pytest.raises(ValueError):
                ds.with_columns((f0, f1), ds.planes, added)
        with pytest.raises(ValueError):
            ds.with_columns((f0, f1), ds.planes)
        with pytest.raises(ValueError):
            ds.with_columns((f1,), ds.planes)

    @given(labeled_rows(), st.data())
    def test_label_copies_check_only_their_labels(self, width_rows, data):
        width, rows = width_rows
        ds = LabeledDataset.from_rows(tuple(FeatureId(i) for i in range(width)), rows)
        size = len(rows)
        label_t = data.draw(st.integers(0, (1 << size) - 1))
        label_f = data.draw(st.integers(0, (1 << size) - 1)) & ~label_t
        copy = ds.with_labels((label_t, label_f))
        assert copy == replace(ds, labels=(label_t, label_f))
        assert copy.all_rows is ds.all_rows and copy.by_cost is ds.by_cost
        assert copy.planes is ds.planes
        if size:
            for bad in ((1, 1), (1 << size, 0), (0, 1 << size)):
                with pytest.raises(ValueError):
                    ds.with_labels(bad)


@st.composite
def formulas_and_rows(draw):
    """A random formula, is-unknown literals included, over random rows."""
    width, rows = draw(labeled_rows())
    features = tuple(FeatureId(i) for i in range(width))
    conjs = []
    for _ in range(draw(st.integers(0, 3))):
        chosen = draw(st.lists(st.sampled_from(features), unique=True)) if width else []
        conjs.append(Conjunction.of(
            Literal(f, draw(st.sampled_from(tuple(Polarity)))) for f in chosen
        ))
    return DnfFormula.of(conjs), LabeledDataset.from_rows(features, rows), rows


class TestPlanesMatchRowEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(formulas_and_rows())
    def test_conjunction_and_dnf_rows(self, case):
        formula, ds, rows = case
        for conj in formula.disjuncts:
            assert bits(conjunction_rows(conj, ds), len(rows)) == [
                eval_conjunction(conj, row.vector) is T for row in rows
            ]
        assert bits(dnf_rows(formula, ds), len(rows)) == [
            eval_dnf(formula, row.vector) is T for row in rows
        ]

    @settings(max_examples=300, deadline=None)
    @given(labeled_rows())
    def test_literal_rows(self, width_rows):
        width, rows = width_rows
        features = tuple(FeatureId(i) for i in range(width))
        ds = LabeledDataset.from_rows(features, rows)
        for literal in (Literal(f, p) for f in features for p in Polarity):
            assert bits(literal_rows(literal, ds), len(rows)) == [
                eval_literal(literal, row.vector) is T for row in rows
            ]

    @settings(max_examples=300, deadline=None)
    @given(formulas_and_rows())
    def test_validity_and_coverage(self, case):
        formula, ds, rows = case
        granted = [eval_dnf(formula, row.vector) is T for row in rows]
        wrong = [k for k, (row, g) in enumerate(zip(rows, granted))
                 if g and row.label is not T]
        missed = [k for k, (row, g) in enumerate(zip(rows, granted))
                  if row.label is T and not g]
        granted = dnf_rows(formula, ds)
        assert first_validity_violation(granted, ds) == (wrong[0] if wrong else None)
        assert [k for k in range(len(rows)) if uncovered_t_rows(granted, ds) >> k & 1] == missed
        assert covers(granted, ds) == (not missed)
