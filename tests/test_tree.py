import collections
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from rebac_miner import _kernels
from rebac_miner._kernels import RowSet
from rebac_miner.tree import (
    Internal,
    Leaf,
    build_tree,
    extract_true_paths,
    format_tree,
)
from rebac_miner.tvl import (
    Conjunction,
    FeatureId,
    Literal,
    Polarity,
    TruthValue,
    mask_of,
    planes_of,
)
from tests.conftest import make_dataset
from tests.oracles import classify

F, U, T = TruthValue.F, TruthValue.U, TruthValue.T


def oracle_entropy(labels):
    """Independent Shannon entropy over label frequencies (base 2)."""
    counts = collections.Counter(labels)
    total = len(labels)
    h = 0.0
    for c in counts.values():
        p = c / total
        h -= p * math.log2(p)
    return h


def oracle_gain(rows, feature):
    """Brute-force information gain, kept independent of the kernel."""
    labels = [r.label for r in rows]
    h = oracle_entropy(labels)
    for value in (F, U, T):
        part = [r.label for r in rows if r.vector[feature] is value]
        if part:
            h -= (len(part) / len(rows)) * oracle_entropy(part)
    return h


def value_rows(pair, value, rows):
    """The rows of ``rows`` whose cell in the (T, F) plane pair is
    ``value``, as the oracles below read planes."""
    t, f = pair
    if value is T:
        return rows & t
    if value is F:
        return rows & f
    return rows & ~(t | f)


def reference_entropy(counts, total):
    h = 0.0
    for count in counts:
        if count:
            p = count / total
            h += p * math.log2(p)
    return -h


def reference_split_gains(cells, labels, rows, cands):
    """The scorer as it was before its per-call count memo, kept verbatim
    as the oracle its floats must equal under ``==``."""
    n = len(rows)
    if not n:
        return [0.0] * len(cands)
    by_label = tuple(value_rows(labels, value, rows) for value in TruthValue)
    totals = [part.bit_count() for part in by_label]
    h_parent = reference_entropy(totals, n)
    gains = []
    for c in cands:
        t, f = cells[c]
        if rows & t == rows or rows & f == rows or not rows & (t | f):
            gains.append(0.0)
            continue
        on_t = [(t & part).bit_count() for part in by_label]
        on_f = [(f & part).bit_count() for part in by_label]
        on_u = [all_ - t_ - f_ for all_, t_, f_ in zip(totals, on_t, on_f)]
        remainder = 0.0
        for counts in (on_f, on_u, on_t):
            total = sum(counts)
            remainder += (total / n) * reference_entropy(counts, total)
        gains.append(h_parent - remainder)
    return gains


def full_gain(ds, feature):
    """The kernel's gain of ``feature`` over all of ``ds``'s rows."""
    return _kernels.split_gains(
        ds.planes, ds.labels, RowSet(ds.all_rows), (feature.index,)
    )[0]


def root_split(ds, candidates):
    """The root split of a tree grown over ``candidates`` alone."""
    return build_tree(ds, frozenset(ds.features) - set(candidates)).feature


# Frozen from the hand computation: H(3T,3F)=1; splitting on
# res.type=Handbook sends rows {1,4} (all T) down the T edge and rows
# {2,3,5,6} (one T) down the U edge, remainder (4/6)*H(1/4,3/4).
EXAMPLE_HANDBOOK_GAIN = 0.4591479170272448


class TestInformationGain:
    def test_pure_labels_gain_zero(self):
        ds = make_dataset(
            (FeatureId(0), FeatureId(1)),
            (((T, F), T), ((F, U), T)),
        )
        for f in ds.features:
            assert full_gain(ds, f) == pytest.approx(0.0, abs=1e-12)

    def test_example_handbook_gain(self, example_dataset):
        gain = full_gain(example_dataset, example_dataset.features[2])
        assert gain == pytest.approx(EXAMPLE_HANDBOOK_GAIN, abs=1e-12)
        assert gain == pytest.approx(oracle_gain(example_dataset.rows, example_dataset.features[2]), abs=1e-12)

    def test_single_row_gain_zero(self):
        ds = make_dataset((FeatureId(0),), (((U,), T),))
        assert full_gain(ds, ds.features[0]) == pytest.approx(0.0)

    def test_matches_oracle_on_random_datasets(self):
        rng = random.Random(42)
        for _ in range(150):
            n_feat = rng.randint(1, 5)
            n_rows = rng.randint(1, 25)
            features = tuple(FeatureId(i, f"f{i}", 1) for i in range(n_feat))
            rows = tuple(
                (tuple(rng.choice((F, U, T)) for _ in range(n_feat)),
                 rng.choice((F, U, T)))
                for _ in range(n_rows)
            )
            ds = make_dataset(features, rows)
            for f in features:
                gain = full_gain(ds, f)
                assert 0.0 - 1e-12 <= gain <= math.log2(3) + 1e-12
                assert gain == pytest.approx(oracle_gain(ds.rows, f), abs=1e-9)


@st.composite
def split_problems(draw):
    """A random cell matrix with labels, plus row and candidate subsets
    (either may be empty) in arbitrary order."""
    n_rows = draw(st.integers(0, 30))
    n_feat = draw(st.integers(1, 6))
    codes = st.sampled_from((0, 1, 2))
    cells = draw(st.lists(st.lists(codes, min_size=n_feat, max_size=n_feat),
                          min_size=n_rows, max_size=n_rows))
    labels = draw(st.lists(codes, min_size=n_rows, max_size=n_rows))
    rows = draw(st.lists(st.integers(0, n_rows - 1), unique=True)) if n_rows else []
    cands = draw(st.lists(st.integers(0, n_feat - 1), unique=True))
    return n_feat, cells, labels, rows, cands


def check_against_oracle(n_feat, cells, labels, rows, cands):
    features = tuple(FeatureId(i) for i in range(n_feat))
    ds = make_dataset(
        features,
        tuple((tuple(TruthValue(c) for c in row), TruthValue(label))
              for row, label in zip(cells, labels)),
    )
    row_set = RowSet(mask_of(rows, len(cells)))
    got = _kernels.split_gains(ds.planes, ds.labels, row_set, tuple(cands))
    subset = [ds.rows[i] for i in rows]
    want = [oracle_gain(subset, features[c]) if subset else 0.0 for c in cands]
    assert len(row_set) == len(rows)
    assert len(got) == len(cands)
    assert got == pytest.approx(want, rel=0, abs=1e-12)
    # A column constant on the rows (all T, all F or all U) gains exactly
    # 0.0: the tolerance above would hide a shortcut that is slightly off.
    for c, gain in zip(cands, got):
        if len({cells[i][c] for i in rows}) <= 1:
            assert gain == 0.0


@st.composite
def scorer_problems(draw):
    """Random columns over up to 40 rows, with duplicated and constant
    columns among them, labels with or without U, and a row mask that may
    be empty or full; candidates in any order, repeats allowed."""
    n_rows = draw(st.integers(0, 40))
    codes = st.sampled_from((F, U, T))
    column = st.lists(codes, min_size=n_rows, max_size=n_rows)
    columns = draw(st.lists(column, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            columns.append(draw(st.sampled_from(columns)))
        else:
            columns.append([draw(codes)] * n_rows)
    label_codes = draw(st.sampled_from(((F, U, T), (F, T))))
    labels = draw(st.lists(st.sampled_from(label_codes), min_size=n_rows, max_size=n_rows))
    everything = (1 << n_rows) - 1
    rows = draw(st.one_of(st.just(0), st.just(everything), st.integers(0, everything)))
    cands = draw(st.lists(st.integers(0, len(columns) - 1), max_size=12))
    return tuple(map(planes_of, columns)), planes_of(labels), RowSet(rows), tuple(cands)


class TestSplitGains:
    @settings(max_examples=300, deadline=None)
    @given(problem=split_problems())
    def test_matches_oracle(self, problem):
        check_against_oracle(*problem)

    @settings(max_examples=500, deadline=None)
    @given(problem=scorer_problems())
    def test_equals_the_reference_scorer(self, problem):
        assert _kernels.split_gains(*problem) == reference_split_gains(*problem)

    def test_matches_oracle_on_a_large_problem(self):
        rng = random.Random(9)
        n_rows, n_feat = 2500, 320
        cells = [[rng.randrange(3) for _ in range(n_feat)] for _ in range(n_rows)]
        labels = [rng.randrange(3) for _ in range(n_rows)]
        rows = rng.sample(range(n_rows), 2000)
        cands = rng.sample(range(n_feat), 300)
        check_against_oracle(n_feat, cells, labels, rows, cands)


@st.composite
def shared_memo_builds(draw):
    """A random dataset and several (excluded features, row subset) builds
    over it."""
    n_feat = draw(st.integers(1, 5))
    n_rows = draw(st.integers(1, 24))
    codes = st.sampled_from((F, U, T))
    rows = tuple(
        (tuple(draw(codes) for _ in range(n_feat)), draw(codes))
        for _ in range(n_rows)
    )
    features = tuple(FeatureId(i, f"f{i}", draw(st.integers(1, 3))) for i in range(n_feat))
    ds = make_dataset(features, rows)
    builds = draw(st.lists(
        st.tuples(
            st.frozensets(st.sampled_from(ds.features)),
            st.sets(st.integers(0, n_rows - 1)),
        ),
        min_size=1,
        max_size=5,
    ))
    return ds, [(excluded, mask_of(sorted(r), n_rows)) for excluded, r in builds]


@st.composite
def chained_builds(draw):
    """Like :func:`shared_memo_builds`, but half the datasets repeat a few
    cell vectors under different labels, with a constant column or two:
    the nodes over a repeated vector's rows tie every gain at 0.0 and
    split on their constant columns, which is a chain of links."""
    if draw(st.booleans()):
        return draw(shared_memo_builds())
    n_feat = draw(st.integers(1, 6))
    codes = st.sampled_from((F, U, T))
    constant = draw(st.lists(st.tuples(st.integers(0, n_feat - 1), codes), max_size=2))
    vectors = []
    for _ in range(draw(st.integers(1, 3))):
        cells = [draw(codes) for _ in range(n_feat)]
        for i, value in constant:
            cells[i] = value
        vectors.append(tuple(cells))
    n_rows = draw(st.integers(2, 16))
    rows = tuple(
        (draw(st.sampled_from(vectors)), draw(codes)) for _ in range(n_rows)
    )
    features = tuple(FeatureId(i, f"f{i}", draw(st.integers(1, 3))) for i in range(n_feat))
    ds = make_dataset(features, rows)
    builds = draw(st.lists(
        st.tuples(
            st.frozensets(st.sampled_from(ds.features)),
            st.sets(st.integers(0, n_rows - 1)),
        ),
        min_size=1,
        max_size=3,
    ))
    return ds, [(excluded, mask_of(sorted(r), n_rows)) for excluded, r in builds]


class TestSharedMemo:
    @settings(max_examples=300, deadline=None)
    @given(problem=shared_memo_builds())
    def test_same_trees_as_fresh_builds(self, problem):
        ds, builds = problem
        scored = []
        split_gains = _kernels.split_gains

        def recording(cells, labels, rows, cands):
            scored.extend((int(rows), c) for c in cands)
            return split_gains(cells, labels, rows, cands)

        memo = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels, "split_gains", recording)
            shared = [build_tree(ds, excluded, rows, memo=memo) for excluded, rows in builds]
        fresh = [build_tree(ds, excluded, rows) for excluded, rows in builds]
        assert [format_tree(t) for t in shared] == [format_tree(t) for t in fresh]
        # No (rows, column) pair is scored twice over the shared memo.
        assert len(scored) == len(set(scored))
        for rows, by_column in memo.items():
            columns = tuple(by_column)
            want = split_gains(ds.planes, ds.labels, RowSet(rows), columns)
            assert list(by_column.values()) == want


class TestChooseSplit:
    def test_single_candidate(self, example_dataset):
        only = example_dataset.features[1]
        assert root_split(example_dataset, [only]) is only

    def test_prefers_higher_gain(self, example_dataset):
        handbook = example_dataset.features[2]
        no_gain = example_dataset.features[1]
        assert root_split(example_dataset, [no_gain, handbook]) is handbook

    def test_cost_breaks_ties(self):
        cheap = FeatureId(0, "cheap", 2)
        dear = FeatureId(1, "dear", 3)
        ds = make_dataset(
            (cheap, dear),
            (((T, T), T), ((F, F), F)),
        )
        assert root_split(ds, ds.features) is cheap
        ds2 = make_dataset(
            (FeatureId(0, "a", 3), FeatureId(1, "b", 2)),
            (((T, T), T), ((F, F), F)),
        )
        assert root_split(ds2, ds2.features) is ds2.features[1]

    def test_index_breaks_remaining_ties(self):
        ds = make_dataset(
            (FeatureId(0, "a", 2), FeatureId(1, "b", 2)),
            (((T, T), T), ((F, F), F)),
        )
        assert root_split(ds, ds.features) is ds.features[0]


class TestBuildTree:
    def test_all_false_leaf(self):
        ds = make_dataset((FeatureId(0),), (((T,), F), ((U,), F)))
        tree = build_tree(ds)
        assert tree == Leaf(F)

    def test_empty_dataset_leaf_false(self):
        ds = make_dataset((FeatureId(0),), ())
        assert build_tree(ds) == Leaf(F)

    def test_example_tree_shape(self, example_dataset):
        tree = build_tree(example_dataset)
        assert isinstance(tree, Internal)
        assert tree.feature.label == "res.type=Handbook"
        assert tree.children[T] == Leaf(T)
        assert tree.children[F] == Leaf(F)
        unknown_child = tree.children[U]
        assert isinstance(unknown_child, Internal)
        assert unknown_child.feature.label == "sub.dept=res.dept"
        assert unknown_child.children[T] == Leaf(T)
        assert unknown_child.children[F] == Leaf(F)
        assert unknown_child.children[U] == Leaf(F)

    def test_excluded_features_not_used(self, example_dataset):
        tree = build_tree(example_dataset, excluded=frozenset({example_dataset.features[2]}))

        def used(node):
            if isinstance(node, Leaf):
                return set()
            out = {node.feature}
            for child in node.children.values():
                out |= used(child)
            return out

        assert example_dataset.features[2] not in used(tree)

    def test_classifies_training_set(self, example_dataset):
        tree = build_tree(example_dataset)
        for row in example_dataset.rows:
            assert classify(tree, row.vector) is row.label

    def test_no_feature_repeats_on_path(self, example_dataset):
        tree = build_tree(example_dataset)

        def walk(node, seen):
            if isinstance(node, Leaf):
                return
            assert node.feature not in seen
            for child in node.children.values():
                walk(child, seen | {node.feature})

        walk(tree, set())

    def test_deterministic(self, example_dataset):
        t1 = format_tree(build_tree(example_dataset))
        t2 = format_tree(build_tree(example_dataset))
        assert t1 == t2

    def test_random_consistent_data_classified_exactly(self):
        rng = random.Random(11)
        for _ in range(40):
            n_feat = rng.randint(1, 4)
            features = tuple(FeatureId(i, f"f{i}", 1) for i in range(n_feat))
            labels_by_vec = {}
            rows = []
            for _ in range(rng.randint(1, 20)):
                cells = tuple(rng.choice((F, U, T)) for _ in range(n_feat))
                label = labels_by_vec.setdefault(cells, rng.choice((F, U, T)))
                rows.append((cells, label))
            ds = make_dataset(features, tuple(rows))
            tree = build_tree(ds)
            for row in ds.rows:
                assert classify(tree, row.vector) is row.label


class TestExtractTruePaths:
    def test_leaf_true_gives_empty_conjunction(self):
        assert extract_true_paths(Leaf(T)) == (Conjunction(),)

    def test_leaf_false_gives_nothing(self):
        assert extract_true_paths(Leaf(F)) == ()

    def test_example_paths(self, example_dataset):
        handbook, constraint = example_dataset.features[2], example_dataset.features[3]
        paths = extract_true_paths(build_tree(example_dataset))
        expected = {
            Conjunction.of([Literal(handbook, Polarity.POSITIVE)]),
            Conjunction.of(
                [
                    Literal(handbook, Polarity.IS_UNKNOWN),
                    Literal(constraint, Polarity.POSITIVE),
                ]
            ),
        }
        assert set(paths) == expected


def recursive_reference(ds, excluded=frozenset(), rows=None, memo=None):
    """The recursive build, extraction and rendering the iterative ones
    replaced, kept as their oracle: (tree, T paths, text, chain links).
    Independent of the dataset's cost order: candidates stay in index
    order and the pick is a ``min`` by (cost, index) over the tied ones.
    A chain link is an internal node on the rows of a parent where every
    candidate's gain tied."""
    from rebac_miner.tree import EDGE_POLARITY, EDGE_VALUES, GAIN_TIE_TOLERANCE

    memo = {} if memo is None else memo
    chain_links = []

    def pick(candidates, gains):
        best_gain = max(gains)
        tied = [
            f for f, g in zip(candidates, gains) if g >= best_gain - GAIN_TIE_TOLERANCE
        ]
        return min(tied, key=lambda f: (f.cost, f.index))

    def gains(candidates, rows):
        scored = memo.setdefault(rows, {})
        missing = tuple(f.index for f in candidates if f.index not in scored)
        if missing:
            got = _kernels.split_gains(ds.planes, ds.labels, RowSet(rows), missing)
            scored.update(zip(missing, got))
        return [scored[f.index] for f in candidates]

    def build(rows, candidates, tied_rows=None):
        if not rows:
            return Leaf(F)
        for label in EDGE_VALUES:
            if value_rows(ds.labels, label, rows) == rows:
                return Leaf(label)
        if not candidates:
            return Leaf(F)
        if rows == tied_rows:
            chain_links.append(rows)
        scores = gains(candidates, rows)
        best = pick(candidates, scores)
        all_tied = min(scores) >= max(scores) - GAIN_TIE_TOLERANCE
        remaining = tuple(f for f in candidates if f is not best)
        return Internal(best, {
            edge: build(
                value_rows(ds.planes[best.index], edge, rows),
                remaining,
                rows if all_tied else None,
            )
            for edge in EDGE_VALUES
        })

    def paths(node, prefix):
        if isinstance(node, Leaf):
            return [Conjunction.of(prefix)] if node.label is T else []
        return [
            c
            for edge in EDGE_VALUES
            for c in paths(
                node.children[edge], prefix + (Literal(node.feature, EDGE_POLARITY[edge]),)
            )
        ]

    def text(node, indent):
        if isinstance(node, Leaf):
            return f"{indent}leaf {node.label}\n"
        name = node.feature.label or f"f{node.feature.index}"
        return f"{indent}split on {name}\n" + "".join(
            f"{indent}  {edge} ->\n" + text(node.children[edge], indent + "    ")
            for edge in EDGE_VALUES
        )

    initial = tuple(f for f in ds.features if f not in excluded)
    tree = build(ds.all_rows if rows is None else rows, initial)
    return tree, tuple(paths(tree, ())), text(tree, ""), len(chain_links)


def tree_shape(node):
    if isinstance(node, Leaf):
        return node.label
    return (node.feature, [(e, tree_shape(c)) for e, c in node.children.items()])


class TestIterativeTreeWalks:
    """build_tree, extract_true_paths and format_tree walk the tree with a
    stack: they give what the recursive walks gave, scoring the same
    (rows, columns) in the same order, and a tree as deep as the number
    of columns stays within the default recursion limit."""

    def test_match_the_recursive_walks(self):
        chain_links = []

        @settings(max_examples=200, deadline=None)
        @given(problem=chained_builds())
        def check(problem):
            ds, builds = problem
            calls = {"iterative": [], "recursive": []}
            split_gains = _kernels.split_gains

            def recording(into):
                def scored(cells, labels, rows, cands):
                    calls[into].append((int(rows), cands))
                    return split_gains(cells, labels, rows, cands)
                return scored

            memos = {"iterative": {}, "recursive": {}}
            for excluded, rows in builds:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(_kernels, "split_gains", recording("recursive"))
                    tree, paths, text, links = recursive_reference(
                        ds, excluded, rows, memos["recursive"]
                    )
                    patch.setattr(_kernels, "split_gains", recording("iterative"))
                    got = build_tree(ds, excluded, rows, memo=memos["iterative"])
                assert tree_shape(got) == tree_shape(tree)
                assert extract_true_paths(got) == paths
                assert format_tree(got) == text
                chain_links.append(links)
            assert calls["iterative"] == calls["recursive"]
            assert memos["iterative"] == memos["recursive"]

        check()
        # The generated datasets do exercise chain links.
        assert any(chain_links)

    def test_an_xor_under_598_constant_columns(self):
        # Every gain ties at the root (the constant columns gain 0.0, and
        # so does each XOR input on its own): a chain of 598 links on all
        # four rows, then the XOR's three splits.
        n = 600
        features = tuple(FeatureId(i, f"f{i}") for i in range(n))
        xor = ((T, T, T), (T, F, F), (F, T, F), (F, F, T))
        ds = make_dataset(
            features, tuple(((T,) * (n - 2) + (a, b), label) for a, b, label in xor)
        )
        got = build_tree(ds)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10 * n)  # for the recursive oracle only
        try:
            tree, paths, text, links = recursive_reference(ds)
            assert tree_shape(got) == tree_shape(tree)
        finally:
            sys.setrecursionlimit(limit)
        assert format_tree(got) == text
        assert text.count("split on") == n + 1 and links == n - 2
        head = [Literal(f, Polarity.POSITIVE) for f in features[: n - 2]]
        assert extract_true_paths(got) == paths == (
            Conjunction.of(head + [Literal(f, Polarity.POSITIVE) for f in features[-2:]]),
            Conjunction.of(head + [Literal(f, Polarity.NEGATIVE) for f in features[-2:]]),
        )

    def test_a_tree_as_deep_as_its_columns(self):
        # Two rows with the same cells but labels T and F: every column is
        # constant on them, so each split passes both rows down its T edge
        # until the 600 columns run out.
        n = 600
        features = tuple(FeatureId(i, f"f{i}") for i in range(n))
        ds = make_dataset(features, (((T,) * n, T), ((T,) * n, F)))
        assert sys.getrecursionlimit() <= 1000
        tree = build_tree(ds)
        depth, node = 0, tree
        while isinstance(node, Internal):
            assert node.children[F] == node.children[U] == Leaf(F)
            depth, node = depth + 1, node.children[T]
        assert depth == n and node == Leaf(F)
        assert extract_true_paths(tree) == ()
        text = format_tree(tree)
        assert text.count("split on") == n and text.count("\n") == 6 * n + 1
        assert f"\n{' ' * 4 * n}leaf F\n" in text
