"""Multi-way decision trees over three-valued feature vectors.

C4.5-style induction: split on the feature with maximal information gain,
ties broken by lower feature cost, then by lower feature index.  Each
internal node has exactly three children, one per truth value; edges whose
row partition is empty lead to F leaves so the tree stays a total
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from rebac_miner import _kernels
from rebac_miner.tvl import (
    Conjunction,
    FeatureId,
    LabeledDataset,
    LabeledRow,
    Literal,
    Polarity,
    TruthValue,
    rows_to_arrays,
)

GAIN_TIE_TOLERANCE = 1e-12

# Edge order used for child construction and path extraction.
EDGE_VALUES = (TruthValue.T, TruthValue.F, TruthValue.U)

EDGE_POLARITY = {
    TruthValue.T: Polarity.POSITIVE,
    TruthValue.F: Polarity.NEGATIVE,
    TruthValue.U: Polarity.IS_UNKNOWN,
}


@dataclass(frozen=True)
class Leaf:
    label: TruthValue


@dataclass(eq=False)
class Internal:
    feature: FeatureId
    children: dict  # TruthValue -> DecisionTree


DecisionTree = Union[Leaf, Internal]


def _gains(rows: Sequence[LabeledRow], candidates: Sequence[FeatureId]) -> np.ndarray:
    cells, labels = rows_to_arrays(rows, len(rows[0].vector) if rows else 0)
    return _kernels.split_gains(
        cells, labels, np.arange(len(rows)), np.array([f.index for f in candidates])
    )


def information_gain(rows: Sequence[LabeledRow], feature: FeatureId) -> float:
    """Entropy of the labels minus the split remainder for ``feature``."""
    if not rows:
        raise ValueError("information gain needs at least one row")
    return float(_gains(rows, (feature,))[0])


def _pick(candidates: Sequence[FeatureId], gains: np.ndarray) -> FeatureId:
    best_gain = float(gains.max())
    tied = [
        f for f, g in zip(candidates, gains) if g >= best_gain - GAIN_TIE_TOLERANCE
    ]
    return min(tied, key=lambda f: (f.cost, f.index))


def choose_split(
    rows: Sequence[LabeledRow], candidates: Iterable[FeatureId]
) -> FeatureId:
    """Best-gain candidate; ties go to lower cost, then lower index."""
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("no candidate features")
    return _pick(candidates, _gains(rows, candidates))


def build_tree(
    dataset: LabeledDataset, excluded: frozenset[FeatureId] = frozenset()
) -> DecisionTree:
    """Induce a tree classifying the dataset.

    Recursion stops at a pure label (leaf with that label), an empty row
    partition (F leaf), or an exhausted candidate list (F leaf: never grant
    what cannot be separated).  Excluded features and features already used
    on the current path are not candidates.
    """
    cells, labels = dataset.to_arrays()
    initial = tuple(f for f in dataset.features if f not in excluded)

    def recurse(row_idx: np.ndarray, candidates: tuple[FeatureId, ...]) -> DecisionTree:
        if row_idx.size == 0:
            return Leaf(TruthValue.F)
        labs = labels[row_idx]
        if (labs == labs[0]).all():
            return Leaf(TruthValue(int(labs[0])))
        if not candidates:
            return Leaf(TruthValue.F)
        gains = _kernels.split_gains(
            cells, labels, row_idx, np.array([f.index for f in candidates])
        )
        best = _pick(candidates, gains)
        remaining = tuple(f for f in candidates if f is not best)
        column = cells[row_idx, best.index]
        children = {
            edge: recurse(row_idx[column == int(edge)], remaining)
            for edge in EDGE_VALUES
        }
        return Internal(best, children)

    return recurse(np.arange(len(dataset.rows)), initial)


def classify(tree: DecisionTree, vector) -> TruthValue:
    node = tree
    while isinstance(node, Internal):
        node = node.children[vector[node.feature]]
    return node.label


def extract_true_paths(tree: DecisionTree) -> tuple[Conjunction, ...]:
    """One conjunction per root-to-leaf path that ends in a T leaf.

    A T edge contributes a positive literal, an F edge a negative one, and
    a U edge an is-unknown literal.
    """
    out: list[Conjunction] = []

    def walk(node: DecisionTree, prefix: tuple[Literal, ...]):
        if isinstance(node, Leaf):
            if node.label is TruthValue.T:
                out.append(Conjunction.of(prefix))
            return
        for edge in EDGE_VALUES:
            literal = Literal(node.feature, EDGE_POLARITY[edge])
            walk(node.children[edge], prefix + (literal,))

    walk(tree, ())
    return tuple(out)


def format_tree(tree: DecisionTree, indent: str = "") -> str:
    """Indented text rendering, for debug dumps."""
    if isinstance(tree, Leaf):
        return f"{indent}leaf {tree.label}\n"
    name = tree.feature.label or f"f{tree.feature.index}"
    lines = [f"{indent}split on {name}\n"]
    for edge in EDGE_VALUES:
        lines.append(f"{indent}  {edge} ->\n")
        lines.append(format_tree(tree.children[edge], indent + "    "))
    return "".join(lines)
