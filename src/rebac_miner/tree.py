"""Multi-way decision trees over three-valued feature vectors.

C4.5-style induction: split on the feature with maximal information gain,
ties broken by the dataset's cost order (lower cost, then lower index).
Each internal node has exactly three children, one per truth value; edges
whose row partition is empty lead to F leaves so the tree stays a total
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from rebac_miner import _kernels
from rebac_miner._kernels import RowSet
from rebac_miner.tvl import (
    LITERAL_VALUE,
    Conjunction,
    FeatureId,
    LabeledDataset,
    Literal,
    TruthValue,
    value_rows,
)

GAIN_TIE_TOLERANCE = 1e-12

# Edge order used for child construction and path extraction.
EDGE_VALUES = (TruthValue.T, TruthValue.F, TruthValue.U)

# An edge's literal is T exactly on the rows that take the edge.
EDGE_POLARITY = {value: polarity for polarity, value in LITERAL_VALUE.items()}


@dataclass(frozen=True)
class Leaf:
    label: TruthValue


@dataclass(eq=False)
class Internal:
    feature: FeatureId
    children: dict  # TruthValue -> DecisionTree


DecisionTree = Union[Leaf, Internal]


def build_tree(
    dataset: LabeledDataset,
    excluded: frozenset[FeatureId] = frozenset(),
    rows: Optional[int] = None,
    memo: Optional[dict[int, dict[int, float]]] = None,
) -> DecisionTree:
    """Induce a tree classifying the dataset's rows in the ``rows`` mask
    (all rows by default).

    A node is a leaf at a pure label (leaf with that label), an empty row
    partition (F leaf), or an exhausted candidate list (F leaf: never grant
    what cannot be separated).  Excluded features and features already used
    on the current path are not candidates.

    ``memo`` maps a node's row mask to the gains already scored on those
    rows, by column index; a node asks ``_kernels.split_gains`` only for
    the columns it lacks, in ascending index order, and adds them.  A gain
    depends only on the dataset, the rows and the column, so one memo may
    be shared by every tree grown over one dataset (the learner shares one
    per ``learn_formula`` call) and the trees are those of fresh builds.
    """
    initial = tuple(f for f in dataset.by_cost if f not in excluded)
    if memo is None:
        memo = {}

    def pick(candidates: tuple[FeatureId, ...], rows: int) -> int:
        """Position of the split among ``candidates`` (in cost order): the
        first whose gain is within GAIN_TIE_TOLERANCE of the best."""
        scored = memo.setdefault(rows, {})
        missing = tuple(sorted(f.index for f in candidates if f.index not in scored))
        if missing:
            got = _kernels.split_gains(
                dataset.planes, dataset.labels, RowSet(rows), missing
            )
            scored.update(zip(missing, got))
        gains = [scored[f.index] for f in candidates]
        floor = max(gains) - GAIN_TIE_TOLERANCE
        return next(k for k, gain in enumerate(gains) if gain >= floor)

    def leaf(rows: int, candidates: tuple[FeatureId, ...]) -> Optional[Leaf]:
        if not rows:
            return Leaf(TruthValue.F)
        for label in EDGE_VALUES:
            if value_rows(dataset.labels, label, rows) == rows:
                return Leaf(label)
        if not candidates:
            return Leaf(TruthValue.F)
        return None

    # Nodes still to build, each with the children dict and edge it fills
    # in.  Popped depth first and T before F before U, as a recursive
    # build would visit them, so the memo fills in the same order; a
    # stack, not recursion, since a split constant on a node's rows gives
    # a child on the same rows, and a path can use every candidate.
    top: dict = {}
    pending = [(top, None, dataset.all_rows if rows is None else rows, initial)]
    while pending:
        parent, edge, rows, candidates = pending.pop()
        node = leaf(rows, candidates)
        if node is None:
            k = pick(candidates, rows)
            best, remaining = candidates[k], candidates[:k] + candidates[k + 1 :]
            node = Internal(best, dict.fromkeys(EDGE_VALUES))
            plane = dataset.planes[best.index]
            pending += [
                (node.children, e, value_rows(plane, e, rows), remaining)
                for e in reversed(EDGE_VALUES)
            ]
        parent[edge] = node
    return top[None]


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
    pending: list[tuple[DecisionTree, tuple[Literal, ...]]] = [(tree, ())]
    while pending:  # depth first, T before F before U
        node, prefix = pending.pop()
        if isinstance(node, Leaf):
            if node.label is TruthValue.T:
                out.append(Conjunction.of(prefix))
            continue
        for edge in reversed(EDGE_VALUES):
            literal = Literal(node.feature, EDGE_POLARITY[edge])
            pending.append((node.children[edge], prefix + (literal,)))
    return tuple(out)


def format_tree(tree: DecisionTree, indent: str = "") -> str:
    """Indented text rendering, for debug dumps."""
    lines = []
    # Lines still to write: a string as it is, a (node, indent) pair as
    # that node's rendering.
    pending: list = [(tree, indent)]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, indent = item
        if isinstance(node, Leaf):
            lines.append(f"{indent}leaf {node.label}\n")
            continue
        name = node.feature.label or f"f{node.feature.index}"
        lines.append(f"{indent}split on {name}\n")
        for edge in reversed(EDGE_VALUES):
            pending += [(node.children[edge], indent + "    "), f"{indent}  {edge} ->\n"]
    return "".join(lines)
