"""Multi-way decision trees over three-valued feature vectors.

Top-down induction: split on the feature with maximal information gain,
ties broken by the dataset's cost order (lower cost, then lower index).
Unlike C4.5, which makes a leaf where no test has positive gain, a node
is split until its rows are empty or share one label or its candidates
run out, so a split may gain nothing.
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
    planes = dataset.planes
    label_t, label_f = dataset.labels

    def pick(candidates: tuple[FeatureId, ...], start: int, rows: int):
        """Position of the split among ``candidates[start:]`` (in cost
        order), the first whose gain is within GAIN_TIE_TOLERANCE of the
        best, and whether every candidate's gain is."""
        scored = memo.setdefault(rows, {})
        remaining = candidates[start:] if start else candidates
        missing = tuple(sorted(f.index for f in remaining if f.index not in scored))
        if missing:
            got = _kernels.split_gains(planes, dataset.labels, RowSet(rows), missing)
            scored.update(zip(missing, got))
        gains = [scored[f.index] for f in remaining]
        floor = max(gains) - GAIN_TIE_TOLERANCE
        k = next(k for k, gain in enumerate(gains) if gain >= floor)
        return k, min(gains) >= floor

    # Nodes still to build, each with the children dict and edge it fills
    # in, its candidates ``candidates[start:]``, and the rows of its parent
    # if every candidate's gain tied there.  Popped depth first and T
    # before F before U, as a recursive build would visit them, so the
    # memo fills in the same order; a stack, not recursion, since a split
    # constant on a node's rows gives a child on the same rows, and a path
    # can use every candidate.
    #
    # Such a child of an all-tied parent is a chain link: its rows are
    # neither empty nor pure (its parent's were not), its gains are its
    # parent's less the pick's, so none exceeds the parent's best and all
    # still tie, and its split is the next candidate, with no scoring.
    top: dict = {}
    pending = [
        (top, None, dataset.all_rows if rows is None else rows, initial, 0, None)
    ]
    while pending:
        parent, edge, rows, candidates, start, tied_rows = pending.pop()
        if rows == tied_rows:
            node = None if start < len(candidates) else Leaf(TruthValue.F)
            k, all_tied = 0, True
        elif not rows:
            node = Leaf(TruthValue.F)
        elif rows & label_t == rows:
            node = Leaf(TruthValue.T)
        elif rows & label_f == rows:
            node = Leaf(TruthValue.F)
        elif not rows & (label_t | label_f):
            node = Leaf(TruthValue.U)
        elif start == len(candidates):
            node = Leaf(TruthValue.F)
        else:
            node = None
            k, all_tied = pick(candidates, start, rows)
        if node is None:
            best = candidates[start + k]
            if k:
                candidates = candidates[start : start + k] + candidates[start + k + 1 :]
                start = 0
            else:
                start += 1
            node = Internal(best, dict.fromkeys(EDGE_VALUES))
            t, f = planes[best.index]
            tied_rows = rows if all_tied else None
            pending += [
                (node.children, e, edge_rows, candidates, start, tied_rows)
                for e, edge_rows in (
                    (TruthValue.U, rows & ~(t | f)),
                    (TruthValue.F, rows & f),
                    (TruthValue.T, rows & t),
                )
            ]
        parent[edge] = node
    return top[None]


def extract_true_paths(tree: DecisionTree) -> tuple[Conjunction, ...]:
    """One conjunction per root-to-leaf path that ends in a T leaf.

    A T edge contributes a positive literal, an F edge a negative one, and
    a U edge an is-unknown literal.
    """
    out: list[Conjunction] = []
    # The (feature, polarity) pairs of the edges to the node popped last.
    # A pending node carries its depth and its own edge's pair; F and U
    # leaves are not pushed, and Literals are made only at a T leaf.
    path: list = []
    pending: list = [(tree, 0, None)]
    while pending:  # depth first, T before F before U
        node, depth, step = pending.pop()
        del path[depth:]
        if step is not None:
            path.append(step)
        if isinstance(node, Leaf):
            if node.label is TruthValue.T:
                out.append(Conjunction.of(Literal(*pair) for pair in path))
            continue
        depth = len(path)
        for edge in reversed(EDGE_VALUES):
            child = node.children[edge]
            if isinstance(child, Internal) or child.label is TruthValue.T:
                pending.append((child, depth, (node.feature, EDGE_POLARITY[edge])))
    return tuple(out)


def format_tree(tree: DecisionTree) -> str:
    """Indented text rendering, for debug dumps."""
    lines = []
    # Lines still to write: a string as it is, a (node, indent) pair as
    # that node's rendering.
    pending: list = [(tree, "")]
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
