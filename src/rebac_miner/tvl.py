"""Kleene three-valued logic: truth values, feature vectors, DNF formulas.

Connectives follow the strong-Kleene tables.  Under the *truth* ordering
F < U < T, conjunction is minimum and disjunction is maximum.  The separate
*information* ordering puts U strictly below both definite values; every
formula built from these connectives is monotone with respect to it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class TruthValue(enum.IntEnum):
    """One of the three truth values.  Integer codes double as cell codes."""

    F = 0
    U = 1
    T = 2

    def __str__(self) -> str:
        return self.name

    @classmethod
    def from_text(cls, text: str) -> "TruthValue":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"not a truth value: {text!r}") from None


F = TruthValue.F
U = TruthValue.U
T = TruthValue.T


def kleene_not(t: TruthValue) -> TruthValue:
    return TruthValue(2 - t)


def kleene_and(a: TruthValue, b: TruthValue) -> TruthValue:
    return a if a <= b else b


def kleene_or(a: TruthValue, b: TruthValue) -> TruthValue:
    return a if a >= b else b


def info_leq(a: TruthValue, b: TruthValue) -> bool:
    """Information ordering: a <= b iff a == b or a is unknown."""
    return a == b or a is U


@dataclass(frozen=True, order=True)
class FeatureId:
    """Column handle into a feature table.

    ``cost`` is the structural complexity of the underlying atomic
    condition or constraint; the tree learner uses it to break gain ties.
    ``index`` is the column position and must be unique within one table.
    """

    index: int
    label: str = ""
    cost: int = 1


@dataclass(frozen=True)
class FeatureVector:
    """Positional truth-value assignment over an (implicit) feature table."""

    values: tuple[TruthValue, ...]

    def __getitem__(self, feature) -> TruthValue:
        if isinstance(feature, FeatureId):
            return self.values[feature.index]
        return self.values[feature]

    def __len__(self) -> int:
        return len(self.values)


def fv_leq(v1: FeatureVector, v2: FeatureVector) -> bool:
    """Pointwise information ordering over vectors of equal width."""
    if len(v1) != len(v2):
        raise ValueError(
            f"feature vectors have different widths: {len(v1)} vs {len(v2)}"
        )
    return all(info_leq(a, b) for a, b in zip(v1.values, v2.values))


@dataclass(frozen=True)
class LabeledRow:
    vector: FeatureVector
    label: TruthValue
    provenance: Optional[tuple[str, str]] = None


@dataclass(frozen=True)
class LabeledDataset:
    """An ordered feature table plus labeled feature vectors over it."""

    features: tuple[FeatureId, ...]
    rows: tuple[LabeledRow, ...]

    def __post_init__(self):
        for pos, f in enumerate(self.features):
            if f.index != pos:
                raise ValueError(f"feature at position {pos} has index {f.index}")
        width = len(self.features)
        for i, row in enumerate(self.rows):
            if len(row.vector) != width:
                raise ValueError(f"row {i} has width {len(row.vector)}, expected {width}")

    def to_arrays(self):
        """Cells and labels as uint8 arrays for split scoring."""
        return rows_to_arrays(self.rows, len(self.features))

    def map_cells(self, fn: Callable[[TruthValue], TruthValue]) -> "LabeledDataset":
        """New dataset with every cell (not label) passed through ``fn``."""
        rows = tuple(
            LabeledRow(FeatureVector(tuple(fn(v) for v in r.vector.values)),
                       r.label, r.provenance)
            for r in self.rows
        )
        return LabeledDataset(self.features, rows)


def rows_to_arrays(rows: Sequence[LabeledRow], width: int):
    """Cells as an (n_rows, width) uint8 matrix of truth-value codes, and
    labels as a uint8 vector, for split scoring."""
    n = len(rows)
    cells = np.fromiter(
        chain.from_iterable(row.vector.values for row in rows),
        dtype=np.uint8,
        count=n * width,
    ).reshape(n, width)
    labels = np.fromiter((row.label for row in rows), dtype=np.uint8, count=n)
    return cells, labels


def check_monotonic(
    dataset: LabeledDataset,
) -> Optional[tuple[LabeledRow, LabeledRow]]:
    """Return a violating row pair, or None if the dataset is monotonic.

    A violation is a pair where the first vector is information-below the
    second but its label is not information-below the second's label.
    """
    rows = dataset.rows
    for r1 in rows:
        for r2 in rows:
            if fv_leq(r1.vector, r2.vector) and not info_leq(r1.label, r2.label):
                return (r1, r2)
    return None


class Polarity(enum.Enum):
    """How a literal reads its feature's cell.

    IS_UNKNOWN is a two-valued meta-test ("is this cell U?") used only in
    intermediate conjunctions during learning; it is not expressible as a
    three-valued formula and never survives into a finished one.
    """

    POSITIVE = 0
    NEGATIVE = 1
    IS_UNKNOWN = 2


@dataclass(frozen=True)
class Literal:
    feature: FeatureId
    polarity: Polarity

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.feature.index, self.polarity.value)

    def __str__(self) -> str:
        name = self.feature.label or f"f{self.feature.index}"
        if self.polarity is Polarity.POSITIVE:
            return name
        if self.polarity is Polarity.NEGATIVE:
            return f"not({name})"
        return f"is-unknown({name})"


@dataclass(frozen=True)
class Conjunction:
    """A set of literals, at most one per feature.  Empty means T."""

    literals: frozenset[Literal] = field(default_factory=frozenset)

    def __post_init__(self):
        seen = set()
        for lit in self.literals:
            if lit.feature.index in seen:
                raise ValueError(f"duplicate feature in conjunction: {lit.feature}")
            seen.add(lit.feature.index)

    @classmethod
    def of(cls, literals: Iterable[Literal]) -> "Conjunction":
        return cls(frozenset(literals))

    @property
    def sorted_literals(self) -> tuple[Literal, ...]:
        return tuple(sorted(self.literals, key=lambda l: l.sort_key))

    @property
    def sort_key(self) -> tuple:
        return tuple(l.sort_key for l in self.sorted_literals)

    def feature_indices(self) -> frozenset[int]:
        return frozenset(l.feature.index for l in self.literals)

    def unknown_literals(self) -> tuple[Literal, ...]:
        return tuple(
            l for l in self.sorted_literals if l.polarity is Polarity.IS_UNKNOWN
        )

    def without(self, literal: Literal) -> "Conjunction":
        return Conjunction(self.literals - {literal})

    def with_literal(self, literal: Literal) -> "Conjunction":
        return Conjunction(self.literals | {literal})

    def __str__(self) -> str:
        if not self.literals:
            return "true"
        return " and ".join(str(l) for l in self.sorted_literals)


@dataclass(frozen=True)
class DnfFormula:
    """A disjunction of conjunctions, canonically ordered.  Empty means F."""

    disjuncts: tuple[Conjunction, ...] = ()

    @classmethod
    def of(cls, conjunctions: Iterable[Conjunction]) -> "DnfFormula":
        unique = {c.sort_key: c for c in conjunctions}
        return cls(tuple(unique[k] for k in sorted(unique)))

    def has_unknown_literals(self) -> bool:
        return any(c.unknown_literals() for c in self.disjuncts)

    def __str__(self) -> str:
        if not self.disjuncts:
            return "false"
        return " or ".join(f"({c})" for c in self.disjuncts)


def eval_literal(literal: Literal, vector: FeatureVector) -> TruthValue:
    cell = vector[literal.feature]
    if literal.polarity is Polarity.POSITIVE:
        return cell
    if literal.polarity is Polarity.NEGATIVE:
        return kleene_not(cell)
    return T if cell is U else F


def eval_conjunction(conjunction: Conjunction, vector: FeatureVector) -> TruthValue:
    result = T
    for literal in conjunction.literals:
        value = eval_literal(literal, vector)
        if value is F:
            return F
        if value < result:
            result = value
    return result


def eval_dnf(formula: DnfFormula, vector: FeatureVector) -> TruthValue:
    result = F
    for conjunction in formula.disjuncts:
        value = eval_conjunction(conjunction, vector)
        if value is T:
            return T
        if value > result:
            result = value
    return result


def first_validity_violation(
    formula: DnfFormula, dataset: LabeledDataset
) -> Optional[LabeledRow]:
    """First row labeled F or U that the formula mis-evaluates as T."""
    for row in dataset.rows:
        if row.label is not T and eval_dnf(formula, row.vector) is T:
            return row
    return None


def valid(formula: DnfFormula, dataset: LabeledDataset) -> bool:
    return first_validity_violation(formula, dataset) is None


def uncovered_t_rows(formula: DnfFormula, dataset: LabeledDataset) -> tuple[LabeledRow, ...]:
    return tuple(
        row
        for row in dataset.rows
        if row.label is T and eval_dnf(formula, row.vector) is not T
    )


def covers(formula: DnfFormula, dataset: LabeledDataset) -> bool:
    return not uncovered_t_rows(formula, dataset)


def remove_redundant(formula: DnfFormula) -> DnfFormula:
    """Drop every disjunct whose literal set strictly contains another's.

    Equal literal sets are already collapsed to one representative by the
    canonical constructor.  Evaluation is unchanged on every vector.
    """
    disjuncts = formula.disjuncts
    kept = []
    for c in disjuncts:
        absorbed = any(
            other is not c and other.literals < c.literals for other in disjuncts
        )
        if not absorbed:
            kept.append(c)
    return DnfFormula.of(kept)
