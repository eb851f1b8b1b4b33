"""Kleene three-valued logic: truth values, feature vectors, DNF formulas.

Formulas are read under the strong-Kleene tables: under the *truth*
ordering F < U < T, conjunction is minimum and disjunction is maximum.

Labeled datasets are stored as bitplanes over their rows (see the section
below), and the program evaluates literals, conjunctions and DNF formulas
only there, by bit operations: a formula's rows are the rows on which it
is T.  The per-row connectives and evaluators they are tested against live
in the test suite (``tests/oracles.py``).
This module knows rows, truth values and formulas only: which subject and
resource a mined dataset's row stands for is
:meth:`rebac_miner.model.PairLayout.position`'s to say.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Optional


class TruthValue(enum.IntEnum):
    """One of the three truth values, as integers in the truth order F < U < T."""

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


@dataclass(frozen=True, order=True)
class FeatureId:
    """Column handle into a feature table.

    ``cost`` is the structural complexity of the underlying atomic
    condition or constraint; the learner prefers cheaper features, in the
    order :attr:`LabeledDataset.by_cost` gives.
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


@dataclass(frozen=True)
class LabeledRow:
    vector: FeatureVector
    label: TruthValue


# --- bitplanes ---------------------------------------------------------------
#
# A plane is a Python int over a sequence of rows: bit k stands for row k.
# A three-valued column is a (T, F) pair of disjoint planes; its U rows are
# those in neither, U = not(T or F).


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative int, lowest first."""
    bits = format(mask, "b")[::-1]
    out = []
    k = bits.find("1")
    while k >= 0:
        out.append(k)
        k = bits.find("1", k + 1)
    return out


def mask_of(positions: Iterable[int], size: int) -> int:
    """The plane over ``size`` rows with exactly the given bits set."""
    buf = bytearray((size + 7) // 8)
    for k in positions:
        buf[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(buf, "little")


def planes_of(values: Iterable[TruthValue]) -> tuple[int, int]:
    """The (T, F) plane pair of a column given row by row."""
    values = tuple(values)
    return tuple(
        mask_of((k for k, v in enumerate(values) if v is want), len(values))
        for want in (T, F)
    )


def _cells(pair: tuple[int, int], size: int) -> tuple[TruthValue, ...]:
    """The truth values of a (T, F) plane pair, row by row."""
    if not size:
        return ()
    t_bits, f_bits = (format(plane, f"0{size}b")[::-1] for plane in pair)
    return tuple(
        T if a == "1" else F if b == "1" else U for a, b in zip(t_bits, f_bits)
    )


@dataclass(frozen=True)
class LabeledDataset:
    """An ordered feature table plus labeled rows over it, as bitplanes.

    Column i is the (T, F) plane pair ``planes[i]`` and the labels are the
    pair ``labels``, all over ``size`` rows.  :attr:`rows` derives
    :class:`LabeledRow` objects from these on access.
    """

    features: tuple[FeatureId, ...]
    planes: tuple[tuple[int, int], ...]
    labels: tuple[int, int]
    size: int

    def __post_init__(self):
        self._check_features()
        self._check(self.planes + (self.labels,))

    def _check_features(self) -> None:
        """Raise ValueError unless feature i has index i and there is a
        plane pair per feature."""
        for pos, f in enumerate(self.features):
            if f.index != pos:
                raise ValueError(f"feature at position {pos} has index {f.index}")
        if len(self.planes) != len(self.features):
            raise ValueError("need a plane pair per feature")

    def _check(self, pairs: tuple[tuple[int, int], ...]) -> None:
        """Raise ValueError unless each pair is disjoint and within the rows."""
        if any(t & f or (t | f) >> self.size for t, f in pairs):
            raise ValueError("T and F planes must be disjoint and within the rows")

    def _copy(self, **fields) -> "LabeledDataset":
        """This dataset with some fields replaced, made without the checks
        of the constructor: the caller checks what it replaced."""
        copy = object.__new__(LabeledDataset)
        for name in ("features", "planes", "labels", "size"):
            object.__setattr__(copy, name, fields.get(name, getattr(self, name)))
        return copy

    def with_columns(
        self,
        features: tuple[FeatureId, ...],
        kept: tuple[tuple[int, int], ...],
        added: tuple[tuple[int, int], ...] = (),
    ) -> "LabeledDataset":
        """This dataset's rows and labels under new columns: ``kept``, plane
        pairs taken from this dataset, then ``added``.  Only the added
        pairs are checked for disjointness and range; the kept ones were
        when this dataset was made."""
        copy = self._copy(features=features, planes=kept + added)
        copy._check_features()
        copy._check(added)
        return copy

    def with_labels(self, labels: tuple[int, int]) -> "LabeledDataset":
        """This dataset's columns under new label planes, which alone are
        checked for disjointness and range.  The copy shares this
        dataset's :attr:`all_rows` and :attr:`by_cost`, which do not
        depend on the labels."""
        copy = self._copy(labels=labels)
        copy._check((labels,))
        copy.__dict__.update(all_rows=self.all_rows, by_cost=self.by_cost)
        return copy

    @classmethod
    def from_rows(
        cls, features: Sequence[FeatureId], rows: Sequence[LabeledRow]
    ) -> "LabeledDataset":
        features, rows = tuple(features), tuple(rows)
        if any(len(row.vector) != len(features) for row in rows):
            raise ValueError(f"every row needs {len(features)} cells")
        columns = zip(*(r.vector.values for r in rows)) if rows else [()] * len(features)
        return cls(
            features,
            tuple(map(planes_of, columns)),
            planes_of(row.label for row in rows),
            len(rows),
        )

    @cached_property
    def all_rows(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def by_cost(self) -> tuple[FeatureId, ...]:
        """The features cheapest first (by cost, then index): the learner's
        one order of preference among features, for splits and for
        is-unknown elimination's replacement literals."""
        return tuple(sorted(self.features, key=lambda f: (f.cost, f.index)))

    @property
    def rows(self) -> "_Rows":
        return _Rows(self)


class _Rows(Sequence):
    """The rows of a dataset as :class:`LabeledRow` objects, made on access.
    Indexing takes negative indices and raises IndexError out of range, as
    a tuple does; a slice gives a tuple."""

    def __init__(self, dataset: LabeledDataset):
        self._dataset = dataset

    def __len__(self) -> int:
        return self._dataset.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self._at, range(len(self))[k]))
        return self._at(range(len(self))[k])

    def _at(self, k: int) -> LabeledRow:
        ds = self._dataset

        def cell(t: int, f: int) -> TruthValue:
            return T if t >> k & 1 else F if f >> k & 1 else U

        cells = tuple(cell(t, f) for t, f in ds.planes)
        return LabeledRow(FeatureVector(cells), cell(*ds.labels))

    def __iter__(self):
        ds = self._dataset
        columns = [_cells(pair, ds.size) for pair in ds.planes]
        vectors = zip(*columns) if columns else [()] * ds.size
        labels = _cells(ds.labels, ds.size)
        for cells, label in zip(vectors, labels):
            yield LabeledRow(FeatureVector(cells), label)


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

    @cached_property
    def sorted_literals(self) -> tuple[Literal, ...]:
        return tuple(sorted(self.literals, key=lambda l: l.sort_key))

    @cached_property
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

    def __str__(self) -> str:
        if not self.disjuncts:
            return "false"
        return " or ".join(f"({c})" for c in self.disjuncts)


# The cell value each polarity of literal is T on.
LITERAL_VALUE = {Polarity.POSITIVE: T, Polarity.NEGATIVE: F, Polarity.IS_UNKNOWN: U}


def literal_rows(literal: Literal, dataset: LabeledDataset) -> int:
    """Rows on which ``literal`` is T: its column's T or F plane as it is,
    or for an is-unknown literal the rows in neither."""
    t, f = dataset.planes[literal.feature.index]
    polarity = literal.polarity
    if polarity is Polarity.POSITIVE:
        return t
    if polarity is Polarity.NEGATIVE:
        return f
    return dataset.all_rows & ~(t | f)


def conjunction_rows(conjunction: Conjunction, dataset: LabeledDataset) -> int:
    """Rows on which ``conjunction`` is T: the AND of its literals'
    :func:`literal_rows`, since a Kleene conjunction is T exactly where all
    its literals are."""
    rows = dataset.all_rows
    for literal in conjunction.literals:
        rows &= literal_rows(literal, dataset)
    return rows


def dnf_rows(formula: DnfFormula, dataset: LabeledDataset) -> int:
    """Rows on which ``formula`` is T: the OR of its disjuncts' rows, since
    a Kleene disjunction is T exactly where one of its disjuncts is."""
    rows = 0
    for conjunction in formula.disjuncts:
        rows |= conjunction_rows(conjunction, dataset)
    return rows


def first_validity_violation(granted: int, dataset: LabeledDataset) -> Optional[int]:
    """Index of the first row labeled F or U among the ``granted`` rows
    (the rows on which a formula is T, as :func:`dnf_rows` gives them):
    the first row that formula mis-evaluates as T."""
    wrong = granted & ~dataset.labels[0]
    return bit_indices(wrong)[0] if wrong else None


def uncovered_t_rows(granted: int, dataset: LabeledDataset) -> int:
    """Rows labeled T outside the ``granted`` rows: the T rows that a
    formula T on exactly those rows misses."""
    return dataset.labels[0] & ~granted


def covers(granted: int, dataset: LabeledDataset) -> bool:
    """Whether the ``granted`` rows hold every row labeled T."""
    return not uncovered_t_rows(granted, dataset)


def remove_redundant(formula: DnfFormula) -> DnfFormula:
    """Drop every disjunct whose literal set strictly contains another's.

    Equal literal sets are already collapsed to one representative by the
    canonical constructor.  Evaluation is unchanged on every vector.

    A disjunct is compared only with strictly smaller ones that share one
    of its literals: each disjunct is filed under its literal that the
    fewest disjuncts hold (a literal is named by its sort key), and a
    disjunct looks only in the files of its own literals, where every
    disjunct it contains is.  The empty disjunct (true) absorbs every
    other.
    """
    disjuncts = formula.disjuncts
    keys = [c.sort_key for c in disjuncts]
    if () in keys:
        return DnfFormula((Conjunction(),))
    holders = Counter(chain.from_iterable(keys))
    filed: dict[tuple[int, int], list[Conjunction]] = {}
    for c, key in zip(disjuncts, keys):
        filed.setdefault(min(key, key=holders.__getitem__), []).append(c)
    kept = [
        c
        for c, key in zip(disjuncts, keys)
        if not any(other.literals < c.literals for k in key for other in filed.get(k, ()))
    ]
    return DnfFormula.of(kept)
