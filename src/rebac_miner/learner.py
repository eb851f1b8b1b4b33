"""DNF formula learning over three-valued data by iterated tree induction.

The learner repeatedly grows a multi-way tree over the not-yet-covered
portion of the dataset, harvests the conjunctions of its T paths, and
scrubs them of is-unknown literals: each such literal is removed when the
conjunction stays valid, otherwise replaced by the first ordinary literal
that keeps the conjunction valid and the batch covering.  Features whose
is-unknown tests resist both are blacklisted from later trees.
:func:`cover_rest` covers the T rows still uncovered one at a time with
per-vector conjunctions and checks the result; the miner's identity route
reruns only this step on a failed attempt's formula, with identity
conjunctions.

The learner judges on row planes (see :mod:`rebac_miner.tvl`) and makes
a :class:`Literal` or :class:`Conjunction` only for a result it keeps.
Within one :func:`learn_formula` call each batch conjunction's rows are
kept next to it and the formula's rows are carried from one iteration to
the next; replacement candidates are walked as planes, and only the one
taken becomes a literal; the default covers are judged on their rows,
decoded for all uncovered rows at once, and made only when they pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import and_, or_
from typing import Callable, Collection, Iterator, Optional, Union

from rebac_miner.tree import build_tree, extract_true_paths
from rebac_miner.tvl import (
    Conjunction,
    DnfFormula,
    FeatureId,
    LabeledDataset,
    Literal,
    Polarity,
    TruthValue,
    bit_indices,
    conjunction_rows,
    covers,
    first_validity_violation,
    literal_rows,
    remove_redundant,
    uncovered_t_rows,
)

T = TruthValue.T


@dataclass(frozen=True)
class LearnResult:
    formula: DnfFormula
    used_fallback: bool
    blacklisted: frozenset[FeatureId]
    iterations: int


@dataclass(frozen=True)
class FailedFeatures:
    """Features whose is-unknown tests could not be eliminated."""

    features: frozenset[FeatureId]


class LearningError(Exception):
    """The learned formula mis-evaluates a row; the dataset cannot be
    exactly characterized with the available features (it is not monotonic
    or lacks separating features).  ``index`` is the row's index in the
    dataset, which the message names (for ``learn-formula``, the 0-based
    data line after the CSV header), and ``row`` its label and cells;
    ``learned`` is the fallback-free result the failed cover started
    from."""

    def __init__(self, dataset: LabeledDataset, index: int, learned: LearnResult):
        self.index = index
        self.row = row = dataset.rows[index]
        self.learned = learned
        problem = "does not grant" if row.label is T else "would grant"
        super().__init__(f"formula {problem} row {index} (labeled {row.label})")


class DefaultCovers:
    """The default cover of each row of the ``remaining`` mask: a positive
    literal per T cell of the row, a negative one per F cell, none for a U
    cell, so the cover is T on its row by construction.

    The cells of all those rows are decoded in one pass over the columns,
    which gives each cover's rows (:attr:`rows`, by row index, lowest
    first); the conjunctions are made only by :meth:`conjunctions`.
    """

    def __init__(self, dataset: LabeledDataset, remaining: int):
        targets = bit_indices(remaining)
        self.rows = rows = dict.fromkeys(targets, dataset.all_rows)

        def decode(mask: int):  # the remaining rows in a mask of some of them
            return targets if mask == remaining else bit_indices(mask) if mask else ()

        # (feature, rows with a T cell, rows with an F cell) per column
        # with a definite cell on a remaining row.
        self._cells = []
        for feature, (t, f) in zip(dataset.features, dataset.planes):
            on_t, on_f = t & remaining, f & remaining
            if not (on_t or on_f):
                continue
            on_t, on_f = decode(on_t), decode(on_f)
            for row in on_t:
                rows[row] &= t
            for row in on_f:
                rows[row] &= f
            self._cells.append((feature, on_t, on_f))

    def conjunctions(self) -> list[Conjunction]:
        """The covers, in :attr:`rows` order."""
        literals = {row: [] for row in self.rows}
        for feature, on_t, on_f in self._cells:
            for polarity, on in ((Polarity.POSITIVE, on_t), (Polarity.NEGATIVE, on_f)):
                if on:
                    literal = Literal(feature, polarity)
                    for row in on:
                        literals[row].append(literal)
        return [Conjunction.of(cover) for cover in literals.values()]


def _replacement_candidates(
    dataset: LabeledDataset, used: Collection[int]
) -> Iterator[tuple[FeatureId, Polarity, int]]:
    """The literals is-unknown elimination may put in, as (feature,
    polarity, the rows the literal is T on): the positive literal of each
    feature whose index is not in ``used``, in the dataset's cost order
    (:attr:`~rebac_miner.tvl.LabeledDataset.by_cost`), then the negative
    ones in the same order."""
    planes = dataset.planes
    for polarity, side in ((Polarity.POSITIVE, 0), (Polarity.NEGATIVE, 1)):
        for feature in dataset.by_cost:
            if feature.index not in used:
                yield feature, polarity, planes[feature.index][side]


def eliminate_unknown_literal(
    conjunction: Conjunction,
    dataset: LabeledDataset,
    granted: int,
    working: int,
) -> Union[Conjunction, FailedFeatures]:
    """Scrub is-unknown literals out of one conjunction.

    Each is-unknown literal, in sort order, is first dropped outright if
    the conjunction stays valid on the full dataset; failing that, it is
    swapped for the first of :func:`_replacement_candidates` (over the
    features unused in the original conjunction and by earlier
    replacements) that keeps the conjunction valid and lets the batch
    still cover the T-labeled rows of the ``working`` row mask, where the
    rest of the batch grants the ``granted`` rows.  If an is-unknown
    literal survives, the features of the original conjunction's
    is-unknown literals are reported for blacklisting.

    Validity and coverage are judged on row planes; a :class:`Literal` is
    made only for a replacement taken.
    """
    everything = dataset.all_rows
    label_t = dataset.labels[0]
    not_t = everything & ~label_t
    # The T rows of ``working`` the rest of the batch leaves uncovered.
    to_cover = working & label_t & ~granted
    unknown = conjunction.unknown_literals()
    kept = [l for l in conjunction.literals if l.polarity is not Polarity.IS_UNKNOWN]
    # The rows of the kept literals, and those of the is-unknown literals
    # after each one (the AND of literal_rows of unknown[k + 1:]).
    rows = everything
    for literal in kept:
        rows &= literal_rows(literal, dataset)
    unknown_rows = [literal_rows(l, dataset) for l in unknown]
    after = [*accumulate(reversed(unknown_rows), and_, initial=everything)][-2::-1]
    used = set(conjunction.feature_indices())
    for later in after:
        attempt = rows & later  # the rows without the literal
        wrong = attempt & not_t
        if not wrong:
            continue
        # A candidate's rows are ``attempt & plane``.  If ``to_cover`` lies
        # within ``attempt``, they are valid and cover it when ``plane``
        # misses ``wrong`` and holds ``to_cover``; if not, none covers it.
        if to_cover & ~attempt:
            candidates = ()
        else:
            candidates = _replacement_candidates(dataset, used)
        for feature, polarity, plane in candidates:
            if not plane & wrong and not to_cover & ~plane:
                kept.append(Literal(feature, polarity))
                used.add(feature.index)
                rows &= plane
                break
        else:
            # Neither removed nor replaced: the literal stays, so the
            # conjunction fails whatever happens to the ones after it.
            return FailedFeatures(frozenset(l.feature for l in unknown))
    return Conjunction.of(kept)


def learn_formula(dataset: LabeledDataset, max_iter: int = 5) -> LearnResult:
    """Learn a DNF formula that evaluates to T exactly on the T-labeled rows.

    Up to ``max_iter`` (at least 1, else ValueError) tree iterations, then
    :func:`cover_rest` with each remaining row's default cover
    (:class:`DefaultCovers`).  Raises LearningError when the final formula
    mis-evaluates a row.  The trees share one split-gain memo (see
    :func:`build_tree`), so a node whose rows an earlier tree already
    split scores only new columns.  Each batch conjunction's rows are kept
    next to it, and the formula's rows are carried from one iteration to
    the next, so no conjunction's rows are computed twice.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    formula = DnfFormula()
    granted = 0  # the rows on which ``formula`` is T
    blacklist: set[FeatureId] = set()
    gains: dict[int, dict[int, float]] = {}
    iterations = 0
    label_t = dataset.labels[0]
    while not covers(granted, dataset) and iterations < max_iter:
        # Every row but the T rows the formula already grants.
        working = dataset.all_rows & ~(label_t & granted)
        tree = build_tree(
            dataset, excluded=frozenset(blacklist), rows=working, memo=gains
        )
        # Each T path's conjunction and its rows, by sort key.
        batch = {
            c.sort_key: (c, conjunction_rows(c, dataset))
            for c in extract_true_paths(tree)
        }
        pending = [(c, rows) for c, rows in batch.values() if c.unknown_literals()]
        # Most-covering conjunctions first, so the features that end up
        # blacklisted do not depend on hash order.
        pending.sort(
            key=lambda item: (
                -(item[1] & working & label_t).bit_count(),
                item[0].sort_key,
            )
        )
        for conjunction, _ in pending:
            del batch[conjunction.sort_key]
            rest = reduce(or_, (rows for _, rows in batch.values()), 0)
            outcome = eliminate_unknown_literal(conjunction, dataset, rest, working)
            if isinstance(outcome, FailedFeatures):
                blacklist.update(outcome.features)
            else:
                batch[outcome.sort_key] = (outcome, conjunction_rows(outcome, dataset))
        formula = DnfFormula.of([*formula.disjuncts, *(c for c, _ in batch.values())])
        granted = reduce(or_, (rows for _, rows in batch.values()), granted)
        iterations += 1

    learned = LearnResult(formula, False, frozenset(blacklist), iterations)
    return cover_rest(learned, granted, dataset)


def cover_rest(
    learned: LearnResult,
    granted: int,
    dataset: LabeledDataset,
    cover: Optional[Callable[[int], Conjunction]] = None,
) -> LearnResult:
    """Cover each T row that ``learned.formula``, which is T on the
    ``granted`` rows, misses; check the result on every row of
    ``dataset``, which may append columns (identity columns) for the
    covers to use; and drop absorbed disjuncts.

    ``cover(row)`` is a row's cover; without ``cover``, each row gets its
    default cover, and :class:`DefaultCovers` gives the rows of all of
    them before any is made.  Raises LearningError, with ``learned``
    attached, when the result grants a row not labeled T or misses one
    labeled T; monotonicity is not checked up front, the post-verification
    is the cheaper and stronger check.  The result is checked on its rows,
    which neither canonical order nor absorbed disjuncts change; its
    conjunctions are tidied only when it passes.
    """
    remaining = uncovered_t_rows(granted, dataset)
    if cover is None:
        defaults = DefaultCovers(dataset, remaining)
        cover_rows = defaults.rows.values()
    else:
        made = [cover(row) for row in bit_indices(remaining)]
        cover_rows = [conjunction_rows(c, dataset) for c in made]
    built = reduce(or_, cover_rows, granted)
    violation = first_validity_violation(built, dataset)
    if violation is not None:
        raise LearningError(dataset, violation, learned)
    uncovered = uncovered_t_rows(built, dataset)
    if uncovered:
        raise LearningError(dataset, bit_indices(uncovered)[0], learned)
    if cover is None:
        made = defaults.conjunctions()
    final = remove_redundant(DnfFormula.of([*learned.formula.disjuncts, *made]))
    return LearnResult(final, bool(remaining), learned.blacklisted, learned.iterations)
