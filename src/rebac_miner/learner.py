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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Union

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
    dnf_rows,
    first_validity_violation,
    remove_redundant,
    uncovered_t_rows,
)

T = TruthValue.T


class IdStrategy(enum.Enum):
    """How identity conditions enter when ordinary features do not suffice."""

    RETRY_WITH_ID_FEATURES = "retry"
    PER_VECTOR_ID_CONJUNCTION = "per-vector"


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


def default_cover_conjunction(dataset: LabeledDataset, row: int) -> Conjunction:
    """Positive literal per T cell of row ``row``, negative per F cell; U
    cells contribute nothing.  Evaluates to T on that row by construction."""
    bit = 1 << row
    literals = []
    for feature, (t, f) in zip(dataset.features, dataset.planes):
        if t & bit:
            literals.append(Literal(feature, Polarity.POSITIVE))
        elif f & bit:
            literals.append(Literal(feature, Polarity.NEGATIVE))
    return Conjunction.of(literals)


def _replacement_literals(
    original: Conjunction, dataset: LabeledDataset
) -> tuple[Literal, ...]:
    """The positive literals of the features ``original`` does not use,
    then their negative ones, each in the dataset's cost order."""
    used = original.feature_indices()
    return tuple(l for l in dataset.literals_by_cost if l.feature.index not in used)


def eliminate_unknown_literal(
    conjunction: Conjunction,
    dataset: LabeledDataset,
    batch: Iterable[Conjunction],
    working: int,
) -> Union[Conjunction, FailedFeatures]:
    """Scrub is-unknown literals out of one conjunction.

    Each is-unknown literal is first dropped outright if the conjunction
    stays valid on the full dataset; failing that, it is swapped for the
    first candidate literal (over features unused in the original
    conjunction) that keeps the conjunction valid and lets the batch still
    cover the T-labeled rows of the ``working`` row mask.  If any
    is-unknown literal survives, the features of the original conjunction's
    is-unknown literals are reported for blacklisting.
    """
    not_t = dataset.all_rows & ~dataset.labels[0]
    # The T rows of ``working`` the rest of the batch leaves uncovered.
    to_cover = working & dataset.labels[0] & ~dnf_rows(DnfFormula.of(batch), dataset)
    current = conjunction
    planes = dataset.planes
    candidates = None  # made when a literal first needs replacing
    for unknown_lit in conjunction.unknown_literals():
        attempt = current.without(unknown_lit)
        attempt_rows = conjunction_rows(attempt, dataset)
        if not attempt_rows & not_t:
            current = attempt
            continue
        if candidates is None:
            candidates = _replacement_literals(conjunction, dataset)
        used = current.feature_indices()
        for candidate in candidates:
            if candidate.feature.index in used:
                continue
            t, f = planes[candidate.feature.index]
            rows = attempt_rows & (t if candidate.polarity is Polarity.POSITIVE else f)
            if not rows & not_t and not to_cover & ~rows:
                current = attempt.with_literal(candidate)
                break
        # No removal and no replacement: the literal stays, which will
        # trigger the blacklist path below.
    if current.unknown_literals():
        return FailedFeatures(
            frozenset(l.feature for l in conjunction.unknown_literals())
        )
    return current


def learn_formula(dataset: LabeledDataset, max_iter: int = 5) -> LearnResult:
    """Learn a DNF formula that evaluates to T exactly on the T-labeled rows.

    Up to ``max_iter`` (at least 1, else ValueError) tree iterations, then
    :func:`cover_rest` with :func:`default_cover_conjunction` for the rows
    they leave uncovered.  Raises LearningError when the final formula
    mis-evaluates a row.  The trees share one split-gain memo (see
    :func:`build_tree`), so a node whose rows an earlier tree already
    split scores only new columns.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    formula = DnfFormula()
    blacklist: set[FeatureId] = set()
    gains: dict[int, dict[int, float]] = {}
    iterations = 0
    label_t = dataset.labels[0]
    while not covers(formula, dataset) and iterations < max_iter:
        # Every row but the T rows the formula already grants.
        working = dataset.all_rows & ~(label_t & dnf_rows(formula, dataset))
        tree = build_tree(
            dataset, excluded=frozenset(blacklist), rows=working, memo=gains
        )
        batch = {c.sort_key: c for c in extract_true_paths(tree)}
        pending = [c for c in batch.values() if c.unknown_literals()]
        # Most-covering conjunctions first, so the features that end up
        # blacklisted do not depend on hash order.
        pending.sort(
            key=lambda c: (
                -(conjunction_rows(c, dataset) & working & label_t).bit_count(),
                c.sort_key,
            )
        )
        for conjunction in pending:
            del batch[conjunction.sort_key]
            outcome = eliminate_unknown_literal(conjunction, dataset, batch.values(), working)
            if isinstance(outcome, FailedFeatures):
                blacklist.update(outcome.features)
            else:
                batch[outcome.sort_key] = outcome
        formula = DnfFormula.of([*formula.disjuncts, *batch.values()])
        iterations += 1

    learned = LearnResult(formula, False, frozenset(blacklist), iterations)
    return cover_rest(learned, dataset, partial(default_cover_conjunction, dataset))


def cover_rest(
    learned: LearnResult, dataset: LabeledDataset, cover: Callable[[int], Conjunction]
) -> LearnResult:
    """Add ``cover(row)`` for each T row ``learned.formula`` misses, check
    the result on every row of ``dataset``, which may append columns
    (identity columns) for the covers to use, and drop absorbed disjuncts.

    Raises LearningError, with ``learned`` attached, when the result grants
    a row not labeled T or misses one labeled T; monotonicity is not checked
    up front, the post-verification is the cheaper and stronger check.
    The formula is checked as built, since neither canonical order nor
    absorbed disjuncts change its rows; only one that passes is tidied.
    """
    remaining = uncovered_t_rows(learned.formula, dataset)
    built = DnfFormula((*learned.formula.disjuncts, *map(cover, bit_indices(remaining))))
    violation = first_validity_violation(built, dataset)
    if violation is not None:
        raise LearningError(dataset, violation, learned)
    uncovered = uncovered_t_rows(built, dataset)
    if uncovered:
        raise LearningError(dataset, bit_indices(uncovered)[0], learned)
    final = remove_redundant(DnfFormula.of(built.disjuncts))
    return LearnResult(final, bool(remaining), learned.blacklisted, learned.iterations)
