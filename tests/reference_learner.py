"""The learner as it was before it judged on planes alone: the oracle of
``rebac_miner.learner``.

This version rebuilds every conjunction's rows from its literals
(``tvl.conjunction_rows``/``dnf_rows``) each time it needs them, makes a
``Literal`` for every replacement candidate and every cell of a default
cover, and removes absorbed disjuncts by comparing every pair.  It shares
the tree learner and the plane evaluators with the program, but none of
the code that decides which conjunctions are kept, so the tests compare
the two on the same datasets: the same ``LearnResult`` or the same
``LearningError``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Optional, Union

from rebac_miner.learner import FailedFeatures, LearningError, LearnResult
from rebac_miner.tree import build_tree, extract_true_paths
from rebac_miner.tvl import (
    Conjunction,
    DnfFormula,
    FeatureId,
    LabeledDataset,
    Literal,
    Polarity,
    bit_indices,
    conjunction_rows,
    dnf_rows,
)


def uncovered_t_rows(formula: DnfFormula, dataset: LabeledDataset) -> int:
    return dataset.labels[0] & ~dnf_rows(formula, dataset)


def covers(formula: DnfFormula, dataset: LabeledDataset) -> bool:
    return not uncovered_t_rows(formula, dataset)


def first_validity_violation(
    formula: DnfFormula, dataset: LabeledDataset
) -> Optional[int]:
    wrong = dnf_rows(formula, dataset) & ~dataset.labels[0]
    return bit_indices(wrong)[0] if wrong else None


def remove_redundant(formula: DnfFormula) -> DnfFormula:
    """Drop every disjunct whose literal set strictly contains another's,
    comparing every pair of disjuncts."""
    disjuncts = formula.disjuncts
    kept = []
    for c in disjuncts:
        absorbed = any(
            other is not c and other.literals < c.literals for other in disjuncts
        )
        if not absorbed:
            kept.append(c)
    return DnfFormula.of(kept)


def default_cover_conjunction(dataset: LabeledDataset, row: int) -> Conjunction:
    """Positive literal per T cell of row ``row``, negative per F cell; U
    cells contribute nothing."""
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
    by_cost = tuple(
        Literal(f, polarity)
        for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE)
        for f in dataset.by_cost
    )
    return tuple(l for l in by_cost if l.feature.index not in used)


def eliminate_unknown_literal(
    conjunction: Conjunction,
    dataset: LabeledDataset,
    batch: Iterable[Conjunction],
    working: int,
) -> Union[Conjunction, FailedFeatures]:
    """Drop or replace each is-unknown literal, in sort order, keeping the
    conjunction valid and the batch covering the T rows of ``working``."""
    not_t = dataset.all_rows & ~dataset.labels[0]
    to_cover = working & dataset.labels[0] & ~dnf_rows(DnfFormula.of(batch), dataset)
    current = conjunction
    planes = dataset.planes
    candidates = None
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
    if current.unknown_literals():
        return FailedFeatures(
            frozenset(l.feature for l in conjunction.unknown_literals())
        )
    return current


def learn_formula(dataset: LabeledDataset, max_iter: int = 5) -> LearnResult:
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    formula = DnfFormula()
    blacklist: set[FeatureId] = set()
    gains: dict[int, dict[int, float]] = {}
    iterations = 0
    label_t = dataset.labels[0]
    while not covers(formula, dataset) and iterations < max_iter:
        working = dataset.all_rows & ~(label_t & dnf_rows(formula, dataset))
        tree = build_tree(
            dataset, excluded=frozenset(blacklist), rows=working, memo=gains
        )
        batch = {c.sort_key: c for c in extract_true_paths(tree)}
        pending = [c for c in batch.values() if c.unknown_literals()]
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
