"""The mining pipeline: authorization lists in, concise rule sets out.

Phase 1 decomposes the problem per (subject type, resource type, action),
learns one DNF formula per task, and turns its conjunctions into rules.
The tasks of one (subject type, resource type) differ only in their
labels, so they learn over one feature table and one set of columns,
prepared once per class pair.
Identity conditions stay out of the first attempt; when a task's dataset
cannot be exactly characterized without them, the configured strategy
either relearns over a table that includes identity conditions or keeps
the first attempt's learned conjunctions and covers the T rows they miss
with per-pair identity conjunctions.

Phase 2 optionally eliminates negated atomics (producing negation-free
policies) and then merges and simplifies rules to a fixpoint.  Phase 2a
runs per task on the rules just extracted from its formula, with the
task's feature table; it judges each candidate rewrite on pair planes and
keeps one only if the rule stays valid and keeps its own grants.
Phase 2b changes the rules only through one gate, ``_Phase2.replace``,
which accepts a change only if the policy's meaning is preserved exactly
and its weighted structural complexity does not grow.  A final check,
run on every route, compares the mined policy's meaning, one pair plane
per (subject type, resource type, action), with the input authorizations'
planes.  It refuses the policy on any difference, except on the naive
unknown-as-false diagnostic, which reports the difference instead.
"""

from __future__ import annotations

import logging
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cache, partial, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import and_, attrgetter, itemgetter, or_
from typing import Callable, Collection, Iterable, Optional

from rebac_miner.features import (
    ExtractionLimits,
    FeatureTable,
    build_dataset,
    enumerate_condition_features,
    extend_with_id_columns,
    observed_constants,
    prune_useless,
    task_labels,
)
from rebac_miner.learner import (
    IdStrategy,
    LearnResult,
    LearningError,
    cover_rest,
    learn_formula,
)
from rebac_miner.model import (
    BOOLEAN,
    ID_FIELD,
    AclPolicy,
    AtomicCondition,
    Policy,
    Rule,
    Slot,
    SraTuple,
    meaning_mismatch,
    pair_planes,
    path_type,
    plane_tuples,
    policy_planes,
    policy_wsc,
    sort_rules,
    value_index,
    wsc,
)
# Imported under the name rule_meaning: the benchmark's tracer wraps
# miner.rule_meaning to time and count rule meanings per phase.
from rebac_miner.model import rule_plane as rule_meaning
from rebac_miner.tvl import DnfFormula, LabeledDataset, Polarity, dnf_rows

Observer = Callable[[str, tuple[Rule, ...]], None]

_sort_key = attrgetter("sort_key")
_cost_and_rank = itemgetter(0, 1)

log = logging.getLogger(__name__)


class MinerError(Exception):
    """The pipeline cannot produce a consistent policy for this input."""


@dataclass(frozen=True)
class MinerConfig:
    """allow_negation=True mines the negation-bearing language; False adds
    the negative-feature elimination step.  ``max_iter`` is each task's
    :func:`~rebac_miner.learner.learn_formula` tree iteration bound, at
    least 1 (else ValueError when the config is made)."""

    allow_negation: bool = True
    id_strategy: IdStrategy = IdStrategy.PER_VECTOR_ID_CONJUNCTION
    limits: ExtractionLimits = ExtractionLimits()
    max_iter: int = 5

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class TaskReport:
    subject_type: str
    resource_type: str
    action: str
    table: FeatureTable
    dataset: LabeledDataset
    result: LearnResult
    retried_with_ids: bool


@dataclass(frozen=True)
class MineResult:
    """The mined policy, its tasks, and the final check's findings: the
    smallest input authorization the policy does not grant (``missing``)
    and the smallest tuple it grants beyond them (``extra``), each None if
    there is none.  Both are None unless the run was ``unknown_as_false``,
    since otherwise a difference raises :class:`MinerError`."""

    policy: Policy
    tasks: tuple[TaskReport, ...]
    missing: Optional[SraTuple]
    extra: Optional[SraTuple]


def mine(acl: AclPolicy, cfg: MinerConfig = MinerConfig()) -> Policy:
    """Mine a policy whose meaning equals the input authorizations."""
    return mine_detailed(acl, cfg).policy


def naive_unknown_as_false_diagnostic(
    acl: AclPolicy, cfg: MinerConfig = MinerConfig()
) -> Policy:
    """Run the pipeline with every unknown cell coerced to F.

    A diagnostic only: collapsing the third truth value loses exactly the
    information that makes unknown-bearing data minable, and the result is
    generally inconsistent with the input authorizations.
    """
    return mine_detailed(acl, cfg, unknown_as_false=True).policy


def mine_detailed(
    acl: AclPolicy,
    cfg: MinerConfig = MinerConfig(),
    unknown_as_false: bool = False,
    jobs: int = 1,
    observer: Optional[Observer] = None,
) -> MineResult:
    """Mine ``acl`` into a policy and report each (subject type, resource
    type, action) task it learned.

    The tasks are the keys of ``acl.au_planes``, whose first read checks
    the authorizations against the model (an ACL built with
    ``actions=None`` was read when built): a bad triple, an unknown object
    or an undeclared action raises :class:`~rebac_miner.model.ModelError`
    before any learning.  The tasks of one (subject type, resource type)
    share their candidate features and columns, which are prepared once
    per class pair (:func:`_run_class_pair`); with ``jobs`` > 1 the class
    pairs are run in a thread pool, and the reports stay in sorted task
    order.  The policy's rules are phase 2b's, which are unique and in
    ``sort_key`` order.  On every route the mined policy's meaning is
    checked against the authorizations, each rule's plane computed
    afresh.  A difference raises :class:`MinerError` naming its smallest
    tuple; with ``unknown_as_false`` it is returned on the result's
    ``missing`` and ``extra`` instead.
    """
    cm, om = acl.class_model, acl.object_model
    actions: dict[tuple[str, str], list[str]] = {}
    for s_cls, r_cls, action in sorted(acl.au_planes):
        actions.setdefault((s_cls, r_cls), []).append(action)

    def run(pair):
        return _run_class_pair(acl, cfg, pair, actions[pair], unknown_as_false)

    if jobs > 1 and len(actions) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_pair = list(pool.map(run, actions))
    else:
        per_pair = [run(pair) for pair in actions]
    reports = [report for pair_reports in per_pair for report in pair_reports]

    rules = []
    for report in reports:
        task_rules = extract_rules(
            report.result.formula,
            report.table,
            report.subject_type,
            report.resource_type,
            report.action,
        )
        if not cfg.allow_negation:
            task_rules = _eliminate_task_negatives(task_rules, acl, report.table)
        rules.extend(task_rules)

    rules = merge_and_simplify(rules, acl, limits=cfg.limits, observer=observer)

    policy = Policy(cm, om, acl.actions, rules)
    missing, extra = meaning_mismatch(
        om, policy_planes(policy.rules, partial(rule_meaning, cm, om)), acl.au_planes
    )
    if not unknown_as_false and (missing or extra):
        diff = min(t for t in (missing, extra) if t)
        raise MinerError(f"mined policy disagrees with input at {diff}")
    return MineResult(policy, tuple(reports), missing, extra)


def _run_class_pair(acl, cfg, pair, actions, unknown_as_false) -> list[TaskReport]:
    """The reports of the tasks of one (subject type, resource type), one
    per action, in ``actions`` order.

    The tasks differ only in their labels, so the class pair's feature
    table and columns are prepared once per extraction limits: built
    (:meth:`FeatureTable.build`, :func:`build_dataset`), rewritten to two
    values if ``unknown_as_false``, and pruned (:func:`prune_useless`,
    which reads the columns only).  The identity-retry limits are prepared
    only when a task first needs them.  Each task learns over the prepared
    columns with its own label planes (:func:`_run_task`).
    """
    subject_type, resource_type = pair
    cm, om = acl.class_model, acl.object_model

    @cache
    def prepare(limits):
        table = FeatureTable.build(cm, om, subject_type, resource_type, limits)
        dataset = build_dataset(acl, subject_type, resource_type, actions[0], table)
        if unknown_as_false:
            everything = dataset.all_rows
            dataset = replace(
                dataset, planes=tuple((t, everything & ~t) for t, _ in dataset.planes)
            )
        return prune_useless(table, dataset)

    return [
        _run_task(acl, cfg, (subject_type, resource_type, action), prepare)
        for action in actions
    ]


def _run_task(acl, cfg, key, prepare) -> TaskReport:
    """Learn the task ``key`` over its class pair's columns, as
    ``prepare(limits)`` gives them, with the task's own labels
    (:func:`task_labels`); on a :class:`LearningError`, finish it by the
    configured identity strategy."""
    labels = task_labels(acl, *key)

    def task_columns(limits):
        table, dataset = prepare(limits)
        return table, dataset.with_labels(labels)

    table, dataset = task_columns(cfg.limits)
    retried = False
    try:
        result = learn_formula(dataset, cfg.max_iter)
    except LearningError as failed:
        retried = True
        if cfg.id_strategy is IdStrategy.RETRY_WITH_ID_FEATURES:
            table, dataset = task_columns(replace(cfg.limits, include_id_conditions=True))
            finish = partial(learn_formula, dataset, cfg.max_iter)
            what = "identity conditions"
        else:
            # The first attempt's conjunctions stand: only the T rows they
            # miss are covered again, by per-pair identity conjunctions.
            table, dataset, supplier, _ = extend_with_id_columns(
                acl, *key[:2], table, dataset
            )
            granted = dnf_rows(failed.learned.formula, dataset)
            finish = partial(cover_rest, failed.learned, granted, dataset, supplier)
            what = "per-pair identity conjunctions"
        try:
            result = finish()
        except LearningError as exc:
            raise MinerError(f"task {key}: inconsistent even with {what} ({exc})") from exc
    return TaskReport(*key, table, dataset, result, retried)


def extract_rules(
    formula: DnfFormula,
    table: FeatureTable,
    subject_type: str,
    resource_type: str,
    action: str,
) -> tuple[Rule, ...]:
    """One rule per disjunct; negative literals become negated atomics."""
    rules = []
    for conjunction in formula.disjuncts:
        atomics = []
        for literal in conjunction.sorted_literals:
            if literal.polarity is Polarity.IS_UNKNOWN:
                raise MinerError(
                    f"cannot extract a rule from an is-unknown literal: {literal}"
                )
            entry = table.entry(literal.feature)
            negative = literal.polarity is Polarity.NEGATIVE
            atomics.append((entry.kind, entry.negated_payload if negative else entry.payload))
        rules.append(_rule_of(subject_type, resource_type, atomics, frozenset({action})))
    return sort_rules(rules)


def _rule_of(s_cls: str, r_cls: str, atomics: Iterable, actions: frozenset) -> Rule:
    """The rule from ``s_cls`` to ``r_cls`` with ``atomics``, (slot, atomic) pairs."""
    parts = (set(), set(), set())  # indexed by Slot
    for slot, atomic in atomics:
        parts[slot].add(atomic)
    s, r, c = map(frozenset, parts)
    return Rule(s_cls, s, r_cls, r, c, actions)


# ---------------------------------------------------------------------------
# Phase 2a: negative-feature elimination (negation-free mode only)


def _eliminate_task_negatives(
    rules: tuple[Rule, ...], acl: AclPolicy, table: FeatureTable
) -> list[Rule]:
    """Phase 2a for one task: its ``rules``, one action each, rewritten in
    order by :func:`eliminate_negative_features` with the task's ``table``.
    A rule's ``others`` are the task's rewritten rules before it and its
    rules still to come; an identity split reads cover only for its own
    (subject type, resource type, action), which only this task's rules
    can grant."""
    out: list[Rule] = []
    for i, rule in enumerate(rules):
        out.extend(eliminate_negative_features(rule, acl, table, out + list(rules[i + 1:])))
    return out


def eliminate_negative_features(
    rule: Rule,
    acl: AclPolicy,
    table: FeatureTable,
    others: Iterable[Rule] = (),
) -> tuple[Rule, ...]:
    """Rewrite one rule in one pass so that it carries no negated atomics.

    Substeps per negated atomic, first success wins: (1) drop it if the
    rule stays valid; (2) swap in the cheapest positive table feature that
    keeps the rule valid without shrinking its granted set; (3) for a
    negated membership condition, flip to the complement of its constants
    over the observed domain; (4) flip to the constants actually navigated
    by the rule's granted subjects/resources.  If some negated atomic
    survives all four, the rule as rewritten so far is replaced by
    per-pair identity rules for the tuples no rule of ``others`` grants.
    Candidates are judged on pair planes: without negated atomic k, the
    rule's plane ``base`` is the AND of the T-planes (:func:`pair_planes`)
    of the atomics kept or swapped in before k and of every atomic after k.
    Only the rule returned, or the one split, is built as a :class:`Rule`.
    """
    atomics = rule.atomics()
    if not any(a.negated for _, a in atomics):
        return (rule,)
    cm, om = acl.class_model, acl.object_model
    s_cls, r_cls = rule.subject_type, rule.resource_type
    t = [pair_planes(cm, om, s_cls, r_cls, slot, a)[a.negated] for slot, a in atomics]
    full = om.pairs(s_cls, r_cls).full
    after = [*accumulate(reversed(t), and_, initial=full)][-2::-1]  # AND of t[k + 1:]
    allowed = _allowed(rule, acl)
    granting = reduce(or_, _au_planes_of(rule, acl))
    kept, before = [], full  # the rewritten atomics before k, and their AND
    for k, (slot, atomic) in enumerate(atomics):
        if not atomic.negated:
            kept.append((slot, atomic))
            before &= t[k]
            continue
        base = before & after[k]
        if not base & ~allowed:  # (1) plain removal
            continue
        # What the rule grants: its pairs that some action's AU plane holds.
        own = base & t[k] & granting
        for new_slot, new in _replacements(rule, slot, atomic, acl, table, own):
            new_t = pair_planes(cm, om, s_cls, r_cls, new_slot, new)[new.negated]
            # Valid, and still granting everything the rule granted before.
            if not base & new_t & ~allowed and not own & ~new_t:
                kept.append((new_slot, new))
                before &= new_t
                break
        else:
            rest = _rule_of(s_cls, r_cls, kept + list(atomics[k:]), rule.actions)
            return _id_split(rest, acl, others)
    return (_rule_of(s_cls, r_cls, kept, rule.actions),)


def _au_planes_of(rule: Rule, acl: AclPolicy) -> list[int]:
    """The AU's pair planes for each of the rule's actions."""
    au = acl.au_planes
    return [au.get((rule.subject_type, rule.resource_type, a), 0) for a in rule.actions]


def _allowed(rule: Rule, acl: AclPolicy) -> int:
    """The pairs ``rule`` may grant and stay within the AU.  A rule grants
    the same pairs for each of its actions, so this is the AND of its
    actions' AU planes."""
    return reduce(and_, _au_planes_of(rule, acl))


def _replacements(rule, slot, atomic, acl, table, own):
    """The (slot, atomic) candidates of substeps (2)-(4) for the negated
    ``atomic``, in order; ``own`` is the pair plane the rule must keep."""
    # (2) positive table features, cheapest first
    for entry in table.by_wsc:
        yield entry.kind, entry.payload
    if slot is Slot.CONSTRAINT or atomic.op != "in":
        return
    cm, om = acl.class_model, acl.object_model
    cls = rule.subject_type if slot is Slot.SUBJECT else rule.resource_type

    # (3) complement over the observed constant domain
    if path_type(cm, cls, atomic.path)[0] == BOOLEAN:
        domain = {True, False}
    else:
        domain = observed_constants(cm, om, cls, atomic.path)
    complement = frozenset(domain) - atomic.value
    if complement:
        yield slot, AtomicCondition(atomic.path, "in", complement)

    # (4) constants navigated by the rule's currently granted pairs
    values = value_index(cm, om, cls, atomic.path).values
    atoms = set()
    for i, j in om.pairs(rule.subject_type, rule.resource_type).positions(own):
        value = values[i if slot is Slot.SUBJECT else j]
        if isinstance(value, (str, bool)):
            atoms.add(value)
    if atoms:
        yield slot, AtomicCondition(atomic.path, "in", frozenset(atoms))


def _id_split(rule: Rule, acl: AclPolicy, others: Iterable[Rule]) -> tuple[Rule, ...]:
    om = acl.object_model
    s_cls, r_cls = rule.subject_type, rule.resource_type
    own = rule_meaning(acl.class_model, om, rule)
    covered = policy_planes(others, partial(rule_meaning, acl.class_model, om))
    uncovered = sorted(
        t
        for a in rule.actions
        for t in plane_tuples(
            om, s_cls, r_cls, own & ~covered.get((s_cls, r_cls, a), 0), (a,)
        )
    )
    out = []
    for t in uncovered:
        out.append(
            Rule(
                s_cls,
                frozenset({AtomicCondition((ID_FIELD,), "in", frozenset({t.subject}))}),
                r_cls,
                frozenset({AtomicCondition((ID_FIELD,), "in", frozenset({t.resource}))}),
                frozenset(),
                frozenset({t.action}),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# Phase 2b: merge and simplify to a fixpoint


class _Phase2:
    """Phase 2b's current rules and the one gate that changes them.

    ``replace`` is the only way a step changes the rules.  ``current`` is
    the one store of them, a dict whose keys are the rules; ``rules`` is
    the same rules sorted by ``sort_key``, built on its first read after a
    change, and ``wsc`` is their policy WSC.  Meanings are pair planes: a
    rule's is one plane (:func:`rebac_miner.model.rule_plane`, cached per
    rule by ``meaning_of``) and a policy's is a
    :data:`rebac_miner.model.Meaning` built from those.  The policy meaning
    of the rules never changes, so it is computed once, and a proposal is
    checked against it only on the keys it touches (``keeps_meaning``).
    """

    def __init__(self, rules, acl: AclPolicy, limits: ExtractionLimits, observer):
        self.cm = acl.class_model
        self.om = acl.object_model
        self.acl = acl
        self.limits = limits
        self.observer = observer
        self._meanings: dict[Rule, int] = {}
        self._options: dict[tuple[str, str], list] = {}
        self.current = dict.fromkeys(sort_rules(rules))
        self._sorted: Optional[tuple[Rule, ...]] = None
        self.meaning = policy_planes(self.current, self.meaning_of)
        self.wsc = policy_wsc(self.current)
        self.changed = False
        self.outcomes: Counter[tuple[str, str]] = Counter()

    @property
    def rules(self) -> tuple[Rule, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.current, key=_sort_key))
        return self._sorted

    def meaning_of(self, rule: Rule) -> int:
        got = self._meanings.get(rule)
        if got is None:
            got = rule_meaning(self.cm, self.om, rule)
            self._meanings[rule] = got
        return got

    def condition_options(self, s_cls: str, r_cls: str) -> list:
        """The conditions that may replace a constraint in a rule from
        ``s_cls`` to ``r_cls``, as (wsc, rank, slot, condition) tuples,
        built once per class pair: by WSC, then resource conditions (rank
        0) before subject conditions (rank 1), then ``sort_key``.  The
        enumerator gives each side's conditions in ``sort_key`` order, so
        one stable sort on (wsc, rank) gives this order."""
        options = self._options.get((s_cls, r_cls))
        if options is None:
            options = self._options[s_cls, r_cls] = sorted(
                (
                    (wsc(cond), rank, slot, cond)
                    for rank, (slot, cls) in enumerate(
                        ((Slot.RESOURCE, r_cls), (Slot.SUBJECT, s_cls))
                    )
                    for cond in enumerate_condition_features(
                        self.cm, self.om, cls, self.limits
                    )
                ),
                key=_cost_and_rank,
            )
        return options

    def keeps_meaning(self, removed: Collection[Rule], new: Iterable[Rule]) -> bool:
        """Whether the current rules without ``removed`` (some of them) and
        with ``new`` have the policy meaning ``meaning``.

        Only the (subject type, resource type, action) keys of ``removed``
        and ``new`` can change, so only they are checked: each new rule's
        plane must lie in ``meaning``, and what the removed rules grant
        beyond the new rules must be granted by kept rules of the same
        key, which are scanned only while some of it is still uncovered.
        Since the current rules' meaning is ``meaning``, this is exactly
        ``policy_planes(kept + new) == meaning``, whatever order
        ``current`` is scanned in.
        """
        gained: dict[tuple[str, str, str], int] = {}
        for rule in new:
            plane = self.meaning_of(rule)
            if plane:
                for action in rule.actions:
                    key = (rule.subject_type, rule.resource_type, action)
                    if plane & ~self.meaning.get(key, 0):
                        return False
                    gained[key] = gained.get(key, 0) | plane
        lost: dict[tuple[str, str, str], int] = {}
        for rule in removed:
            plane = self.meaning_of(rule)
            for action in rule.actions:
                key = (rule.subject_type, rule.resource_type, action)
                rest = plane & ~gained.get(key, 0)
                if rest:
                    lost[key] = lost.get(key, 0) | rest
        if not lost:
            return True
        pairs = {(s_cls, r_cls) for s_cls, r_cls, _ in lost}
        for rule in self.current:
            if (rule.subject_type, rule.resource_type) not in pairs or rule in removed:
                continue
            plane = self.meaning_of(rule)
            for action in rule.actions:
                key = (rule.subject_type, rule.resource_type, action)
                rest = lost.get(key)
                if rest is None:
                    continue
                rest &= ~plane
                if rest:
                    lost[key] = rest
                    continue
                del lost[key]
                if not lost:
                    return True
        return False

    def replace(self, step: str, old: Collection[Rule], new: Iterable[Rule]) -> bool:
        """Swap ``old`` for ``new`` if the policy meaning is unchanged and
        the policy's structural complexity does not grow; tell the
        observer about every accepted change.

        A proposal costs what it swaps.  Its meaning is checked on the
        keys it touches only (``keeps_meaning``; rules of ``old`` that the
        policy does not hold are ignored).  Its WSC is the current one
        minus the removed rules' plus the added rules' (the new rules not
        already kept).  An accepted proposal deletes the removed rules
        from ``current`` and adds the new ones; the observer gets the
        sorted ``rules``.
        """
        removed = self.current.keys() & old
        new = list(new)
        if not self.keeps_meaning(removed, new):
            self.outcomes[step, "meaning"] += 1
            return False
        added = [
            rule
            for rule in dict.fromkeys(new)
            if rule in removed or rule not in self.current
        ]
        proposal_wsc = self.wsc - policy_wsc(removed) + policy_wsc(added)
        if proposal_wsc > self.wsc:
            self.outcomes[step, "wsc"] += 1
            return False
        self.outcomes[step, "accepted"] += 1
        for rule in removed:
            del self.current[rule]
        self.current.update(dict.fromkeys(added))
        self._sorted, self.wsc, self.changed = None, proposal_wsc, True
        if self.observer is not None:
            self.observer(step, self.rules)
        return True


def merge_and_simplify(
    rules: Iterable[Rule],
    acl: AclPolicy,
    limits: ExtractionLimits = ExtractionLimits(),
    observer: Optional[Observer] = None,
) -> tuple[Rule, ...]:
    """Fixpoint of meaning-preserving merges and simplifications.

    Rounds apply: Boolean-negation rewriting, merging rules identical up
    to actions, merging rules identical up to one condition's constant
    set, dropping rules whose grants other rules already cover, greedily
    dropping atomics that validity allows, and swapping constraints for
    strictly cheaper conditions of identical effect.  Every step changes
    the rules only through ``_Phase2.replace``, which accepts a change
    only when the policy meaning is unchanged and the policy's weighted
    structural complexity does not grow.  The accepted and rejected
    proposals per step are logged once at DEBUG.  The rules come back
    unique and in ``sort_key`` order, as :func:`~rebac_miner.model.sort_rules`
    would give them.
    """
    ctx = _Phase2(rules, acl, limits, observer)
    ctx.changed = True
    while ctx.changed:
        ctx.changed = False
        for step in _STEPS:
            step(ctx)
    if log.isEnabledFor(logging.DEBUG):
        counts = sorted(ctx.outcomes.items())
        log.debug(
            "phase 2b proposals: %s",
            ", ".join(f"{step} {outcome} {n}" for (step, outcome), n in counts) or "none",
        )
    return ctx.rules


def _rewrite_bool_negations(ctx: _Phase2) -> None:
    """Propose each rule with every negated one-constant Boolean condition,
    ``not(p in {b})``, flipped to ``p in {not b}``, as one proposal."""
    for rule in ctx.rules:
        new_rule = rule
        for slot, ac in rule.atomics():
            if slot is Slot.CONSTRAINT or not (
                ac.negated and ac.op == "in" and len(ac.value) == 1
            ):
                continue
            atom = next(iter(ac.value))
            if not isinstance(atom, bool):
                continue
            new_rule = new_rule.without_atomic(slot, ac).with_atomic(
                slot, AtomicCondition(ac.path, "in", frozenset({not atom}))
            )
        if new_rule is not rule:
            ctx.replace("rewrite-bool-negation", (rule,), (new_rule,))


def _merge_actions(ctx: _Phase2) -> None:
    groups: dict[tuple, list[Rule]] = {}
    for rule in ctx.rules:
        groups.setdefault(rule.sort_key[:5], []).append(rule)  # all but actions
    for group in groups.values():
        if len(group) > 1:
            actions = frozenset().union(*(r.actions for r in group))
            ctx.replace("merge-actions", group, (replace(group[0], actions=actions),))


def _value_set_merge_key(rule: Rule, slot: Slot, ac: AtomicCondition):
    """``rule``'s sort key without ``ac``, and what a value-set merge keeps of it."""
    return (rule.without_atomic(slot, ac).sort_key, slot, ac.path, ac.op, ac.negated)


def _size(rule: Rule, plane: int) -> int:
    """The number of tuples ``rule`` grants if its pair plane is ``plane``."""
    return plane.bit_count() * len(rule.actions)


def _merge_value_sets(ctx: _Phase2) -> None:
    groups: dict[tuple, list[tuple[Rule, Slot, AtomicCondition]]] = {}
    for rule in ctx.rules:
        for slot, ac in rule.atomics():
            if slot is Slot.CONSTRAINT or ac.op != "in" or ac.negated:
                continue
            groups.setdefault(_value_set_merge_key(rule, slot, ac), []).append(
                (rule, slot, ac)
            )
    candidates = [g for g in groups.values() if len(g) > 1]
    # Most-granting pairs first.  A group's rules share their types and
    # actions, so the union of their meanings is the OR of their planes.
    candidates.sort(
        key=lambda g: (
            -_size(g[0][0], reduce(or_, (ctx.meaning_of(r) for r, _, _ in g))),
            g[0][0].sort_key,
        )
    )
    for group in candidates:
        members = [(r, slot, ac) for r, slot, ac in group if r in ctx.current]
        if len(members) < 2:
            continue
        rule0, slot, ac0 = members[0]
        union = frozenset().union(*(ac.value for _, _, ac in members))
        merged = rule0.without_atomic(slot, ac0).with_atomic(
            slot, AtomicCondition(ac0.path, "in", union)
        )
        if not ctx.meaning_of(merged) & ~_allowed(merged, ctx.acl):
            ctx.replace("merge-value-sets", [r for r, _, _ in members], (merged,))


def _drop_covered_rules(ctx: _Phase2) -> None:
    # Narrow rules first; on equal coverage drop the structurally heavier
    # one, so identity-laden fallback rules lose to general ones.
    for rule in sorted(
        ctx.rules, key=lambda r: (_size(r, ctx.meaning_of(r)), -wsc(r), r.sort_key)
    ):
        ctx.replace("drop-covered-rule", (rule,), ())


def _leave_one_out(full: int, planes: Iterable[int]) -> Callable[[int], int]:
    """Given the T-planes of a rule's atomics over ``full``, the function
    from one of those planes to the rule's pair plane without that atomic.

    A pair is granted without atomic k if every atomic is T on it, or if
    k is the only atomic that is not: with ``every`` and ``only_one`` the
    pairs on which no atomic and exactly one atomic is not T, the plane
    is ``every | (only_one & ~T_k)``, one step per atomic asked about.
    """
    one = two = 0  # pairs with at least one, at least two non-T atomics
    for plane in planes:
        miss = full & ~plane
        two |= one & miss
        one |= miss
    every, only_one = full & ~one, one & ~two
    return lambda plane: every | (only_one & ~plane)


def _drop_atomics(ctx: _Phase2) -> None:
    """Drop atomics from each rule, one at a time, while the rule stays
    within the AU and ``replace`` accepts the drop.

    The next atomic tried is the first, in this order, whose removal keeps
    the rule within the AU: conditions before constraints, then the
    smallest leave-one-out plane (the rule's plane without that atomic),
    then ``atomic.sort_key``, then position in ``atomics()``.  If
    ``replace`` refuses it, the next one in that order is tried; after an
    accepted drop every atomic left is tried again.

    Dropping an atomic only widens each other atomic's leave-one-out
    plane.  So an atomic whose removal leaves the AU never becomes
    droppable, and a plane size computed before later drops is a lower
    bound on its size now.  The candidates sit in a heap keyed on such
    sizes: a popped candidate whose size is still current comes first
    (lazy greedy), and one whose size grew goes back with its new size.
    Refused candidates wait for the next accepted drop.  The rule's
    T-planes are read once; ``_leave_one_out`` gives any leave-one-out
    plane in a few steps and is rebuilt once per accepted drop.
    """
    cm, om = ctx.cm, ctx.om
    for rule in ctx.rules:
        if rule not in ctx.current:
            continue
        s_cls, r_cls = rule.subject_type, rule.resource_type
        atomics = rule.atomics()
        full = om.pairs(s_cls, r_cls).full
        allowed = _allowed(rule, ctx.acl)
        t = dict(enumerate(
            pair_planes(cm, om, s_cls, r_cls, slot, a)[a.negated] for slot, a in atomics
        ))  # the T-planes of the atomics not dropped, by position
        without = _leave_one_out(full, t.values())
        heap = [
            (slot is Slot.CONSTRAINT, without(t[k]).bit_count(), a.sort_key, k)
            for k, (slot, a) in enumerate(atomics)
        ]
        heapify(heap)
        refused = []
        working = rule
        while heap:
            entry = heappop(heap)
            is_constraint, size, key, k = entry
            plane = without(t[k])
            if plane & ~allowed:
                continue  # it never comes back within the AU
            if plane.bit_count() != size:
                heappush(heap, (is_constraint, plane.bit_count(), key, k))
                continue
            shrunk = working.without_atomic(*atomics[k])
            ctx._meanings.setdefault(shrunk, plane)  # spares a rule_meaning
            if not ctx.replace("drop-atomic", (working,), (shrunk,)):
                refused.append(entry)
                continue
            working = shrunk
            del t[k]
            without = _leave_one_out(full, t.values())
            for waiting in refused:
                heappush(heap, waiting)
            refused.clear()


def _constraints_to_conditions(ctx: _Phase2) -> None:
    """Swap each constraint for the first strictly cheaper condition, in
    ``condition_options`` order, that leaves the rule's plane as it is.

    A candidate is judged on planes, as the plane of the rule without the
    constraint ANDed with the condition's T-plane; only a candidate with
    the rule's plane is built as a :class:`Rule` and proposed.
    """
    cm, om = ctx.cm, ctx.om
    for rule in ctx.rules:
        if rule not in ctx.current:
            continue
        constraints = rule.by_slot[Slot.CONSTRAINT]
        if not constraints:
            continue
        s_cls, r_cls = rule.subject_type, rule.resource_type
        options = ctx.condition_options(s_cls, r_cls)
        working = rule
        for constraint in constraints:
            if constraint not in working.constraint:
                continue
            limit = wsc(constraint)  # only strictly cheaper conditions
            if not options or options[0][0] >= limit:
                continue
            base = working.without_atomic(Slot.CONSTRAINT, constraint)
            base_plane = ctx.meaning_of(base)
            target = ctx.meaning_of(working)
            for cost, _, slot, cond in options:
                if cost >= limit:
                    break
                plane = base_plane & pair_planes(cm, om, s_cls, r_cls, slot, cond)[cond.negated]
                if plane != target:
                    continue
                candidate = base.with_atomic(slot, cond)
                ctx._meanings.setdefault(candidate, plane)
                if ctx.replace("constraint-to-condition", (working,), (candidate,)):
                    working = candidate
                    break


_STEPS = (
    _rewrite_bool_negations,
    _merge_actions,
    _merge_value_sets,
    _drop_covered_rules,
    _drop_atomics,
    _constraints_to_conditions,
)
