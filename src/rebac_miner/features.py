"""Candidate-feature enumeration and labeled dataset construction.

A feature is an atomic condition on the subject, an atomic condition on
the resource, or an atomic constraint relating the two, within configured
path-length limits.  Condition constants are the atoms observed in the
object model for the path's terminal field, which keeps the table finite
and relevant.  All enumerated features are positive; negation only enters
through tree branches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from typing import Callable

from rebac_miner.model import (
    BOOLEAN,
    ID_FIELD,
    AclPolicy,
    AtomicCondition,
    AtomicConstraint,
    ClassModel,
    ModelError,
    Multiplicity,
    ObjectModel,
    PathT,
    Slot,
    constraint_ops,
    pair_planes,
    path_type,
    value_index,
    value_sort_key,
    wsc,
)
from rebac_miner.tvl import (
    Conjunction,
    FeatureId,
    LabeledDataset,
    Literal,
    Polarity,
)


@dataclass(frozen=True)
class ExtractionLimits:
    max_condition_path_len: int = 2
    max_constraint_path_len: int = 3
    include_id_conditions: bool = False

    def __post_init__(self):
        if self.max_condition_path_len < 1:
            raise ValueError("condition paths need at least one hop")
        if self.max_constraint_path_len < 0:
            raise ValueError("constraint path length cannot be negative")


@dataclass(frozen=True)
class TaskFeature:
    kind: Slot
    payload: object  # AtomicCondition or AtomicConstraint

    @property
    def sort_key(self):
        return (self.kind.value,) + self.payload.sort_key

    @cached_property
    def negated_payload(self):
        """The payload negated, made on first use: every negative literal of
        this feature reads the same atomic, whose sort key is then computed
        once."""
        return replace(self.payload, negated=True)

    def label(self) -> str:
        return self.payload.text(*(("sub",), ("res",), ("sub", "res"))[self.kind])


@dataclass(frozen=True)
class FeatureTable:
    """Ordered task features plus their FeatureId handles (index-aligned)."""

    entries: tuple[TaskFeature, ...]
    feature_ids: tuple[FeatureId, ...]

    @classmethod
    def build(
        cls,
        cm: ClassModel,
        om: ObjectModel,
        subject_type: str,
        resource_type: str,
        limits: ExtractionLimits,
    ) -> "FeatureTable":
        """The class pair's candidate features in ``sort_key`` order:
        subject conditions, resource conditions, then constraints, each
        slot's in its enumerator's order.  The enumerators emit their
        features in ``sort_key`` order and without duplicates, and the
        slot leads the sort key, so their lists are concatenated as they
        are, with no sort.  Every action of the class pair learns over
        this one table (:func:`~rebac_miner.miner.mine_detailed` builds it
        once per class pair and limits)."""
        slots = (
            (Slot.SUBJECT, enumerate_condition_features(cm, om, subject_type, limits)),
            (Slot.RESOURCE, enumerate_condition_features(cm, om, resource_type, limits)),
            (
                Slot.CONSTRAINT,
                enumerate_constraint_features(cm, subject_type, resource_type, limits),
            ),
        )
        entries = tuple(
            TaskFeature(slot, payload) for slot, payloads in slots for payload in payloads
        )
        ids = tuple(
            FeatureId(i, e.label(), wsc(e.payload)) for i, e in enumerate(entries)
        )
        return cls(entries, ids)

    def __len__(self):
        return len(self.entries)

    @cached_property
    def by_wsc(self) -> tuple[TaskFeature, ...]:
        """The entries cheapest first (by WSC, then sort key): phase 2a's
        order of preference among replacements for a negated atomic."""
        return tuple(sorted(self.entries, key=lambda e: (wsc(e.payload), e.sort_key)))

    def entry(self, feature: FeatureId) -> TaskFeature:
        return self.entries[feature.index]


def enumerate_paths(
    cm: ClassModel, start: str, max_len: int, include_id_path: bool = True
) -> tuple[PathT, ...]:
    """All type-correct non-empty paths from ``start`` up to ``max_len`` hops.

    Paths are in sugared form: a trailing id hop is never spelled out, and
    id (a String) is not navigable mid-path, so the only id-terminal path
    is the bare ("id",).  Cycles through reference fields are allowed up to
    the length bound.
    """
    if not cm.has_class(start):
        raise ModelError(f"unknown class: {start}")
    paths: list[PathT] = []
    if include_id_path and max_len >= 1:
        paths.append((ID_FIELD,))

    def grow(cls: str, prefix: PathT):
        if len(prefix) >= max_len:
            return
        for name, decl in cm.fields_of(cls):
            path = prefix + (name,)
            paths.append(path)
            if decl.type != BOOLEAN:
                grow(decl.type, path)

    grow(start, ())
    return tuple(sorted(paths))


def observed_constants(cm: ClassModel, om: ObjectModel, start: str, path: PathT):
    """Atoms stored in the path's terminal field anywhere in the model: the
    atoms of the terminal field's one-hop :func:`~rebac_miner.model.value_index`
    over the class owning it, without None."""
    owner = path_type(cm, start, path[:-1])[0]
    return value_index(cm, om, owner, path[-1:]).by.keys() - {None}


def enumerate_condition_features(
    cm: ClassModel, om: ObjectModel, cls: str, limits: ExtractionLimits
) -> tuple[AtomicCondition, ...]:
    """Positive atomic conditions for one side of the task, in ``sort_key``
    order by construction.

    Boolean paths contribute the two constant tests, ``False`` before
    ``True``; reference paths contribute one condition per observed
    constant, in :func:`~rebac_miner.model.value_sort_key` order, with the
    operator picked by the path's multiplicity.  A condition's sort key
    leads with its path and one path has one operator, so the paths in
    :func:`enumerate_paths` order, each with its constants sorted once,
    give the whole list sorted; no sort key is read.  Identity conditions
    (path "id") appear only on request.  Memoized on ``om`` per (class,
    limits).
    """
    key = (cls, limits)
    try:
        return om._conditions[key]
    except KeyError:
        pass
    out = []
    for path in enumerate_paths(cm, cls, limits.max_condition_path_len):
        if path == (ID_FIELD,) and not limits.include_id_conditions:
            continue
        ptype, mult = path_type(cm, cls, path)
        if ptype == BOOLEAN:
            out.append(AtomicCondition(path, "in", frozenset({False})))
            out.append(AtomicCondition(path, "in", frozenset({True})))
            continue
        for atom in sorted(observed_constants(cm, om, cls, path), key=value_sort_key):
            if mult is Multiplicity.MANY:
                out.append(AtomicCondition(path, "contains", atom))
            else:
                out.append(AtomicCondition(path, "in", frozenset({atom})))
    om._conditions[key] = tuple(out)
    return om._conditions[key]


_constraint_order = attrgetter("path1", "op", "path2")


def enumerate_constraint_features(
    cm: ClassModel, subject_type: str, resource_type: str, limits: ExtractionLimits
) -> tuple[AtomicConstraint, ...]:
    """Positive atomic constraints between type-compatible path pairs, in
    ``sort_key`` order.

    Both sides range over sugared paths up to the limit plus the empty
    path; the pair of empty paths (subject equal resource) is enumerated
    only when both types coincide.  The operators are those the paths'
    multiplicities admit (:func:`~rebac_miner.model.constraint_ops`).
    Every constraint is positive, so one sort on (path1, op, path2) is the
    ``sort_key`` order, and no sort key is read.
    """
    sides1: list[PathT] = [()]
    sides2: list[PathT] = [()]
    sides1 += enumerate_paths(
        cm, subject_type, limits.max_constraint_path_len, include_id_path=False
    )
    sides2 += enumerate_paths(
        cm, resource_type, limits.max_constraint_path_len, include_id_path=False
    )
    typed2 = [(p2, *path_type(cm, resource_type, p2)) for p2 in sides2]
    out = []
    for p1 in sides1:
        t1, m1 = path_type(cm, subject_type, p1)
        for p2, t2, m2 in typed2:
            if not p1 and not p2 and subject_type != resource_type:
                continue
            if t1 != t2:
                continue
            out += [AtomicConstraint(p1, op, p2) for op in constraint_ops(m1, m2)]
    return tuple(sorted(out, key=_constraint_order))


def task_labels(
    acl: AclPolicy, subject_type: str, resource_type: str, action: str
) -> tuple[int, int]:
    """The (T, F) label planes of one task over its class pair's
    :class:`~rebac_miner.model.PairLayout`: T on the pairs the task's plane
    in :attr:`~rebac_miner.model.AclPolicy.au_planes` holds, F on every
    other pair (never U: the authorization list is complete by
    definition)."""
    label_t = acl.au_planes.get((subject_type, resource_type, action), 0)
    return label_t, acl.object_model.pairs(subject_type, resource_type).full & ~label_t


def build_dataset(
    acl: AclPolicy,
    subject_type: str,
    resource_type: str,
    action: str,
    table: FeatureTable,
) -> LabeledDataset:
    """One row per subject/resource pair of the given types, in their
    :class:`~rebac_miner.model.PairLayout`, whose
    :meth:`~rebac_miner.model.PairLayout.position` says which pair a row
    stands for.

    Cells are the three-valued truths of the table's (positive) features;
    the labels are the task's (:func:`task_labels`).  Each feature's
    planes are the pair-layout planes the object model keeps for it
    (:func:`~rebac_miner.model.pair_planes`), which rule meanings and
    phase 2b read as well.
    """
    cm, om = acl.class_model, acl.object_model
    return LabeledDataset(
        table.feature_ids,
        tuple(
            pair_planes(cm, om, subject_type, resource_type, e.kind, e.payload)
            for e in table.entries
        ),
        task_labels(acl, subject_type, resource_type, action),
        len(om.pairs(subject_type, resource_type)),
    )


def prune_useless(
    table: FeatureTable, dataset: LabeledDataset
) -> tuple[FeatureTable, LabeledDataset]:
    """Drop features whose value is constant across all rows; the kept
    features stay in table order, renumbered.

    A column is constant when its (T, F) planes, which lie within the
    dataset's rows, are all T (``t == all``), all F (``f == all``) or
    all U (``t | f == 0``)."""
    if not dataset.size:
        return table, dataset
    everything = dataset.all_rows
    keep = [
        i
        for i, (t, f) in enumerate(dataset.planes)
        if t != everything and f != everything and t | f
    ]
    if len(keep) == len(table.entries):
        return table, dataset
    ids = table.feature_ids
    new_table = FeatureTable(
        tuple(table.entries[i] for i in keep),
        tuple(FeatureId(n, ids[i].label, ids[i].cost) for n, i in enumerate(keep)),
    )
    return new_table, dataset.with_columns(
        new_table.feature_ids, tuple(dataset.planes[i] for i in keep)
    )


def extend_with_id_columns(
    acl: AclPolicy,
    subject_type: str,
    resource_type: str,
    table: FeatureTable,
    dataset: LabeledDataset,
) -> tuple[FeatureTable, LabeledDataset, Callable, frozenset[FeatureId]]:
    """Append one identity-condition column per subject and per resource of
    the task's ``dataset``, subjects first, each in its
    :class:`~rebac_miner.model.PairLayout`'s order.

    Returns the extended table and dataset, a supplier building the
    ``subject.id = s and resource.id = r`` conjunction for a row index, and
    the appended feature ids.  The miner discards the ids; only
    ``perfbench/spans.py`` reads them, to count the columns.  The columns
    are built like :func:`build_dataset`'s, from
    :func:`~rebac_miner.model.pair_planes`; an identity condition is never
    U.
    """
    cm, om = acl.class_model, acl.object_model
    layout = om.pairs(subject_type, resource_type)
    sides = ((Slot.SUBJECT, layout.subjects), (Slot.RESOURCE, layout.resources))
    extra = tuple(
        TaskFeature(kind, AtomicCondition((ID_FIELD,), "in", frozenset({oid})))
        for kind, oids in sides
        for oid in oids
    )
    base = len(table.entries)
    ids = table.feature_ids + tuple(
        FeatureId(base + i, e.label(), wsc(e.payload)) for i, e in enumerate(extra)
    )
    planes = tuple(
        pair_planes(cm, om, subject_type, resource_type, e.kind, e.payload) for e in extra
    )
    literals = [Literal(f, Polarity.POSITIVE) for f in ids[base:]]
    n_s = len(layout.subjects)

    def supplier(row: int) -> Conjunction:
        i, j = layout.position(row)
        return Conjunction.of([literals[i], literals[n_s + j]])

    new_dataset = dataset.with_columns(ids, dataset.planes, planes)
    new_table = FeatureTable(table.entries + extra, ids)
    return new_table, new_dataset, supplier, frozenset(ids[base:])
