"""Candidate-feature enumeration and labeled dataset construction.

A feature is an atomic condition on the subject, an atomic condition on
the resource, or an atomic constraint relating the two, within configured
path-length limits.  Condition constants are the atoms observed in the
object model for the path's terminal field, which keeps the table finite
and relevant.  All enumerated features are positive; negation only enters
through tree branches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Callable, Iterable

from rebac_miner.model import (
    BOOLEAN,
    ID_FIELD,
    UNKNOWN,
    AclPolicy,
    AtomicCondition,
    AtomicConstraint,
    ClassModel,
    ModelError,
    Multiplicity,
    ObjectModel,
    PathT,
    constraint_rows,
    path_type,
    tval_condition,
    wsc,
)
from rebac_miner.tvl import (
    Conjunction,
    FeatureId,
    FeatureVector,
    LabeledDataset,
    LabeledRow,
    Literal,
    Polarity,
    TruthValue,
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


class FeatureKind(enum.IntEnum):
    SUBJECT_CONDITION = 0
    RESOURCE_CONDITION = 1
    CONSTRAINT = 2


@dataclass(frozen=True)
class TaskFeature:
    kind: FeatureKind
    payload: object  # AtomicCondition or AtomicConstraint

    @property
    def sort_key(self):
        return (self.kind.value,) + self.payload.sort_key

    def label(self) -> str:
        if self.kind is FeatureKind.SUBJECT_CONDITION:
            return self.payload.text("sub")
        if self.kind is FeatureKind.RESOURCE_CONDITION:
            return self.payload.text("res")
        return self.payload.text("sub", "res")


@dataclass(frozen=True)
class FeatureTable:
    """Ordered task features plus their FeatureId handles (index-aligned)."""

    entries: tuple[TaskFeature, ...]
    feature_ids: tuple[FeatureId, ...]

    @classmethod
    def from_entries(cls, entries: Iterable[TaskFeature]) -> "FeatureTable":
        unique = {e.sort_key: e for e in entries}
        ordered = tuple(unique[k] for k in sorted(unique))
        ids = tuple(
            FeatureId(i, e.label(), wsc(e.payload)) for i, e in enumerate(ordered)
        )
        return cls(ordered, ids)

    @classmethod
    def build(
        cls,
        cm: ClassModel,
        om: ObjectModel,
        subject_type: str,
        resource_type: str,
        limits: ExtractionLimits,
    ) -> "FeatureTable":
        entries = [
            TaskFeature(FeatureKind.SUBJECT_CONDITION, ac)
            for ac in enumerate_condition_features(cm, om, subject_type, limits)
        ]
        entries += [
            TaskFeature(FeatureKind.RESOURCE_CONDITION, ac)
            for ac in enumerate_condition_features(cm, om, resource_type, limits)
        ]
        entries += [
            TaskFeature(FeatureKind.CONSTRAINT, con)
            for con in enumerate_constraint_features(
                cm, subject_type, resource_type, limits
            )
        ]
        return cls.from_entries(entries)

    def __len__(self):
        return len(self.entries)

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
    """Atoms stored in the path's terminal field anywhere in the model."""
    owner = path_type(cm, start, path[:-1])[0]
    terminal = path[-1]
    atoms = set()
    for obj in om.objects_of(owner):
        value = om.field_value(obj.id, terminal)
        if value is UNKNOWN or value is None:
            continue
        if isinstance(value, frozenset):
            atoms |= value
        else:
            atoms.add(value)
    return atoms


def enumerate_condition_features(
    cm: ClassModel, om: ObjectModel, cls: str, limits: ExtractionLimits
) -> tuple[AtomicCondition, ...]:
    """Positive atomic conditions for one side of the task.

    Boolean paths contribute the two constant tests; reference paths
    contribute one condition per observed constant, with the operator
    picked by the path's multiplicity.  Identity conditions (path "id")
    appear only on request.
    """
    out = []
    for path in enumerate_paths(cm, cls, limits.max_condition_path_len):
        if path == (ID_FIELD,) and not limits.include_id_conditions:
            continue
        ptype, mult = path_type(cm, cls, path)
        if ptype == BOOLEAN:
            out.append(AtomicCondition(path, "in", frozenset({True})))
            out.append(AtomicCondition(path, "in", frozenset({False})))
            continue
        for atom in sorted(observed_constants(cm, om, cls, path), key=str):
            if mult is Multiplicity.MANY:
                out.append(AtomicCondition(path, "contains", atom))
            else:
                out.append(AtomicCondition(path, "in", frozenset({atom})))
    return tuple(sorted(out, key=lambda ac: ac.sort_key))


def enumerate_constraint_features(
    cm: ClassModel, subject_type: str, resource_type: str, limits: ExtractionLimits
) -> tuple[AtomicConstraint, ...]:
    """Positive atomic constraints between type-compatible path pairs.

    Both sides range over sugared paths up to the limit plus the empty
    path; the pair of empty paths (subject equal resource) is enumerated
    only when both types coincide.  The operator follows the multiplicity
    compatibility table.
    """
    sides1: list[PathT] = [()]
    sides2: list[PathT] = [()]
    sides1 += enumerate_paths(
        cm, subject_type, limits.max_constraint_path_len, include_id_path=False
    )
    sides2 += enumerate_paths(
        cm, resource_type, limits.max_constraint_path_len, include_id_path=False
    )
    out = []
    for p1 in sides1:
        t1, m1 = path_type(cm, subject_type, p1)
        for p2 in sides2:
            if not p1 and not p2 and subject_type != resource_type:
                continue
            t2, m2 = path_type(cm, resource_type, p2)
            if t1 != t2:
                continue
            many1 = m1 is Multiplicity.MANY
            many2 = m2 is Multiplicity.MANY
            if many1 and many2:
                out.append(AtomicConstraint(p1, "supseteq", p2))
                out.append(AtomicConstraint(p1, "subseteq", p2))
            elif many1:
                out.append(AtomicConstraint(p1, "contains", p2))
            elif many2:
                out.append(AtomicConstraint(p1, "in", p2))
            else:
                out.append(AtomicConstraint(p1, "equal", p2))
    return tuple(sorted(out, key=lambda c: c.sort_key))


def build_dataset(
    acl: AclPolicy,
    subject_type: str,
    resource_type: str,
    action: str,
    table: FeatureTable,
) -> LabeledDataset:
    """One row per subject/resource pair of the given types.

    Cells are the three-valued feature truths; the label is T when the
    tuple is authorized and F otherwise (never U: the authorization list
    is complete by definition).  Each condition is evaluated once per
    object and each constraint once per distinct pair of navigated values
    (:func:`~rebac_miner.model.constraint_rows`); a row is its subject's
    cells, its resource's cells and its constraint cells, put back into
    table order.
    """
    cm, om = acl.class_model, acl.object_model
    entries = table.entries
    payloads = {kind: [] for kind in FeatureKind}
    for entry in entries:
        payloads[entry.kind].append(entry.payload)
    subject_conds = payloads[FeatureKind.SUBJECT_CONDITION]
    resource_conds = payloads[FeatureKind.RESOURCE_CONDITION]
    constraints = payloads[FeatureKind.CONSTRAINT]
    # Cells are concatenated kind by kind; the k-th of them belongs to table
    # column grouped[k], so table column i reads concatenated cell position[i].
    grouped = sorted(range(len(entries)), key=lambda i: entries[i].kind)
    position = [0] * len(entries)
    for k, i in enumerate(grouped):
        position[i] = k
    to_table_order = _picker(position)

    resources = om.objects_of(resource_type)
    resource_ids = [r.id for r in resources]
    resource_cells = [
        tuple(tval_condition(cm, om, r.id, ac) for ac in resource_conds)
        for r in resources
    ]
    constraint_cells = [
        constraint_rows(cm, om, subject_type, resource_type, con)
        for con in constraints
    ]
    granted = {(t.subject, t.resource) for t in acl.au if t.action == action}

    rows = []
    for i, s in enumerate(om.objects_of(subject_type)):
        sid = s.id
        s_cells = tuple(tval_condition(cm, om, sid, ac) for ac in subject_conds)
        # Per resource: its id, its condition cells, then one cell per constraint.
        per_resource = zip(
            resource_ids,
            resource_cells,
            *(con_rows[index[i]] for index, con_rows in constraint_cells),
        )
        for rid, r_cells, *c_cells in per_resource:
            cells = s_cells + r_cells + tuple(c_cells)
            label = TruthValue.T if (sid, rid) in granted else TruthValue.F
            rows.append(
                LabeledRow(FeatureVector(to_table_order(cells)), label, (sid, rid))
            )
    return LabeledDataset(table.feature_ids, tuple(rows))


def _picker(indices) -> Callable[[tuple], tuple]:
    """A function taking a tuple to the tuple of its items at ``indices``
    (``operator.itemgetter`` returns a bare item for one index and takes
    none)."""
    if not indices:
        return lambda values: ()
    if len(indices) == 1:
        (only,) = indices
        return lambda values: (values[only],)
    return itemgetter(*indices)


def prune_useless(
    table: FeatureTable, dataset: LabeledDataset
) -> tuple[FeatureTable, LabeledDataset]:
    """Drop features whose value is constant across all rows; the kept
    features stay in table order."""
    if not dataset.rows:
        return table, dataset
    columns = zip(*(row.vector.values for row in dataset.rows))
    keep = [i for i, column in enumerate(columns) if len(set(column)) > 1]
    if len(keep) == len(table.entries):
        return table, dataset
    new_table = FeatureTable(
        tuple(table.entries[i] for i in keep),
        tuple(replace(table.feature_ids[i], index=n) for n, i in enumerate(keep)),
    )
    pick = _picker(keep)
    rows = tuple(
        LabeledRow(FeatureVector(pick(row.vector.values)), row.label, row.provenance)
        for row in dataset.rows
    )
    return new_table, LabeledDataset(new_table.feature_ids, rows)


def extend_with_id_columns(
    table: FeatureTable, dataset: LabeledDataset
) -> tuple[FeatureTable, LabeledDataset, Callable, frozenset[FeatureId]]:
    """Append identity-condition columns for every row's subject/resource.

    Returns the extended table and dataset, a per-row supplier building the
    ``subject.id = s and resource.id = r`` conjunction, and the set of
    appended feature ids (to hide from tree induction).  Cell values come
    straight from row provenance, so they are never unknown.
    """
    subject_ids = sorted({row.provenance[0] for row in dataset.rows})
    resource_ids = sorted({row.provenance[1] for row in dataset.rows})
    extra_entries = [
        TaskFeature(
            FeatureKind.SUBJECT_CONDITION,
            AtomicCondition((ID_FIELD,), "in", frozenset({sid})),
        )
        for sid in subject_ids
    ] + [
        TaskFeature(
            FeatureKind.RESOURCE_CONDITION,
            AtomicCondition((ID_FIELD,), "in", frozenset({rid})),
        )
        for rid in resource_ids
    ]
    base = len(table.entries)
    all_entries = table.entries + tuple(extra_entries)
    ids = table.feature_ids + tuple(
        FeatureId(base + i, e.label(), wsc(e.payload))
        for i, e in enumerate(extra_entries)
    )
    new_table = FeatureTable(all_entries, ids)

    subject_feature = {
        sid: ids[base + i] for i, sid in enumerate(subject_ids)
    }
    resource_feature = {
        rid: ids[base + len(subject_ids) + i] for i, rid in enumerate(resource_ids)
    }

    def extend_row(row: LabeledRow) -> LabeledRow:
        sid, rid = row.provenance
        extra = tuple(
            TruthValue.T if sid == s else TruthValue.F for s in subject_ids
        ) + tuple(TruthValue.T if rid == r else TruthValue.F for r in resource_ids)
        return LabeledRow(
            FeatureVector(row.vector.values + extra), row.label, row.provenance
        )

    new_dataset = LabeledDataset(ids, tuple(extend_row(r) for r in dataset.rows))

    def supplier(row: LabeledRow):
        sid, rid = row.provenance
        return Conjunction.of(
            [
                Literal(subject_feature[sid], Polarity.POSITIVE),
                Literal(resource_feature[rid], Polarity.POSITIVE),
            ]
        )

    hidden = frozenset(ids[base:])
    return new_table, new_dataset, supplier, hidden
