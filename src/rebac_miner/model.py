"""Object-oriented policy model and rule semantics with unknown values.

Classes declare reference-typed or Boolean fields with multiplicities one,
optional, or many; every class implicitly carries a String ``id`` field.
Any stored field value may be the ``unknown`` placeholder (the value exists
but is not known), which is distinct from None (an optional field holding
nothing).  Path values (:func:`value_index`) and the truth of atomic
conditions, constraints and rules are computed only as masks over objects
and bitplanes over subject/resource pairs (:func:`pair_planes`,
:func:`rule_plane`), with unknowns read in the Kleene three-valued logic
of :mod:`rebac_miner.tvl`.  The per-object and per-pair definitions they
are tested against live in the test suite (``tests/oracles.py``).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, fields as dataclass_fields
from functools import cached_property, partial
from operator import attrgetter
from types import MappingProxyType
from typing import (
    Callable,
    Collection,
    Iterable,
    Mapping,
    NamedTuple,
    NoReturn,
    Optional,
    Sequence,
    Union,
)

from rebac_miner.tvl import bit_indices, mask_of

BOOLEAN = "Boolean"
STRING = "String"
ID_FIELD = "id"


class ModelError(ValueError):
    """A class model, object model, or rule fails its well-formedness rules."""


class _Unknown:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "unknown"


UNKNOWN = _Unknown()

# A field/navigation value: an object id or Boolean atom, None (optional
# field holding nothing), UNKNOWN, or a frozenset of atoms for many-valued
# fields (navigation results may additionally contain UNKNOWN in sets).
Atom = Union[str, bool]
Value = Union[str, bool, None, _Unknown, frozenset]

PathT = tuple[str, ...]


def path_text(path: PathT) -> str:
    return ".".join(path) if path else "<self>"


class Multiplicity(str, enum.Enum):
    ONE = "one"
    OPTIONAL = "optional"
    MANY = "many"


@dataclass(frozen=True)
class FieldDecl:
    type: str
    multiplicity: Multiplicity


@dataclass(frozen=True)
class ClassModel:
    """Class name -> field name -> declaration.  ``id`` is implicit, and a
    field name is non-empty and holds no ".", which joins a path's names
    in its text."""

    classes: Mapping[str, Mapping[str, FieldDecl]]

    def __post_init__(self):
        for cls, fields in self.classes.items():
            if cls in (BOOLEAN, STRING):
                raise ModelError(f"reserved class name: {cls}")
            for name, decl in fields.items():
                if not name or "." in name:
                    raise ModelError(
                        f"class {cls}: bad field name {name!r}"
                        " (field names are non-empty and contain no '.')"
                    )
                if name == ID_FIELD:
                    raise ModelError(f"{cls}.{name}: 'id' is implicit and reserved")
                if decl.type == BOOLEAN:
                    if decl.multiplicity is not Multiplicity.ONE:
                        raise ModelError(
                            f"{cls}.{name}: Boolean fields must have multiplicity one"
                        )
                elif decl.type not in self.classes:
                    raise ModelError(f"{cls}.{name}: unknown type {decl.type!r}")

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def field(self, cls: str, name: str) -> FieldDecl:
        if cls not in self.classes:
            raise ModelError(f"unknown class: {cls}")
        if name == ID_FIELD:
            return FieldDecl(STRING, Multiplicity.ONE)
        try:
            return self.classes[cls][name]
        except KeyError:
            raise ModelError(f"unknown field: {cls}.{name}") from None

    def fields_of(self, cls: str) -> tuple[tuple[str, FieldDecl], ...]:
        if cls not in self.classes:
            raise ModelError(f"unknown class: {cls}")
        return tuple(sorted(self.classes[cls].items()))


def path_type(cm: ClassModel, start: str, path: PathT) -> tuple[str, Multiplicity]:
    """Terminal type and overall multiplicity of a path from ``start``.

    The empty path denotes the object itself.  The overall multiplicity is
    many if any hop is many, one if all hops are one, optional otherwise.
    """
    if not cm.has_class(start):
        raise ModelError(f"unknown class: {start}")
    current = start
    mult = Multiplicity.ONE
    for i, name in enumerate(path):
        if current in (BOOLEAN, STRING):
            raise ModelError(
                f"path {path_text(path)} navigates through non-class type {current}"
            )
        decl = cm.field(current, name)
        if decl.multiplicity is Multiplicity.MANY:
            mult = Multiplicity.MANY
        elif decl.multiplicity is Multiplicity.OPTIONAL and mult is not Multiplicity.MANY:
            mult = Multiplicity.OPTIONAL
        current = decl.type
    return current, mult


@dataclass(frozen=True)
class ObjectInstance:
    id: str
    type: str
    fields: Mapping[str, Value]


class PairLayout:
    """The subject/resource pairs of one subject class and one resource
    class as the rows of a plane: with both classes' objects in
    ``objects_of`` order, the pair of the i-th subject and the j-th
    resource is row i*R + j, R = ``len(resources)``.  Dataset rows, atomic
    planes, rule meanings and :attr:`AclPolicy.au_planes` all use this
    layout, and only this class computes it (``au_planes`` inlines its row
    formula, see there).

    ``subjects`` and ``resources`` hold the two classes' ids, ``full`` is
    the plane of every pair, and :meth:`position` says which pair a row
    stands for.

    Masks over one side are spread over the pairs by big-int arithmetic
    on planes made once per layout, with S = ``len(subjects)`` and
    w = min(S, R - 1): ``_firsts``, the first row of every subject (bits
    i*R); ``_block``, one subject's R rows; ``_copies``, bits k*(R-1) for
    k < w; and ``_diagonal``, bits k*R for k < w.  A resource mask times
    ``_firsts`` repeats it for every subject.  A chunk of w subject bits
    times ``_copies`` is w copies of the chunk at offsets k*(R-1), which
    cannot overlap, so nothing carries: bit i of copy k lands on bit
    i + k*(R-1), which is a first row i*R exactly when k = i, so ANDing
    with ``_diagonal`` moves each bit i to bit i*R.  The chunks' results
    are stacked by :func:`_stack`; when S < R one chunk is the whole mask.
    Times ``_block`` fills in each subject's rows.
    """

    def __init__(self, subjects: Sequence[str], resources: Sequence[str]):
        self.subjects, self.resources = tuple(subjects), tuple(resources)
        n_s, n_r = len(self.subjects), len(self.resources)
        size = n_s * n_r
        self.full = (1 << size) - 1
        self._block = (1 << n_r) - 1
        # Each a sum of n powers 2**(k*d), made in C as (2**(n*d) - 1) // (2**d - 1).
        self._firsts = self.full // self._block if n_r else 0
        gap = n_r - 1
        w = self._chunk = max(0, min(n_s, gap))
        self._copies = ((1 << w * gap) - 1) // ((1 << gap) - 1) if w else 0
        self._diagonal = ((1 << w * n_r) - 1) // self._block if w else 0

    def __len__(self) -> int:
        return len(self.subjects) * len(self.resources)

    def position(self, row: int) -> tuple[int, int]:
        """The (subject, resource) positions of ``row``."""
        return divmod(row, len(self.resources))

    def positions(self, plane: int) -> list[tuple[int, int]]:
        """The (subject, resource) positions of the rows set in ``plane``,
        lowest row first."""
        n_r = len(self.resources)
        return [divmod(k, n_r) for k in bit_indices(plane)]

    def of_subjects(self, mask: int) -> int:
        """The rows of the subjects in ``mask`` (bit i = i-th subject)."""
        n_s, n_r, w = len(self.subjects), len(self.resources), self._chunk
        if not w:  # R <= 1: subject i's one row, if there is one, is row i
            return mask * self._block
        low = (1 << w) - 1
        firsts = _stack(
            [(mask >> q & low) * self._copies & self._diagonal for q in range(0, n_s, w)],
            w * n_r,
        )
        return firsts * self._block

    def of_resources(self, mask: int) -> int:
        """The rows of the resources in ``mask`` (bit j = j-th resource)."""
        return mask * self._firsts

    def of_subject_rows(self, per_subject: Sequence[int]) -> int:
        """The rows given by one resource mask per subject, in subject order."""
        return _stack(per_subject, len(self.resources))


# Up to this many parts, :func:`_stack` shifts each into place: the
# shifts cost about the part count times the result's size, which at this
# count is less than the halving's extra calls and slices.
_STACK_RUN = 32


def _stack(parts: Sequence[int], width: int) -> int:
    """The OR of ``parts[q] << q * width``.  Past ``_STACK_RUN`` parts
    the two halves are stacked apart and joined by one shift and OR, a
    balanced tree whose every level costs the result's size once, so the
    whole is not quadratic in the number of parts."""
    if len(parts) <= _STACK_RUN:
        out = 0
        for q, part in enumerate(parts):
            out |= part << q * width
        return out
    mid = len(parts) // 2
    return _stack(parts[:mid], width) | _stack(parts[mid:], width) << mid * width


class ObjectModel:
    """A set of objects with globally unique ids.

    Immutable after construction.  :meth:`pairs` gives each class pair's
    :class:`PairLayout`, made once.  Three results are memoized on the model
    for the class model it is used with: the :class:`ValueIndex` per
    (class, path) (:func:`value_index`), the one memo of navigated values;
    the pair-layout (T, F) bitplanes of :func:`pair_planes`, the one
    builder of atomic planes, per (subject class, resource class, slot)
    and positive atomic, which a negated atomic reads too, and which
    datasets, rule meanings and both parts of phase 2 all read; and the
    candidate conditions per (class, extraction limits)
    (``features.enumerate_condition_features``).  Caching is safe because
    objects and field values never change after construction and each memo
    depends only on them, the class model and its key; one object model
    must therefore not be evaluated against two different class models.
    """

    def __init__(self, objects: Iterable[ObjectInstance]):
        self._by_id: dict[str, ObjectInstance] = {}
        by_type: dict[str, list[ObjectInstance]] = {}
        for obj in objects:
            if obj.id in self._by_id:
                raise ModelError(f"duplicate object id: {obj.id}")
            self._by_id[obj.id] = obj
            by_type.setdefault(obj.type, []).append(obj)
        self._by_type = {
            cls: tuple(sorted(objs, key=lambda o: o.id))
            for cls, objs in by_type.items()
        }
        # id -> (class, position in ``objects_of`` order)
        self._place = {
            obj.id: (cls, i)
            for cls, objs in self._by_type.items()
            for i, obj in enumerate(objs)
        }
        self._index: dict[tuple[str, PathT], ValueIndex] = {}
        self._pairs: dict[tuple[str, str], PairLayout] = {}
        self._planes: dict[tuple, tuple[int, int]] = {}
        self._conditions: dict[tuple, tuple] = {}

    def __len__(self):
        return len(self._by_id)

    def objects(self) -> tuple[ObjectInstance, ...]:
        return tuple(self._by_id[i] for i in sorted(self._by_id))

    def get(self, oid: str) -> ObjectInstance:
        try:
            return self._by_id[oid]
        except KeyError:
            raise ModelError(f"unknown object id: {oid}") from None

    def has(self, oid: str) -> bool:
        return oid in self._by_id

    def objects_of(self, cls: str) -> tuple[ObjectInstance, ...]:
        return self._by_type.get(cls, ())

    def pairs(self, s_cls: str, r_cls: str) -> PairLayout:
        """The :class:`PairLayout` of ``s_cls`` x ``r_cls``, memoized."""
        try:
            return self._pairs[s_cls, r_cls]
        except KeyError:
            layout = self._pairs[s_cls, r_cls] = PairLayout(
                [o.id for o in self.objects_of(s_cls)],
                [o.id for o in self.objects_of(r_cls)],
            )
            return layout

    def field_value(self, oid: str, name: str) -> Value:
        obj = self.get(oid)
        if name == ID_FIELD:
            return obj.id
        try:
            return obj.fields[name]
        except KeyError:
            raise ModelError(f"object {oid} has no field {name!r}") from None


def validate_object_model(cm: ClassModel, om: ObjectModel) -> None:
    """Check every object against the class model's shape rules and raise
    :class:`ModelError` for the first fault.  Objects are checked in id
    order.  Each class's sorted declarations are read once per call; an
    object's field names are compared with the declared names as key sets,
    and an undeclared or missing field is looked for only when the sets
    differ.  A reference is checked with one lookup of its target."""
    place = om._place
    declared: dict[str, tuple[frozenset[str], tuple]] = {}  # class -> names, decls
    for obj in om.objects():
        try:
            names, decls = declared[obj.type]
        except KeyError:
            if not cm.has_class(obj.type):
                raise ModelError(f"object {obj.id} has unknown type {obj.type}") from None
            decls = cm.fields_of(obj.type)
            names = frozenset(name for name, _ in decls)
            declared[obj.type] = names, decls
        fields = obj.fields
        if fields.keys() != names:
            for name in fields:
                if name not in names:
                    raise ModelError(f"object {obj.id} has undeclared field {name!r}")
        for name, decl in decls:
            try:
                value = fields[name]
            except KeyError:
                raise ModelError(f"object {obj.id} is missing field {name!r}") from None
            if value is UNKNOWN:
                continue
            if decl.multiplicity is Multiplicity.MANY:
                if not isinstance(value, frozenset):
                    raise ModelError(f"{obj.id}.{name}: many-valued field needs a set")
                if UNKNOWN in value:
                    raise ModelError(
                        f"{obj.id}.{name}: unknown cannot appear inside a stored set"
                    )
                atoms = value
            elif value is None:
                if decl.multiplicity is not Multiplicity.OPTIONAL:
                    raise ModelError(f"{obj.id}.{name}: None needs multiplicity optional")
                continue
            else:
                atoms = (value,)
            if decl.type == BOOLEAN:
                for atom in atoms:
                    if not isinstance(atom, bool):
                        raise ModelError(
                            f"{obj.id}.{name}: expected a Boolean, got {atom!r}"
                        )
                continue
            for atom in atoms:
                target = place.get(atom) if isinstance(atom, str) else None
                if target is None:
                    raise ModelError(f"{obj.id}.{name}: dangling reference {atom!r}")
                if target[0] != decl.type:
                    raise ModelError(
                        f"{obj.id}.{name}: reference {atom!r} has type "
                        f"{target[0]}, expected {decl.type}"
                    )


def _merge_into(out: set, sub: Value) -> None:
    if sub is UNKNOWN:
        out.add(UNKNOWN)
    elif sub is None:
        pass
    elif isinstance(sub, frozenset):
        out |= sub
    else:
        out.add(sub)


@dataclass(frozen=True)
class AtomicCondition:
    """path op value, where op is ``in`` (one/optional path, set of atoms)
    or ``contains`` (many path, single atom)."""

    path: PathT
    op: str
    value: object  # frozenset[Atom] for "in", Atom for "contains"
    negated: bool = False

    def __post_init__(self):
        if not self.path:
            raise ModelError("condition paths must be non-empty")
        if self.op == "in":
            if not isinstance(self.value, frozenset):
                raise ModelError("'in' conditions take a set of atoms")
            atoms = self.value
        elif self.op == "contains":
            atoms = (self.value,)
        else:
            raise ModelError(f"unknown condition operator: {self.op!r}")
        for atom in atoms:  # not the int 1: it would share "1"'s sort key
            if not isinstance(atom, (str, bool)):
                raise ModelError(f"bad condition constant: {atom!r} (not str or bool)")

    @cached_property
    def sort_key(self):
        return (self.path, self.op, self.negated, value_sort_key(self.value))

    def text(self, prefix: str) -> str:
        p = f"{prefix}.{'.'.join(self.path)}"
        if self.op == "contains":
            body = f"{p} contains {_atom_text(self.value)}"
        else:
            atoms = sorted(self.value, key=value_sort_key)
            if len(atoms) == 1:
                body = f"{p}={_atom_text(atoms[0])}"
            else:
                body = f"{p} in {{{','.join(_atom_text(a) for a in atoms)}}}"
        return f"not({body})" if self.negated else body


CONSTRAINT_OPS = ("equal", "in", "contains", "supseteq", "subseteq")


@dataclass(frozen=True)
class AtomicConstraint:
    """Relates a subject-side path to a resource-side path."""

    path1: PathT
    op: str
    path2: PathT
    negated: bool = False

    def __post_init__(self):
        if self.op not in CONSTRAINT_OPS:
            raise ModelError(f"unknown constraint operator: {self.op!r}")

    @cached_property
    def sort_key(self):
        return (self.path1, self.op, self.path2, self.negated)

    def text(self, s_prefix: str = "subject", r_prefix: str = "resource") -> str:
        symbol = {
            "equal": "=", "in": "in", "contains": "contains",
            "supseteq": "supseteq", "subseteq": "subseteq",
        }[self.op]
        p1 = s_prefix + ("." + ".".join(self.path1) if self.path1 else "")
        p2 = r_prefix + ("." + ".".join(self.path2) if self.path2 else "")
        body = f"{p1} {symbol} {p2}"
        return f"not({body})" if self.negated else body


def value_sort_key(value) -> tuple:
    """Stable ordering over mixed Boolean/id atoms and sets of them."""
    if isinstance(value, bool):
        return (0, str(value))
    if isinstance(value, frozenset):
        return (2, tuple(sorted(value_sort_key(v) for v in value)))
    return (1, str(value))


def _atom_text(atom: Atom) -> str:
    if isinstance(atom, bool):
        return "true" if atom else "false"
    return str(atom)


class Slot(enum.IntEnum):
    """Where an atomic sits in a rule: a subject condition, a resource
    condition or a constraint.  The values order feature tables."""

    SUBJECT = 0
    RESOURCE = 1
    CONSTRAINT = 2


# The Rule field holding each slot's atomics, indexed by Slot.
_SLOT_FIELDS = ("subject_condition", "resource_condition", "constraint")
# Slot's members as module names for per-atomic loops: on Python 3.11 an
# Enum class is several times slower to iterate or read a member from.
_SLOTS = _SUBJECT, _RESOURCE, _CONSTRAINT = tuple(Slot)
_sort_key = attrgetter("sort_key")


@dataclass(frozen=True)
class Rule:
    """<subject type, subject condition, resource type, resource condition,
    constraint, actions>.

    The atomics' canonical order (``by_slot``, ``atomics()``), the
    ``sort_key`` built from it and the ``wsc`` are computed once, on first
    use.  That is safe because a frozen rule's fields, and the frozen
    atomics in them, never change.  ``with_atomic`` and ``without_atomic``
    derive the new rule's four caches from this rule's: the atomic is
    inserted into or removed from its slot's sorted atomics (no re-sort),
    the same position is spliced into ``atomics()`` and ``sort_key``, and
    the ``wsc`` moves by the atomic's.  ``dataclasses.replace`` makes a
    new rule with nothing cached.
    """

    subject_type: str
    subject_condition: frozenset[AtomicCondition]
    resource_type: str
    resource_condition: frozenset[AtomicCondition]
    constraint: frozenset[AtomicConstraint]
    actions: frozenset[str]

    def __post_init__(self):
        if not self.actions:
            raise ModelError("rules must carry at least one action")

    def part(self, slot: Slot) -> frozenset:
        """The atomics in ``slot``, unordered."""
        return getattr(self, _SLOT_FIELDS[slot])

    def with_atomic(self, slot: Slot, atomic) -> Rule:
        part = self.part(slot)
        if atomic in part:
            return self
        k = bisect_left(self.by_slot[slot], atomic.sort_key, key=_sort_key)
        return self._edited(slot, part | {atomic}, k, (atomic,), wsc(atomic))

    def without_atomic(self, slot: Slot, atomic) -> Rule:
        part = self.part(slot)
        if atomic not in part:
            return self
        k = self.by_slot[slot].index(atomic)
        return self._edited(slot, part - {atomic}, k, (), -wsc(atomic))

    def _edited(self, slot: Slot, part: frozenset, k: int, inserted: tuple, delta: int):
        """This rule with ``slot`` holding ``part``, its caches this rule's
        with the slot's ``k``-th sorted atomic replaced by ``inserted`` (one
        atomic, or none to remove it) and ``wsc`` moved by ``delta``.

        The rule is made without ``__init__``: its fields are this rule's,
        and an edit leaves the actions, the one field ``__post_init__``
        checks, as they are."""
        state = {name: self.__dict__[name] for name in _RULE_FIELDS}
        state[_SLOT_FIELDS[slot]] = part
        slot = _SLOTS[slot]
        drop = 1 - len(inserted)  # atomics removed at k
        by_slot, key = list(self.by_slot), list(self.sort_key)
        by_slot[slot] = by_slot[slot][:k] + inserted + by_slot[slot][k + drop:]
        keys = key[2 + slot]  # the sort key holds its slots' keys from index 2
        key[2 + slot] = keys[:k] + tuple(a.sort_key for a in inserted) + keys[k + drop:]
        at = sum(map(len, self.by_slot[:slot])) + k  # the edit's place in atomics()
        flat = self._atomics
        rule = object.__new__(Rule)
        rule.__dict__.update(
            state,
            by_slot=tuple(by_slot),
            _atomics=flat[:at] + tuple((slot, a) for a in inserted) + flat[at + drop:],
            sort_key=tuple(key),
            wsc=self.wsc + delta,
        )
        return rule

    @cached_property
    def by_slot(self) -> tuple[tuple, tuple, tuple]:
        """Each slot's atomics sorted by ``sort_key``, indexed by :class:`Slot`."""
        return tuple(
            tuple(sorted(self.part(slot), key=lambda a: a.sort_key)) for slot in _SLOTS
        )

    @cached_property
    def _atomics(self) -> tuple:
        return tuple((slot, a) for slot in _SLOTS for a in self.by_slot[slot])

    def atomics(self) -> tuple:
        """(slot, atomic) pairs in canonical order: subject conditions,
        resource conditions, constraints, each sorted by ``sort_key``."""
        return self._atomics

    @cached_property
    def sort_key(self):
        return (
            self.subject_type,
            self.resource_type,
            *(tuple(a.sort_key for a in atoms) for atoms in self.by_slot),
            tuple(sorted(self.actions)),
        )

    @cached_property
    def wsc(self) -> int:
        return sum(wsc(a) for _, a in self.atomics()) + len(self.actions)

    def text(self) -> str:
        subject, resource, constraint = self.by_slot
        sc = "; ".join(c.text("subject") for c in subject) or "true"
        rc = "; ".join(c.text("resource") for c in resource) or "true"
        con = "; ".join(c.text() for c in constraint) or "true"
        acts = ",".join(sorted(self.actions))
        return f"<{self.subject_type}; {sc}; {self.resource_type}; {rc}; {con}; {{{acts}}}>"


_RULE_FIELDS = tuple(f.name for f in dataclass_fields(Rule))


class SraTuple(NamedTuple):
    subject: str
    resource: str
    action: str


@dataclass(frozen=True)
class Policy:
    class_model: ClassModel
    object_model: ObjectModel
    actions: frozenset[str]
    rules: tuple[Rule, ...]


# A policy meaning: (subject type, resource type, action) -> the plane of
# the pairs granted that action (:func:`rule_plane`'s layout).  Zero planes
# are left out, so equal meanings are equal dicts.  :func:`policy_planes`
# builds a rule set's; ``AclPolicy.au_planes`` is the authorizations'.
Meaning = Mapping[tuple[str, str, str], int]


@dataclass(frozen=True)
class AclPolicy:
    """The input of mining: authorizations over a class and object model.

    ``triples`` holds the authorizations as given, each a (subject id,
    resource id, action) list or tuple:
    :func:`rebac_miner.jsonio.acl_from_documents` passes the parsed JSON
    array itself, Python callers a frozenset of :class:`SraTuple`.  A
    triple given twice counts once, and ``triples`` must not change
    afterwards.  :attr:`au_planes` is the one reader of the triples: it
    checks them against the model and is the form the miner reads, and
    :attr:`au` is the tuple set, made only when read.

    ``actions=None`` means the actions the triples use: construction then
    reads :attr:`au_planes`, so a bad triple raises :class:`ModelError`
    there, and sets ``actions`` from its keys.  Declared actions are checked
    when :attr:`au_planes` is first read.
    """

    class_model: ClassModel
    object_model: ObjectModel
    actions: Optional[frozenset[str]]
    triples: Collection[Sequence[str]]

    def __post_init__(self):
        if self.actions is None:
            used = frozenset(action for _, _, action in self.au_planes)
            object.__setattr__(self, "actions", used)

    @cached_property
    def au(self) -> frozenset[SraTuple]:
        """The authorizations as a set of :class:`SraTuple`: ``triples``
        itself when it is a frozenset, otherwise one tuple per distinct
        triple, made on first access and kept."""
        if isinstance(self.triples, frozenset):
            return self.triples
        return frozenset(map(SraTuple._make, self.triples))

    @cached_property
    def au_planes(self) -> Meaning:
        """The authorizations as a :data:`Meaning`: (subject type, resource
        type, action) maps to the plane of the pairs granted that action, in
        the two classes' :class:`PairLayout`.

        This is the only code that reads the triples, and it checks them in
        bulk: the set of their types must hold only lists and tuples; one
        loop unpacks each into three, looks both ids up (an id found is a
        string, as object ids are) and files the pair's row under its key;
        and each distinct action must be a string and, when ``actions`` are
        declared, one of them.  Only when a check fails does a scan in order
        raise :class:`ModelError` for the first triple that is not a list or
        tuple of three strings, names an object missing from the object
        model, or uses an action missing from declared ``actions``.

        Keys with no grants are absent, so two such mappings are equal
        exactly when the tuple sets they encode are.  Computed once per
        policy, which is safe because a frozen ``AclPolicy`` and its object
        model never change.
        """
        om, actions, triples = self.object_model, self.actions, self.triples
        size = {cls: len(objects) for cls, objects in om._by_type.items()}
        place = om._place
        positions: dict[tuple[str, str, str], list[int]] = {}
        if all(issubclass(kind, (list, tuple)) for kind in set(map(type, triples))):
            try:
                for s, r, a in triples:
                    (s_type, s_pos), (r_type, r_pos) = place[s], place[r]
                    # PairLayout's row i*R + j, inlined: a layout lookup and
                    # an (i, j) tuple per triple would cost more than the row.
                    row = s_pos * size[r_type] + r_pos
                    try:
                        positions[s_type, r_type, a].append(row)
                    except KeyError:
                        positions[s_type, r_type, a] = [row]
            except (ValueError, KeyError, TypeError):
                pass  # a length other than 3, an unknown id, an unhashable field
            else:
                used = {a for _, _, a in positions}
                if all(isinstance(a, str) for a in used) and (
                    actions is None or used <= actions
                ):
                    return MappingProxyType({
                        (s, r, a): mask_of(rows, size[s] * size[r])
                        for (s, r, a), rows in positions.items()
                    })
        _raise_first_bad_triple(triples, place, actions)


def _raise_first_bad_triple(triples, place, actions) -> NoReturn:
    """Raise :class:`ModelError` for the first of ``triples`` that
    :attr:`AclPolicy.au_planes` refuses, checking them one by one."""
    for t in triples:
        if not (
            isinstance(t, (list, tuple))
            and len(t) == 3
            and isinstance(t[0], str)
            and isinstance(t[1], str)
            and isinstance(t[2], str)
        ):
            raise ModelError(f"authorizations: bad triple {t!r}")
        if t[0] not in place or t[1] not in place:
            raise ModelError(
                f"authorization references unknown object: {SraTuple._make(t)}"
            )
        if actions is not None and t[2] not in actions:
            raise ModelError(f"authorization uses undeclared action: {SraTuple._make(t)}")
    raise AssertionError("au_planes refused triples that each pass its checks")


def validate_rule(cm: ClassModel, rule: Rule) -> None:
    for cls, conditions in zip((rule.subject_type, rule.resource_type), rule.by_slot):
        if not cm.has_class(cls):
            raise ModelError(f"unknown class in rule: {cls}")
        for ac in conditions:
            ptype, mult = path_type(cm, cls, ac.path)
            expected = "contains" if mult is Multiplicity.MANY else "in"
            if ac.op != expected:
                raise ModelError(
                    f"condition {ac.text('x')}: operator {ac.op!r} does not match"
                    f" path multiplicity {mult.value}"
                )
            atoms = ac.value if isinstance(ac.value, frozenset) else {ac.value}
            for atom in atoms:
                if (ptype == BOOLEAN) != isinstance(atom, bool):
                    raise ModelError(
                        f"condition {ac.text('x')}: constant {atom!r} does not"
                        f" match path type {ptype}"
                    )
    for con in rule.constraint:
        t1, m1 = path_type(cm, rule.subject_type, con.path1)
        t2, m2 = path_type(cm, rule.resource_type, con.path2)
        if t1 != t2:
            raise ModelError(f"constraint {con.text()}: path types differ ({t1} vs {t2})")
        expected = constraint_ops(m1, m2)
        if con.op not in expected:
            raise ModelError(
                f"constraint {con.text()}: operator {con.op!r} incompatible with"
                f" multiplicities ({m1.value}, {m2.value})"
            )


def constraint_ops(m1: Multiplicity, m2: Multiplicity) -> tuple[str, ...]:
    """The constraint operators a pair of path multiplicities admits."""
    many1 = m1 is Multiplicity.MANY
    many2 = m2 is Multiplicity.MANY
    if many1 and many2:
        return ("supseteq", "subseteq")
    if many1:
        return ("contains",)
    if many2:
        return ("in",)
    return ("equal",)


class ValueIndex(NamedTuple):
    """One path's values over a class's objects: ``values`` holds each
    object's value along the path in ``objects_of`` order, and the rest
    are masks over the same objects (bit i for the i-th).  A value is an
    atom, None or UNKNOWN on a one or optional path, and a set of atoms,
    possibly holding UNKNOWN, on a many path.

    ``by`` maps each atom, and None, to the objects whose value equals it
    or (for a many path) contains it; ``unknown`` holds the objects whose
    value is UNKNOWN or contains it.  No object of a many path maps to
    None, and UNKNOWN is never a key of ``by``.
    """

    values: tuple
    by: Mapping[object, int]
    unknown: int
    full: int
    many: bool


def value_index(cm: ClassModel, om: ObjectModel, cls: str, path: PathT) -> ValueIndex:
    """The :class:`ValueIndex` of ``path`` over ``cls``, memoized on ``om``.

    Only the empty path and one-hop paths read objects, each object once:
    the empty path and ``id`` read the object's id, any other field its
    stored value, except that on a many path (a many field) UNKNOWN
    becomes {UNKNOWN} and None the empty set, the rule :func:`_compose`
    applies.  A longer path's values are composed hop by hop
    (:func:`_compose`) from two memoized indexes: its prefix's over
    ``cls`` and its last field's one-hop index over the class the prefix
    ends in, so no object is navigated recursively.  The path's
    multiplicity is looked up once.
    """
    key = (cls, path)
    try:
        return om._index[key]
    except KeyError:
        pass
    many = path_type(cm, cls, path)[1] is Multiplicity.MANY
    objects = om.objects_of(cls)
    if path in ((), (ID_FIELD,)):
        values = tuple(obj.id for obj in objects)
    elif len(path) == 1:
        name = path[0]
        unknown, none = (frozenset({UNKNOWN}), frozenset()) if many else (UNKNOWN, None)
        values = tuple(
            unknown if v is UNKNOWN else none if v is None else v
            for v in (obj.fields[name] for obj in objects)
        )
    else:
        head = value_index(cm, om, cls, path[:-1])
        mid = path_type(cm, cls, path[:-1])[0]
        values = _compose(om, head, value_index(cm, om, mid, path[-1:]), many)
    positions: dict[object, list[int]] = {}
    unknown = []
    for i, value in enumerate(values):
        for atom in value if many else (value,):
            if atom is UNKNOWN:
                unknown.append(i)
            else:
                positions.setdefault(atom, []).append(i)
    size = len(objects)
    index = ValueIndex(
        values,
        {atom: mask_of(bits, size) for atom, bits in positions.items()},
        mask_of(unknown, size),
        (1 << size) - 1,
        many,
    )
    om._index[key] = index
    return index


def _compose(om: ObjectModel, head: ValueIndex, last: ValueIndex, many: bool) -> tuple:
    """Each object's value along a path, given ``head``, the
    :class:`ValueIndex` of the path without its last field, and ``last``,
    that field's one-hop index over the class ``head`` ends in.

    An object ``head`` reaches is found in ``last`` by its
    ``ObjectModel._place``.  From a one or optional prefix, UNKNOWN stays
    UNKNOWN and None stays None, or become {UNKNOWN} and the empty set
    when the whole path is many (``many``); across a many prefix, each
    reached object's value is merged into a set as :func:`_merge_into`
    does, so UNKNOWN is kept as an element and None drops out.  The
    tests' per-object navigator (``oracles.nav``) states these rules
    recursively and checks every index against them.
    """
    place, tail = om._place, last.values
    if head.many:
        out = []
        for value in head.values:
            merged: set = set()
            for el in value:
                _merge_into(merged, UNKNOWN if el is UNKNOWN else tail[place[el][1]])
            out.append(frozenset(merged))
        return tuple(out)
    unknown, none = (frozenset({UNKNOWN}), frozenset()) if many else (UNKNOWN, None)
    return tuple(
        unknown if v is UNKNOWN else none if v is None else tail[place[v][1]]
        for v in head.values
    )


def _any_of(index: ValueIndex, atoms) -> int:
    """The objects whose value equals or contains any of ``atoms``."""
    mask = 0
    for atom in atoms:
        mask |= index.by.get(atom, 0)
    return mask


def pair_planes(
    cm: ClassModel, om: ObjectModel, s_cls: str, r_cls: str, slot: Slot, atomic
) -> tuple[int, int]:
    """(T, F) bitplanes of ``atomic``, read as positive, in ``slot`` of a
    rule from ``s_cls`` to ``r_cls``, over the two classes'
    :class:`PairLayout`.  A negated atomic is exactly T where its positive
    form is F, so index ``atomic.negated`` is its T plane.

    Every atomic, an identity condition (``id in {...}``) included, gets
    its planes by mask algebra over the :func:`value_index` of its
    path(s), equal cell by cell to the atomic's per-object or per-pair
    truth (the tests' ``oracles.tval_condition`` and
    ``oracles.tval_constraint``).  A condition's T mask over its side's
    objects is the OR of its constants' masks (for a many path, the mask
    of its one constant), its U mask the unknown mask minus T, and its F
    mask the rest; T and F are spread from the objects to their pairs by
    the layout's ``of_subjects`` or ``of_resources``, and with no U cell
    the F plane is every pair outside the T plane.  A constraint's
    planes are built per distinct subject-side value
    (:func:`_constraint_planes`).

    Memoized on ``om`` under the class pair, the slot and the positive
    form's fields: datasets, rule meanings and both parts of phase 2 read
    this one memo, so each atomic's planes are built once per object model.
    """
    if slot is _CONSTRAINT:
        key = (s_cls, r_cls, slot, atomic.path1, atomic.op, atomic.path2)
    else:
        key = (s_cls, r_cls, slot, atomic.path, atomic.op, atomic.value)
    try:
        return om._planes[key]
    except KeyError:
        pass
    if slot is _CONSTRAINT:
        planes = _constraint_planes(cm, om, s_cls, r_cls, atomic)
    else:
        index = value_index(cm, om, s_cls if slot is _SUBJECT else r_cls, atomic.path)
        # A many path's values are sets: T holds its objects containing the
        # constant itself (an "in" set is never an element, so T is empty).
        t = index.by.get(atomic.value, 0) if index.many else _any_of(index, atomic.value)
        u = index.unknown & ~t
        layout = om.pairs(s_cls, r_cls)
        spread = layout.of_subjects if slot is _SUBJECT else layout.of_resources
        pair_t = spread(t)
        if u:
            planes = pair_t, spread(index.full & ~t & ~index.unknown)
        else:  # F is every pair outside T: spread one mask, not two
            planes = pair_t, layout.full & ~pair_t
    om._planes[key] = planes
    return planes


def _constraint_planes(cm, om, s_cls: str, r_cls: str, con: AtomicConstraint):
    """Subjects whose ``path1`` navigates to equal values (read from the
    subject side's :func:`value_index`) share a row of resources, so each
    distinct subject-side value gets one (T, F) row, computed from the
    resource side's :func:`value_index` by :func:`_constraint_row`."""
    index = value_index(cm, om, r_cls, con.path2)
    row_of: dict = {}
    rows = []
    for v1 in value_index(cm, om, s_cls, con.path1).values:
        if v1 not in row_of:
            row_of[v1] = _constraint_row(con.op, v1, index)
        rows.append(row_of[v1])
    layout = om.pairs(s_cls, r_cls)
    return tuple(layout.of_subject_rows([r[side] for r in rows]) for side in (0, 1))


def _constraint_row(op: str, v1: Value, index: ValueIndex) -> tuple[int, int]:
    """(T, F) masks over the resources of ``op`` between the subject-side
    value ``v1`` and each resource's value in ``index``; cell by cell the
    constraint's truth read as positive, which the tests' oracle states as
    ``oracles._constraint_base`` (``_membership`` and ``_subset`` for the
    set operators)."""
    full, unknown = index.full, index.unknown
    if op == "equal":
        if v1 is UNKNOWN:
            return 0, 0
        t = index.by.get(v1, 0)
        return t, full & ~t & ~unknown
    if op == "in":  # v1 in each resource's set
        if v1 is UNKNOWN:  # only the definitely empty sets are decided
            return 0, full & ~unknown & ~_any_of(index, index.by)
        if v1 is None:
            return 0, full
        t = index.by.get(v1, 0)
        return t, full & ~t & ~unknown
    if op == "contains":  # each resource's value in v1's set
        t = _any_of(index, v1)
        if UNKNOWN in v1:  # only None is decided among the rest
            return t, index.by.get(None, 0)
        # An unknown resource value is F only against the empty set.
        return t, full & ~t & (~unknown if v1 else full)
    known = v1 - {UNKNOWN}
    if op == "subseteq":  # v1's known atoms inside each resource's set
        contain = full
        for atom in known:
            contain &= index.by.get(atom, 0)
        return (0 if UNKNOWN in v1 else contain), full & ~contain & ~unknown
    if op == "supseteq":  # each resource's known atoms inside v1's
        inside = full & ~_any_of(index, (a for a in index.by if a not in known))
        return inside & ~unknown, (0 if UNKNOWN in v1 else full & ~inside)
    raise ModelError(f"unknown constraint operator: {op!r}")


def rule_plane(cm: ClassModel, om: ObjectModel, rule: Rule) -> int:
    """The subject/resource pairs ``rule`` grants, as one plane in the
    :class:`PairLayout` of its subject and resource classes: the pairs on
    which all its atomics are exactly T.  The rule grants each of these
    pairs every one of its actions.

    Computed as an AND of its atomics' pair-layout T-planes
    (:func:`pair_planes`, memoized on ``om``), which stops once the plane
    is empty, so each atomic's planes are computed once per object model,
    however many rules share it.  The memo is safe for the reason given on
    :class:`ObjectModel`: the model never changes, so neither does an
    atomic's truth on it.
    """
    s_cls, r_cls = rule.subject_type, rule.resource_type
    plane = om.pairs(s_cls, r_cls).full
    for slot, atomic in rule.atomics():
        plane &= pair_planes(cm, om, s_cls, r_cls, slot, atomic)[atomic.negated]
        if not plane:
            break
    return plane


def plane_tuples(
    om: ObjectModel, s_cls: str, r_cls: str, plane: int, actions: Iterable[str]
) -> frozenset[SraTuple]:
    """The authorizations a pair plane over ``s_cls`` x ``r_cls`` stands
    for when each of its pairs is granted every one of ``actions``."""
    layout = om.pairs(s_cls, r_cls)
    subjects, resources = layout.subjects, layout.resources
    actions = tuple(actions)
    return frozenset(
        SraTuple(subjects[i], resources[j], a)
        for i, j in layout.positions(plane)
        for a in actions
    )


def policy_planes(rules: Iterable[Rule], plane_of: Callable[[Rule], int]) -> Meaning:
    """The :data:`Meaning` of ``rules``, given each rule's :func:`rule_plane`
    as ``plane_of(rule)``: each plane ORed into the entry of each of the
    rule's actions, with zero planes left out."""
    out: dict[tuple[str, str, str], int] = {}
    for rule in rules:
        plane = plane_of(rule)
        if plane:
            for action in rule.actions:
                key = (rule.subject_type, rule.resource_type, action)
                out[key] = out.get(key, 0) | plane
    return out


def meaning_mismatch(
    om: ObjectModel, granted: Meaning, au: Meaning
) -> tuple[Optional[SraTuple], Optional[SraTuple]]:
    """The smallest tuple of ``au`` that ``granted`` misses and the smallest
    tuple ``granted`` holds beyond ``au``, each None if there is none.

    Only the pairs on which the two meanings differ are decoded into
    tuples; equal meanings decode none.
    """

    def smallest(planes) -> Optional[SraTuple]:
        return min(
            (
                t
                for (s, r, a), plane in planes
                if plane
                for t in plane_tuples(om, s, r, plane, (a,))
            ),
            default=None,
        )

    keys = granted.keys() | au.keys()
    return (
        smallest((k, au.get(k, 0) & ~granted.get(k, 0)) for k in keys),
        smallest((k, granted.get(k, 0) & ~au.get(k, 0)) for k in keys),
    )


def meaning(policy: Policy) -> frozenset[SraTuple]:
    """The authorizations ``policy`` grants: its :func:`policy_planes`,
    each (subject type, resource type, action) plane decoded into tuples
    once, however many rules grant into it.  Equal to the union of the
    tuples each rule's :func:`rule_plane` decodes to."""
    cm, om = policy.class_model, policy.object_model
    planes = policy_planes(policy.rules, partial(rule_plane, cm, om))
    return frozenset().union(
        *(plane_tuples(om, s, r, plane, (a,)) for (s, r, a), plane in planes.items())
    )


def wsc(x) -> int:
    """Weighted structural complexity: path lengths plus constant counts,
    plus one per negation; rules add their action count; policies sum rules."""
    if isinstance(x, AtomicCondition):
        size = len(x.value) if isinstance(x.value, frozenset) else 1
        return len(x.path) + size + (1 if x.negated else 0)
    if isinstance(x, AtomicConstraint):
        return len(x.path1) + len(x.path2) + (1 if x.negated else 0)
    if isinstance(x, Rule):
        return x.wsc
    if isinstance(x, Policy):
        return sum(wsc(r) for r in x.rules)
    raise TypeError(f"wsc undefined for {type(x).__name__}")


def policy_wsc(rules: Iterable[Rule]) -> int:
    return sum(wsc(r) for r in rules)


def sort_rules(rules: Iterable[Rule]) -> tuple[Rule, ...]:
    unique = {r.sort_key: r for r in rules}
    return tuple(unique[k] for k in sorted(unique))
