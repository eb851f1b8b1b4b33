"""Seeded synthetic dataset generation and unknown-value injection.

A generator spec bundles a class model, ground-truth rules, per-class
instance-count laws (mean linear in the size parameter N), and per-field
value distributions.  Authorizations are computed from the fully-known
object model; degradation only happens afterwards, via
:func:`inject_unknowns`, so the authorization set stays the ground truth
while attribute knowledge erodes.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from rebac_miner.model import (
    UNKNOWN,
    AclPolicy,
    AtomicCondition,
    AtomicConstraint,
    ClassModel,
    FieldDecl,
    Multiplicity,
    ObjectInstance,
    ObjectModel,
    Policy,
    Rule,
    meaning,
    validate_object_model,
)

log = logging.getLogger(__name__)


class FieldClass(enum.Enum):
    """How resistant a field is to unknown injection."""

    REQUIRED = "required"    # never unknown
    IMPORTANT = "important"  # rarely unknown: p = 0.01*s
    NORMAL = "normal"        # p drawn once per field from U[0.02*s, 0.05*s]


@dataclass(frozen=True)
class CountLaw:
    """Instance count: max(minimum, round(normal(base + per_n*N, sd)))."""

    base: float = 0.0
    per_n: float = 0.0
    sd: float = 0.0
    minimum: int = 1


@dataclass(frozen=True)
class FieldLaw:
    """Value distribution plus injection class for one declared field.

    ``law`` is one of: ("uniform-ref",) for one-valued reference fields
    (uniform over target instances), ("optional-ref", p_none) for optional
    references (None with probability p_none, else uniform), ("subset", p)
    for many-valued reference fields (each target kept with probability
    p), and ("bernoulli", p) for Booleans.
    """

    field_class: FieldClass
    law: tuple

    def __post_init__(self):
        kind = self.law[0]
        if kind not in ("uniform-ref", "optional-ref", "subset", "bernoulli"):
            raise ValueError(f"unknown field law: {kind!r}")


@dataclass(frozen=True)
class GeneratorSpec:
    """A class model, its ground-truth rules and the laws that populate it.

    Every class needs a count law and every declared field a field law
    (:class:`ValueError` if not).  The built-in specs go past the 15%
    guideline for required and important fields: univ-mini marks 3 of its
    5 fields so and org-chart 4 of 8, the fields their rules hinge on, so
    that unknowns fall mostly on descriptive fields.
    """

    name: str
    class_model: ClassModel
    rules: tuple[Rule, ...]
    actions: frozenset[str]
    counts: Mapping[str, CountLaw]
    fields: Mapping[tuple[str, str], FieldLaw]
    id_prefix: Mapping[str, str]

    def __post_init__(self):
        for cls, decls in self.class_model.classes.items():
            if cls not in self.counts:
                raise ValueError(f"no count law for class {cls}")
            for name in decls:
                if (cls, name) not in self.fields:
                    raise ValueError(f"no field law for {cls}.{name}")


def _rng(*entropy) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def generate(spec: GeneratorSpec, n: int, seed: int) -> tuple[ObjectModel, AclPolicy]:
    """Pseudorandom object model plus its ground-truth ACL policy.

    Deterministic in (spec, n, seed).  All attribute values are known at
    this stage; the returned ACL's authorization set is the meaning of the
    spec's rules over the generated model.
    """
    if n < 1:
        raise ValueError("size parameter must be >= 1")
    rng = _rng(seed, n)
    ids: dict[str, list[str]] = {}
    for cls in sorted(spec.class_model.classes):
        law = spec.counts[cls]
        count = max(law.minimum, round(rng.normal(law.base + law.per_n * n, law.sd)))
        prefix = spec.id_prefix.get(cls, cls.lower())
        ids[cls] = [f"{prefix}-{i}" for i in range(count)]

    objects = []
    for cls in sorted(spec.class_model.classes):
        decls = dict(spec.class_model.classes[cls])
        for oid in ids[cls]:
            fields = {}
            for name in sorted(decls):
                decl = decls[name]
                fields[name] = _draw_value(rng, spec.fields[(cls, name)], decl, ids)
            objects.append(ObjectInstance(oid, cls, fields))

    om = ObjectModel(objects)
    validate_object_model(spec.class_model, om)
    policy = Policy(spec.class_model, om, spec.actions, spec.rules)
    acl = AclPolicy(spec.class_model, om, spec.actions, meaning(policy))
    return om, acl


def _draw_value(rng, law: FieldLaw, decl: FieldDecl, ids):
    kind = law.law[0]
    if kind == "bernoulli":
        return bool(rng.random() < law.law[1])
    targets = ids[decl.type]
    if kind == "uniform-ref":
        return targets[int(rng.integers(len(targets)))]
    if kind == "optional-ref":
        if rng.random() < law.law[1]:
            return None
        return targets[int(rng.integers(len(targets)))]
    keep = law.law[1]
    return frozenset(t for t in targets if rng.random() < keep)


def inject_unknowns(
    om: ObjectModel, spec: GeneratorSpec, s: float, seed: int
) -> ObjectModel:
    """Replace field values with unknown, at rates scaled by ``s``.

    Per (class, field): required fields keep p=0, important fields use
    p=0.01*s, normal fields draw p once from Uniform[0.02*s, 0.05*s].  Each
    instance's value is then independently replaced with probability p.
    Many-valued fields are replaced wholesale (stored sets cannot contain
    unknown).  Deterministic in (spec, s, seed); s=0 is the identity.
    ``s`` must be finite and at least 0 (:class:`ValueError` if not).
    """
    if not 0 <= s < math.inf:  # also refuses nan
        raise ValueError(f"scaling factor must be finite and >= 0, got {s}")
    rng = _rng(seed)
    replacements: dict[tuple[str, str], object] = {}
    for cls in sorted(spec.class_model.classes):
        for name in sorted(spec.class_model.classes[cls]):
            law = spec.fields[(cls, name)]
            if law.field_class is FieldClass.REQUIRED:
                p = 0.0
            elif law.field_class is FieldClass.IMPORTANT:
                p = 0.01 * s
            else:
                p = float(rng.uniform(0.02 * s, 0.05 * s))
            if p > 1.0:
                log.warning("injection probability %.3f clamped to 1", p)
                p = 1.0
            if p <= 0.0:
                continue
            for obj in om.objects_of(cls):
                if rng.random() < p:
                    replacements[(obj.id, name)] = UNKNOWN

    if not replacements:
        return om
    objects = []
    for obj in om.objects():
        fields = {
            name: replacements.get((obj.id, name), value)
            for name, value in obj.fields.items()
        }
        objects.append(ObjectInstance(obj.id, obj.type, fields))
    return ObjectModel(objects)


def unknown_fraction(om: ObjectModel) -> float:
    """Share of field slots holding the unknown placeholder."""
    total = 0
    unknown = 0
    for obj in om.objects():
        for value in obj.fields.values():
            total += 1
            if value is UNKNOWN:
                unknown += 1
    return unknown / total if total else 0.0


def _cond(path, *atoms, negated=False):
    return AtomicCondition(tuple(path), "in", frozenset(atoms), negated=negated)


def univ_mini() -> GeneratorSpec:
    """Three classes, two rules: same-department access plus public reads.

    The rule-critical fields (both dept references and the public flag)
    are marked important/required, mirroring how production datasets
    protect exactly the attributes their policies hinge on; the advisor
    and author references are descriptive noise that absorbs most of the
    unknown injection.
    """
    cm = ClassModel(
        {
            "Department": {},
            "Student": {
                "advisor": FieldDecl("Student", Multiplicity.OPTIONAL),
                "dept": FieldDecl("Department", Multiplicity.ONE),
            },
            "Document": {
                "author": FieldDecl("Student", Multiplicity.ONE),
                "dept": FieldDecl("Department", Multiplicity.ONE),
                "public": FieldDecl("Boolean", Multiplicity.ONE),
            },
        }
    )
    rules = (
        Rule(
            "Student",
            frozenset(),
            "Document",
            frozenset(),
            frozenset({AtomicConstraint(("dept",), "equal", ("dept",))}),
            frozenset({"read"}),
        ),
        Rule(
            "Student",
            frozenset(),
            "Document",
            frozenset({_cond(("public",), True)}),
            frozenset(),
            frozenset({"read"}),
        ),
    )
    return GeneratorSpec(
        name="univ-mini",
        class_model=cm,
        rules=rules,
        actions=frozenset({"read"}),
        counts={
            "Department": CountLaw(base=3, minimum=2),
            "Student": CountLaw(per_n=2, sd=0.7, minimum=2),
            "Document": CountLaw(per_n=3, sd=1.0, minimum=2),
        },
        fields={
            ("Student", "advisor"): FieldLaw(FieldClass.NORMAL, ("optional-ref", 0.3)),
            ("Student", "dept"): FieldLaw(FieldClass.IMPORTANT, ("uniform-ref",)),
            ("Document", "author"): FieldLaw(FieldClass.NORMAL, ("uniform-ref",)),
            ("Document", "dept"): FieldLaw(FieldClass.IMPORTANT, ("uniform-ref",)),
            ("Document", "public"): FieldLaw(FieldClass.REQUIRED, ("bernoulli", 0.3)),
        },
        id_prefix={"Department": "dept", "Student": "student", "Document": "doc"},
    )


def org_chart() -> GeneratorSpec:
    """Four classes with many-valued skill sets, exercising the set ops.

    Assignment needs all required skills; viewing needs urgency plus the
    task's topic among the subject's skills.  The manager/parent
    references and the dept fields are descriptive noise.
    """
    cm = ClassModel(
        {
            "Department": {},
            "Skill": {},
            "Employee": {
                "dept": FieldDecl("Department", Multiplicity.ONE),
                "manager": FieldDecl("Employee", Multiplicity.OPTIONAL),
                "skills": FieldDecl("Skill", Multiplicity.MANY),
            },
            "Task": {
                "dept": FieldDecl("Department", Multiplicity.ONE),
                "parent": FieldDecl("Task", Multiplicity.OPTIONAL),
                "topic": FieldDecl("Skill", Multiplicity.ONE),
                "required": FieldDecl("Skill", Multiplicity.MANY),
                "urgent": FieldDecl("Boolean", Multiplicity.ONE),
            },
        }
    )
    rules = (
        Rule(
            "Employee",
            frozenset(),
            "Task",
            frozenset(),
            frozenset({AtomicConstraint(("skills",), "supseteq", ("required",))}),
            frozenset({"assign"}),
        ),
        Rule(
            "Employee",
            frozenset(),
            "Task",
            frozenset({_cond(("urgent",), True)}),
            frozenset({AtomicConstraint(("skills",), "contains", ("topic",))}),
            frozenset({"view"}),
        ),
    )
    return GeneratorSpec(
        name="org-chart",
        class_model=cm,
        rules=rules,
        actions=frozenset({"assign", "view"}),
        counts={
            "Department": CountLaw(base=3, minimum=2),
            "Skill": CountLaw(base=4, minimum=3),
            "Employee": CountLaw(per_n=2, sd=0.7, minimum=2),
            "Task": CountLaw(per_n=3, sd=1.0, minimum=2),
        },
        fields={
            ("Employee", "dept"): FieldLaw(FieldClass.NORMAL, ("uniform-ref",)),
            ("Employee", "manager"): FieldLaw(FieldClass.NORMAL, ("optional-ref", 0.25)),
            ("Employee", "skills"): FieldLaw(FieldClass.IMPORTANT, ("subset", 0.5)),
            ("Task", "dept"): FieldLaw(FieldClass.NORMAL, ("uniform-ref",)),
            ("Task", "parent"): FieldLaw(FieldClass.NORMAL, ("optional-ref", 0.4)),
            ("Task", "topic"): FieldLaw(FieldClass.IMPORTANT, ("uniform-ref",)),
            ("Task", "required"): FieldLaw(FieldClass.IMPORTANT, ("subset", 0.3)),
            ("Task", "urgent"): FieldLaw(FieldClass.REQUIRED, ("bernoulli", 0.35)),
        },
        id_prefix={
            "Department": "dept",
            "Skill": "skill",
            "Employee": "emp",
            "Task": "task",
        },
    )


BUILTIN_SPECS = {
    "univ-mini": univ_mini,
    "org-chart": org_chart,
}


def builtin_spec(name: str) -> GeneratorSpec:
    try:
        return BUILTIN_SPECS[name]()
    except KeyError:
        raise ValueError(
            f"unknown generator spec {name!r}; available: {sorted(BUILTIN_SPECS)}"
        ) from None
