"""Instance sets of the mining benchmark and their seeded inputs.

Each workload mines a fixed base set of generated instances.  The base
instances come from ``datagen.generate`` and ``inject_unknowns`` with
generator seeds that do not depend on the benchmark seed: per-instance
mining cost is heavy-tailed (0.05 s to 168 s at org-chart n=6, s=2), so an
instance set redrawn per seed swings several-fold between seeds.  The
benchmark seed instead permutes the object ids within each class.  That
changes every document, the feature order and thus the learner's
tie-breaks, but not the structure of the instance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from rebac_miner import jsonio
from rebac_miner.datagen import builtin_spec, generate, inject_unknowns
from rebac_miner.miner import MinerConfig
from rebac_miner.model import ObjectInstance, ObjectModel, SraTuple

BASE_SEED = 0


@dataclass(frozen=True)
class Cell:
    spec: str
    n: int
    s: float
    count: int


@dataclass(frozen=True)
class Workload:
    name: str
    instance_set: str
    cells: tuple[Cell, ...]
    config: MinerConfig


UNKNOWN_CELLS = (Cell("univ-mini", 8, 2, 24), Cell("org-chart", 4, 2, 10))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "complete",
            "complete",
            (Cell("univ-mini", 60, 0, 1), Cell("org-chart", 30, 0, 1)),
            MinerConfig(),
        ),
        Workload("unknowns", "unknowns", UNKNOWN_CELLS, MinerConfig()),
        Workload(
            "unknowns-negfree",
            "unknowns",
            UNKNOWN_CELLS,
            MinerConfig(allow_negation=False),
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    """One mining input: the three JSON documents plus its ground truth."""

    id: str
    texts: tuple[str, str, str]  # class model, object model, authorizations
    reference: tuple  # the generator's ground-truth rules

    def digests(self) -> list[str]:
        return [hashlib.sha256(t.encode()).hexdigest() for t in self.texts]


def _generator_seed(cell: Cell, k: int) -> int:
    entropy = [BASE_SEED, *cell.spec.encode(), cell.n, int(cell.s * 100), k]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def relabel(om: ObjectModel, au, seed: int):
    """Permute object ids within each class, keeping each id's prefix."""
    rng = np.random.default_rng(seed)
    by_type: dict[str, list[str]] = {}
    for obj in om.objects():
        by_type.setdefault(obj.type, []).append(obj.id)
    mapping = {}
    for cls in sorted(by_type):
        ids = by_type[cls]
        for old, new in zip(ids, rng.permutation(len(ids))):
            mapping[old] = f"{old.rsplit('-', 1)[0]}-{new}"

    def value(v):
        if isinstance(v, str):
            return mapping[v]
        if isinstance(v, frozenset):
            return frozenset(mapping[x] for x in v)
        return v

    renamed = ObjectModel(
        ObjectInstance(
            mapping[obj.id], obj.type, {k: value(v) for k, v in obj.fields.items()}
        )
        for obj in om.objects()
    )
    granted = frozenset(
        SraTuple(mapping[t.subject], mapping[t.resource], t.action) for t in au
    )
    return renamed, granted


def build_instances(workload: Workload, seed: int, span) -> list[Instance]:
    """Generate, degrade, relabel and serialise every instance of a workload.

    ``span`` is a context-manager factory taking a layer name (a no-op
    when tracing is off).
    """
    out = []
    for cell in workload.cells:
        spec = builtin_spec(cell.spec)
        cm_text = jsonio.dumps(jsonio.class_model_to_json(spec.class_model))
        for k in range(cell.count):
            gen_seed = _generator_seed(cell, k)
            with span("datagen.generate"):
                om, acl = generate(spec, cell.n, gen_seed)
            with span("datagen.inject"):
                degraded = inject_unknowns(om, spec, cell.s, gen_seed)
            with span("datagen.serialise"):
                renamed, au = relabel(degraded, acl.au, seed)
                texts = (
                    cm_text,
                    jsonio.dumps(jsonio.object_model_to_json(renamed)),
                    jsonio.dumps(jsonio.au_to_json(au)),
                )
            out.append(
                Instance(f"{cell.spec}-n{cell.n}-s{cell.s:g}-{k}", texts, spec.rules)
            )
    return out


def input_digests(instances: list[Instance]) -> dict[str, list[str]]:
    return {inst.id: inst.digests() for inst in instances}


def combined_digest(instances: list[Instance]) -> str:
    return hashlib.sha256(
        json.dumps(input_digests(instances), sort_keys=True).encode()
    ).hexdigest()
