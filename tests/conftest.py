import json
from pathlib import Path

import pytest

from rebac_miner import jsonio
from rebac_miner.model import AclPolicy, Rule
from rebac_miner.tvl import (
    FeatureId,
    FeatureVector,
    LabeledDataset,
    LabeledRow,
    TruthValue,
)

F, U, T = TruthValue.F, TruthValue.U, TruthValue.T

RUNNING_EXAMPLE = Path(__file__).resolve().parent.parent / "fixtures" / "running-example"


def running_example() -> tuple[AclPolicy, tuple[Rule, ...]]:
    """The two-student/three-document worked example, read from its fixture
    through ``jsonio``: its ACL (with its unknowns) and its ground-truth
    rules, the same-department rule and then the handbook rule."""

    def load(name):
        return json.loads((RUNNING_EXAMPLE / f"{name}.json").read_text(encoding="utf-8"))

    acl = jsonio.acl_from_documents(load("classmodel"), load("objectmodel"), load("au"))
    _, rules = jsonio.rules_from_json(load("groundtruth"), acl.class_model)
    return acl, rules


# The two-student/three-document worked example: features are
# sub.dept=CS, res.dept=CS, res.type=Handbook, sub.dept=res.dept.
EXAMPLE_FEATURES = (
    FeatureId(0, "sub.dept=CS", 2),
    FeatureId(1, "res.dept=CS", 2),
    FeatureId(2, "res.type=Handbook", 2),
    FeatureId(3, "sub.dept=res.dept", 2),
)

EXAMPLE_ROWS = (
    (("CS-student-1", "CS-doc-1"), (T, U, T, U), T),
    (("CS-student-1", "CS-doc-2"), (T, T, U, T), T),
    (("CS-student-1", "CS-doc-3"), (T, U, U, U), F),
    (("EE-student-1", "CS-doc-1"), (U, U, T, U), T),
    (("EE-student-1", "CS-doc-2"), (U, T, U, U), F),
    (("EE-student-1", "CS-doc-3"), (U, U, U, U), F),
)


def make_dataset(features, rows):
    """A dataset over ``features`` with one row per (cells, label)."""
    return LabeledDataset.from_rows(
        features, [LabeledRow(FeatureVector(tuple(cells)), label) for cells, label in rows]
    )


def row_pairs(layout):
    """The (subject id, resource id) pair each row of a pair layout stands
    for, read through its ``position``."""
    return [
        (layout.subjects[i], layout.resources[j])
        for i, j in map(layout.position, range(len(layout)))
    ]


@pytest.fixture
def example_dataset():
    return make_dataset(EXAMPLE_FEATURES, [(cells, label) for _, cells, label in EXAMPLE_ROWS])
