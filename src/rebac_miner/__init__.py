"""Mining of concise ReBAC/ABAC policies from access control lists over
object models that may contain unknown attribute values, built around a
learner of DNF formulas in Kleene three-valued logic."""

__version__ = "0.1.0"

from rebac_miner.learner import (  # noqa: F401
    IdStrategy,
    LearnResult,
    LearningError,
    learn_formula,
)
from rebac_miner.miner import (  # noqa: F401
    MinerConfig,
    MinerError,
    MineResult,
    merge_and_simplify,
    mine,
    mine_detailed,
    naive_unknown_as_false_diagnostic,
)
from rebac_miner.model import (  # noqa: F401
    UNKNOWN,
    AclPolicy,
    AtomicCondition,
    AtomicConstraint,
    ClassModel,
    FieldDecl,
    ModelError,
    Multiplicity,
    ObjectInstance,
    ObjectModel,
    Policy,
    Rule,
    SraTuple,
    meaning,
    wsc,
)
from rebac_miner.metrics import (  # noqa: F401
    SimilarityReport,
    compare_policies,
    jaccard,
    semantic_similarity,
    syn_policy,
)
from rebac_miner.tvl import TruthValue  # noqa: F401
