"""The benchmark's own checks: spans fire where predicted, tracing changes
no output.  Mines every workload twice, so it takes about a minute:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import pytest

import run

run.load_package()

import spans  # noqa: E402
from rebac_miner import miner  # noqa: E402
from workloads import WORKLOADS, build_instances  # noqa: E402

# The spans each workload is predicted to make hot (see workloads.json).
HOT = {
    "complete": {
        "features.enumerate",
        "features.build_dataset",
        "features.prune",
        "learner.learn_formula",
        "tree.build_tree",
        "split_scores.split_gains",
        "tvl.covers",
        "tvl.uncovered",
        "tvl.validity",
        "miner.extract_rules",
        "miner.phase2b",
        "model.rule_meaning",
    },
    "unknowns": {
        "features.id_columns",
        "learner.eliminate_unknown",
        "miner.phase2b",
        "model.rule_meaning",
    },
    "unknowns-negfree": {
        "learner.eliminate_unknown",
        "split_scores.split_gains",
        "miner.phase2a",
        "model.rule_meaning",
    },
}
RULE_MEANING_PHASE = {
    "complete": "final_check",
    "unknowns": "phase2b",
    "unknowns-negfree": "phase2a",
}


def test_every_entry_point_is_predicted_hot_somewhere():
    wrapped = {name for _, _, name in spans.ENTRY_POINTS} | {spans.ENUMERATE_SPAN}
    assert set().union(*HOT.values()) == wrapped


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_fire_and_tracing_keeps_policies_identical(name):
    workload = WORKLOADS[name]
    tracer = spans.Tracer()
    for inst in build_instances(workload, 1, run.no_span):
        plain = run.mine_one(inst, workload.config)[1]
        tracer.trace_id = inst.id
        with tracer.patched():
            traced = run.mine_one(inst, workload.config, tracer.span)[1]
        assert traced == plain, inst.id
    assert not hasattr(miner.rule_meaning, "__wrapped__")

    layers = tracer.layers()
    for span in HOT[name]:
        assert layers.get(span + ".calls", 0) > 0, span
    phase = RULE_MEANING_PHASE[name]
    assert layers.get(f"model.rule_meaning_calls.{phase}", 0) > 0
    assert "model.rule_meaning_calls.other" not in layers

    for _, start, end, parent, trace_id in tracer.spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, p_trace = tracer.spans[parent]
            assert p_start <= start and end <= p_end and p_trace == trace_id
