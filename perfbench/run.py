"""End-to-end mining benchmark: generated instances in, checked policies out.

Each instance goes JSON documents -> ``jsonio.acl_from_documents`` ->
``miner.mine_detailed`` (one thread) -> ``jsonio.rules_to_json``/``dumps``,
the path ``rebac-miner mine`` takes minus its disk writes.  A closed loop
with one client mines the workload's instance set pass after pass until
``--seconds`` are used; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload unknowns --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics instead.  Per-instance records (and, when traced, every
span) are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"

# Set-up repeats until both minimums are met, then for SETUP_PER_PASS_S
# before every pass, so that setup_s (the median repeat) samples the whole
# window as mine_s does.
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_PER_PASS_S = 0.5
INSTANCE_BUDGET_S = 60.0  # an instance mined longer than this has failed
RUN_DEADLINE_S = 150.0  # instances not started by then count as failed
CALIBRATION_REF_S = 0.012  # calibrate() at the reference machine speed

END_TO_END_UNITS = {
    "mine_s": "s",
    "setup_s": "s",
    "ok_frac": "frac",
    "policy_wsc": "wsc",
    "syn_sim": "frac",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.
LAYER_METRICS = {
    "features.enumerate_s": "s",
    "features.build_dataset_s": "s",
    "features.prune_s": "s",
    "features.id_columns_s": "s",
    "features.cells": "count",
    "features.kept_frac": "frac",
    "features.id_columns": "count",
    "tree.build_tree_s": "s",
    "tree.trees": "count",
    "split_scores.split_gains_s": "s",
    "split_scores.calls": "count",
    "split_scores.cells_scored": "count",
    "learner.learn_formula_s": "s",
    "learner.iterations": "count",
    "learner.eliminate_unknown_s": "s",
    "learner.eliminate_unknown_calls": "count",
    "learner.eliminate_unknown_ok_frac": "frac",
    "learner.blacklisted": "count",
    "learner.fallback_tasks": "count",
    "learner.retried_tasks": "count",
    "tvl.covers_s": "s",
    "tvl.covers_calls": "count",
    "tvl.validity_s": "s",
    "tvl.uncovered_s": "s",
    "model.rule_meaning_s": "s",
    "model.rule_meaning_calls": "count",
    "model.rule_meaning_s.phase2a": "s",
    "model.rule_meaning_s.phase2b": "s",
    "model.rule_meaning_s.final_check": "s",
    "model.rule_meaning_calls.phase2a": "count",
    "model.rule_meaning_calls.phase2b": "count",
    "model.rule_meaning_calls.final_check": "count",
    "miner.mine_detailed_s": "s",
    "miner.extract_rules_s": "s",
    "miner.phase2a_s": "s",
    "miner.phase2b_s": "s",
    "miner.phase2b_commits": "count",
    "jsonio.load_s": "s",
    "jsonio.dump_s": "s",
    "datagen.generate_s": "s",
    "datagen.inject_s": "s",
    "trace.overhead_frac": "frac",
}

# Layer metric -> span or counter it is read from, where the names differ.
LAYER_SOURCES = {
    "tree.trees": "tree.build_tree.calls",
    "split_scores.calls": "split_scores.split_gains.calls",
    "learner.eliminate_unknown_calls": "learner.eliminate_unknown.calls",
    "tvl.covers_calls": "tvl.covers.calls",
    "model.rule_meaning_calls": "model.rule_meaning.calls",
}


def load_package():
    """Import the miner from this checkout's sources, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import rebac_miner
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import rebac_miner from {SRC}: {exc}")
    if Path(rebac_miner.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: rebac_miner imported from outside {SRC}")
    logging.getLogger("rebac_miner.datagen").setLevel(logging.ERROR)


class Overrun(Exception):
    """The instance used up its time budget."""


@contextlib.contextmanager
def _budget(seconds: float):
    def expire(signum, frame):
        raise Overrun(f"over the {seconds:.0f} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def no_span(name):
    return contextlib.nullcontext()


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of dict, tuple and frozenset
    work, the operations the miner spends its time in.

    On a shared 2-core VM, CPU speed swung by 15-30% within minutes, with
    every instance of a pass slowing together.  Reported times are therefore
    scaled to a reference speed: measured seconds times CALIBRATION_REF_S
    over the calibration measured next to them.  Raw wall times stay in the
    records.
    """
    started = time.perf_counter()
    counts: dict = {}
    total = 0
    for i in range(30000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        total += len(counts)
    universe = frozenset(range(200))
    for i in range(300):
        total += len(universe & frozenset(range(i, i + 50)))
    return time.perf_counter() - started


def mine_one(inst, cfg, span=no_span, observer=None):
    """Mine one instance; return (seconds, policy JSON text, dataset rows, retried)."""
    from rebac_miner import jsonio, miner

    started = time.perf_counter()
    with span("jsonio.load"):
        acl = jsonio.acl_from_documents(*(json.loads(t) for t in inst.texts))
    with span("miner.mine_detailed"):
        result = miner.mine_detailed(acl, cfg, jobs=1, observer=observer)
    with span("jsonio.dump"):
        text = jsonio.dumps(
            jsonio.rules_to_json(result.policy.actions, result.policy.rules)
        )
    seconds = time.perf_counter() - started
    rows = sum(len(task.dataset.rows) for task in result.tasks)
    retried = sum(task.retried_with_ids for task in result.tasks)
    return seconds, text, rows, retried


def check_policy(inst, text):
    """Recompute the mined policy's meaning; return (exact, wsc, syntactic sim)."""
    from rebac_miner import jsonio, metrics
    from rebac_miner.model import Policy, meaning, policy_wsc, sort_rules

    acl = jsonio.acl_from_documents(*(json.loads(t) for t in inst.texts))
    actions, rules = jsonio.rules_from_json(json.loads(text), acl.class_model)
    cm, om = acl.class_model, acl.object_model
    mined = Policy(cm, om, actions, sort_rules(rules))
    reference = Policy(cm, om, acl.actions, sort_rules(inst.reference))
    exact = meaning(mined) == acl.au
    return exact, policy_wsc(mined.rules), metrics.syn_policy(mined, reference)


class Run:
    """Per-instance outcomes of every pass of one benchmark run."""

    def __init__(self, instances, cfg, started):
        self.instances = instances
        self.cfg = cfg
        self.started = started
        self.records = {
            inst.id: {"wall_s": [], "ref_s": [], "traced_ref_s": [], "errors": []}
            for inst in instances
        }
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def one_pass(self, tracer=None):
        observer = None
        if tracer is not None:
            def observer(step, rules):
                tracer.counters["miner.phase2b_commits"] += 1

        times, calibrations = {}, []
        for inst in self.instances:
            record = self.records[inst.id]
            self.attempted += 1
            left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
            if left <= 0:
                self.failed += 1
                record["errors"].append("not started before the run deadline")
                continue
            calibrations.append(calibrate())
            if tracer is not None:
                tracer.trace_id = inst.id
            span = tracer.span if tracer is not None else no_span
            try:
                with _budget(min(INSTANCE_BUDGET_S, left)):
                    seconds, text, rows, retried = mine_one(inst, self.cfg, span, observer)
            except Exception as exc:  # any failure of the miner counts, then go on
                self.failed += 1
                record["errors"].append(f"{type(exc).__name__}: {exc}")
                continue
            times[inst.id] = (seconds, len(calibrations) - 1, len(calibrations))
            if tracer is not None:
                tracer.counters["learner.retried_tasks"] += retried
            digest = hashlib.sha256(text.encode()).hexdigest()
            if "policy_sha256" not in record:
                exact, wsc, syn = check_policy(inst, text)
                record.update(policy_sha256=digest, rows=rows, exact=exact, wsc=wsc, syn_sim=syn)
            elif digest != record["policy_sha256"]:
                # Every pass, traced or not, must mine byte-identical policies.
                self.correct = False
                record["errors"].append("policy differs from the first pass")
            if not record["exact"]:
                self.failed += 1
                self.correct = False
                record["errors"].append("policy meaning differs from the authorizations")

        calibrations.append(calibrate())
        for inst_id, (seconds, before, after) in times.items():
            # Scale by the calibrations on both sides of the instance.
            scale = 2 * CALIBRATION_REF_S / (calibrations[before] + calibrations[after])
            record = self.records[inst_id]
            if tracer is None:
                record["wall_s"].append(seconds)
            record["traced_ref_s" if tracer else "ref_s"].append(seconds * scale)

    def total(self, key="ref_s"):
        """Seconds to mine the set once: the sum of per-instance medians."""
        return sum(
            statistics.median(r[key]) if r[key] else INSTANCE_BUDGET_S
            for r in self.records.values()
        )


def build_timed(workload, seed, span=no_span, expected=None):
    """Build the instances once; return them and the seconds it took, at
    the reference speed.

    A build whose inputs differ from ``expected`` stops the run: the
    inputs must be a function of the seed alone.
    """
    from workloads import build_instances, input_digests

    calibration = calibrate()
    started = time.perf_counter()
    instances = build_instances(workload, seed, span)
    seconds = time.perf_counter() - started
    if expected is not None and input_digests(instances) != input_digests(expected):
        sys.exit("perfbench: instance generation is not deterministic")
    return instances, seconds * CALIBRATION_REF_S / calibration


def setup(workload, seed, tracer=None):
    """Build the instances until both minimums are met; return them and
    each build's seconds."""
    started = time.perf_counter()
    span = tracer.span if tracer is not None else no_span
    instances, seconds = build_timed(workload, seed, span)
    times = [seconds]
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() - started < SETUP_MIN_S:
        times.append(build_timed(workload, seed, span, instances)[1])
    return instances, times


def check_pins(workload, seed, instances):
    """Refuse to run when the inputs pinned for this seed have changed."""
    from workloads import combined_digest, input_digests

    pins = json.loads(PINS.read_text())
    pinned = pins["combined"][workload.instance_set].get(str(seed))
    if pinned is None or pinned == combined_digest(instances):
        return
    documents = pins["documents"][workload.instance_set].get(str(seed), {})
    changed = sorted(
        inst for inst, digests in input_digests(instances).items()
        if documents.get(inst) != digests
    )
    sys.exit(
        f"perfbench: the {workload.instance_set} inputs for seed {seed} differ"
        f" from {PINS.name} (instances {changed or 'unknown'}); datagen or jsonio"
        " changed the workload, so its runs cannot be compared with earlier ones"
    )


def run_workload(args) -> dict:
    import spans
    from workloads import WORKLOADS, combined_digest

    started = time.perf_counter()
    # One thread on one fixed CPU: no migrations between cores mid-pass.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    instances, setup_times = setup(workload, args.seed, tracer)
    check_pins(workload, args.seed, instances)
    print(f"inputs {workload.instance_set} seed {args.seed} sha256 {combined_digest(instances)}")

    run = Run(instances, workload.config, started)
    if tracer is not None:
        setup_layers = {
            name: tracer.layers().get(name, 0.0) / len(setup_times)
            for name in ("datagen.generate_s", "datagen.inject_s")
        }
        tracer.spans.clear()
    window_start = time.perf_counter()
    pass_times = []
    layer_passes = []
    while True:
        began = time.perf_counter()
        while tracer is None and time.perf_counter() - began < SETUP_PER_PASS_S:
            setup_times.append(build_timed(workload, args.seed, expected=instances)[1])
        run.one_pass()
        if tracer is not None:
            first_span = len(tracer.spans)
            tracer.counters.clear()
            with tracer.patched():
                run.one_pass(tracer)
            layer_passes.append(tracer.layers(first_span))
        pass_times.append(time.perf_counter() - began)
        # Stop where the window ends nearest to --seconds.
        used = time.perf_counter() - window_start
        if used + statistics.median(pass_times) / 2 > args.seconds:
            break

    shares = None
    if tracer is not None:
        metrics, shares = layer_metrics(layer_passes, run, setup_layers)
    else:
        metrics = end_to_end_metrics(run, statistics.median(setup_times))
        print(f"unscaled wall time of one pass {run.total('wall_s'):.4f} s")
    write_records(args, workload, run, tracer, shares)
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def end_to_end_metrics(run, setup_s) -> dict:
    records = [r for r in run.records.values() if "policy_sha256" in r]
    values = {
        "mine_s": run.total(),
        "setup_s": setup_s,
        "ok_frac": 1.0 - run.failed / run.attempted,
        "policy_wsc": sum(r["wsc"] for r in records),
        "syn_sim": statistics.mean(r["syn_sim"] for r in records) if records else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_metrics(layer_passes, run, setup_layers) -> dict:
    keys = set().union(*layer_passes)
    totals = {k: statistics.median(p.get(k, 0.0) for p in layer_passes) for k in keys}
    totals.update(setup_layers)
    before = totals.get("features.before_prune", 0.0)
    totals["features.kept_frac"] = totals.get("features.after_prune", 0.0) / before if before else 0.0
    calls = totals.get("learner.eliminate_unknown.calls", 0.0)
    totals["learner.eliminate_unknown_ok_frac"] = (
        totals.get("learner.eliminate_unknown_ok", 0.0) / calls if calls else 0.0
    )
    totals["trace.overhead_frac"] = run.total("traced_ref_s") / run.total() - 1.0
    out = {}
    for name, unit in LAYER_METRICS.items():
        value = totals.get(LAYER_SOURCES.get(name, name), 0.0)
        out[name] = {"value": value, "unit": unit}
    return out, layer_shares(totals)


def layer_shares(totals) -> dict:
    """Each layer's self time as a share of the traced mining time."""
    import spans

    names = [name for _, _, name in spans.ENTRY_POINTS]
    names += [spans.ENUMERATE_SPAN, "jsonio.load", "miner.mine_detailed", "jsonio.dump"]
    names += [f"model.rule_meaning_s.{p}" for p in spans.RULE_MEANING_PARENTS.values()]
    self_s = {n: totals.get(n if "_s." in n else n + "_s", 0.0) for n in names}
    total = sum(v for n, v in self_s.items() if "_s." not in n)
    return {n: v / total for n, v in sorted(self_s.items(), key=lambda kv: -kv[1])}


def write_records(args, workload, run, tracer, shares):
    from workloads import input_digests

    OUT.mkdir(exist_ok=True)
    doc = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "instances": run.records,
        "inputs": input_digests(run.instances),
    }
    if tracer is not None:
        doc["layer_shares"] = shares
        doc["spans"] = tracer.records()
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc))


def run_all(args) -> int:
    """Run every workload in its own process and print a table."""
    from workloads import WORKLOADS

    status = 0
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        results[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
