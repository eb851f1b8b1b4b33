"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (visible with pytest -s or on failure)."""

import json
import random
import statistics
import time

import pytest

from rebac_miner.cli import main as cli_main
from rebac_miner.datagen import (
    builtin_spec,
    generate,
    inject_unknowns,
    unknown_fraction,
)
from rebac_miner.features import ExtractionLimits, FeatureTable, build_dataset
from rebac_miner.learner import learn_formula
from rebac_miner.metrics import jaccard, semantic_similarity, syn_policy, syn_rule
from rebac_miner.miner import (
    MinerConfig,
    merge_and_simplify,
    mine,
    mine_detailed,
)
from rebac_miner.model import (
    UNKNOWN,
    AclPolicy,
    AtomicCondition,
    AtomicConstraint,
    Policy,
    Rule,
    SraTuple,
    meaning,
    policy_wsc,
    sort_rules,
    wsc,
)
from rebac_miner.tree import Internal, Leaf, build_tree
from rebac_miner.tvl import (
    Conjunction,
    DnfFormula,
    FeatureId,
    FeatureVector,
    Literal,
    Polarity,
    TruthValue,
)
from tests.conftest import RUNNING_EXAMPLE, row_pairs, running_example
from tests.oracles import (
    eval_dnf,
    fv_leq,
    info_leq,
    kleene_and,
    kleene_not,
    kleene_or,
    rule_meaning,
)

F, U, T = TruthValue.F, TruthValue.U, TruthValue.T

LIMITS = ExtractionLimits()


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_running_example_exactness():
    acl, truth_rules = running_example()
    started = time.perf_counter()
    result = mine_detailed(acl, MinerConfig())
    elapsed = time.perf_counter() - started

    expected = sort_rules(truth_rules)
    rules_ok = result.policy.rules == expected
    per_rule = all(
        max(syn_rule(r, e) for e in expected) == 1.0 for r in result.policy.rules
    )
    truth = Policy(acl.class_model, acl.object_model, acl.actions, expected)
    sem = semantic_similarity(result.policy, truth)
    syn = syn_policy(result.policy, truth)

    (task,) = result.tasks
    formula_labels = {
        frozenset(str(l) for l in c.literals) for c in task.result.formula.disjuncts
    }
    formula_ok = formula_labels == {
        frozenset({"res.type=Handbook"}),
        frozenset({"sub.dept = res.dept"}),
    }
    report(
        "criterion 1: running-example exactness",
        rules_ok and per_rule and sem == 1.0 and syn == 1.0
        and formula_ok and elapsed < 1.0,
        f"rules={len(result.policy.rules)} syn={syn} sem={sem} "
        f"formula_ok={formula_ok} runtime={elapsed:.3f}s",
    )


def test_criterion_2_example_cells():
    acl, _ = running_example()
    table = FeatureTable.build(
        acl.class_model, acl.object_model, "Student", "Document", LIMITS
    )
    dataset = build_dataset(acl, "Student", "Document", "read", table)
    by_label = {f.label: f.index for f in dataset.features}
    order = ["sub.dept = res.dept", "sub.dept=CS", "res.dept=CS", "res.type=Handbook"]
    expected = [
        (("CS-student-1", "CS-doc-1"), (U, T, U, T), T),
        (("CS-student-1", "CS-doc-2"), (T, T, T, U), T),
        (("CS-student-1", "CS-doc-3"), (U, T, U, U), F),
        (("EE-student-1", "CS-doc-1"), (U, U, U, T), T),
        (("EE-student-1", "CS-doc-2"), (U, U, T, U), F),
        (("EE-student-1", "CS-doc-3"), (U, U, U, U), F),
    ]
    ok = len(dataset.rows) == 6 and set(by_label) == set(order)
    checked = 0
    pairs = row_pairs(acl.object_model.pairs("Student", "Document"))
    for pair, row, (want_pair, cells, label) in zip(pairs, dataset.rows, expected):
        ok = ok and pair == want_pair and row.label is label
        for name, want in zip(order, cells):
            ok = ok and row.vector.values[by_label[name]] is want
            checked += 1
    report("criterion 2: worked-example cell fidelity", ok and checked == 24,
           f"{checked} cells and 6 labels checked")


def test_criterion_3_tree_shape():
    acl, _ = running_example()
    table = FeatureTable.build(
        acl.class_model, acl.object_model, "Student", "Document", LIMITS
    )
    dataset = build_dataset(acl, "Student", "Document", "read", table)
    tree = build_tree(dataset)
    ok = isinstance(tree, Internal) and tree.feature.label == "res.type=Handbook"
    ok = ok and tree.children[T] == Leaf(T)
    child = tree.children[U]
    ok = ok and isinstance(child, Internal)
    ok = ok and child.feature.label == "sub.dept = res.dept"
    ok = ok and child.children[T] == Leaf(T)
    report("criterion 3: decision-tree fidelity", ok,
           "root=res.type=Handbook, U-branch=sub.dept=res.dept, T-branch=Leaf(T)")


def test_criterion_4_naive_baseline(tmp_path, capsys):
    out = tmp_path / "policy.json"
    code = cli_main(
        [
            "mine",
            "--classmodel", str(RUNNING_EXAMPLE / "classmodel.json"),
            "--objectmodel", str(RUNNING_EXAMPLE / "objectmodel.json"),
            "--au", str(RUNNING_EXAMPLE / "au.json"),
            "-o", str(out),
            "--naive-unknown-as-false",
        ]
    )
    capsys.readouterr()
    acl, _ = running_example()
    from rebac_miner import jsonio

    actions, rules = jsonio.rules_from_json(json.loads(out.read_text()), acl.class_model)
    policy = Policy(acl.class_model, acl.object_model, actions, tuple(rules))
    denied = SraTuple("CS-student-1", "CS-doc-2", "read") not in meaning(policy)
    report(
        "criterion 4: naive unknown-as-false is incorrect",
        code == 3 and denied,
        f"exit={code}, denies (CS-student-1, CS-doc-2, read)={denied}",
    )


GRID = [
    (spec_name, n, s, negation)
    for spec_name in ("univ-mini", "org-chart")
    for n in (3, 5)
    for s in (0, 1, 2, 3)
    for negation in (True, False)
]


@pytest.fixture(scope="module")
def grid_results():
    """All criterion-5 configurations; phase-2 WSC traces kept for criterion 10."""
    out = {}
    started = time.perf_counter()
    for spec_name, n, s, negation in GRID:
        spec = builtin_spec(spec_name)
        semantic, syntactic, traces = [], [], []
        for seed in range(5):
            om, acl = generate(spec, n, seed=seed)
            degraded = inject_unknowns(om, spec, s, seed=seed)
            acl = AclPolicy(spec.class_model, degraded, acl.actions, acl.au)
            wsc_trace = []
            result = mine_detailed(
                acl,
                MinerConfig(allow_negation=negation),
                observer=lambda step, rules: wsc_trace.append(policy_wsc(rules)),
            )
            semantic.append(jaccard(meaning(result.policy), acl.au))
            simplified = Policy(
                spec.class_model,
                degraded,
                spec.actions,
                merge_and_simplify(spec.rules, acl),
            )
            syntactic.append(syn_policy(result.policy, simplified))
            traces.append(wsc_trace)
        out[(spec_name, n, s, negation)] = {
            "semantic": semantic,
            "syntactic": statistics.mean(syntactic),
            "traces": traces,
        }
    out["elapsed"] = time.perf_counter() - started
    return out


def test_criterion_5_consistency_grid(grid_results):
    elapsed = grid_results["elapsed"]
    all_semantic_one = True
    worst_syntactic = 1.0
    for key in GRID:
        cell = grid_results[key]
        if any(s != 1.0 for s in cell["semantic"]):
            all_semantic_one = False
        worst_syntactic = min(worst_syntactic, cell["syntactic"])
        print(
            f"  config {key}: semantic={min(cell['semantic'])}"
            f" syntactic_avg={cell['syntactic']:.3f}"
        )
    ok = all_semantic_one and worst_syntactic >= 0.8 and elapsed < 300
    report(
        "criterion 5: exact consistency on the generated grid",
        ok and worst_syntactic >= 0.9,
        f"160 runs in {elapsed:.1f}s, semantic all 1.0={all_semantic_one},"
        f" worst per-config syntactic avg={worst_syntactic:.3f}",
    )


def test_criterion_6_three_valued_law_suite():
    not_table = {T: F, F: T, U: U}
    and_table = {
        (F, F): F, (F, U): F, (F, T): F,
        (U, F): F, (U, U): U, (U, T): U,
        (T, F): F, (T, U): U, (T, T): T,
    }
    or_table = {
        (F, F): F, (F, U): U, (F, T): T,
        (U, F): U, (U, U): U, (U, T): T,
        (T, F): T, (T, U): T, (T, T): T,
    }
    ok = all(kleene_not(a) is want for a, want in not_table.items())
    ok = ok and all(kleene_and(a, b) is want for (a, b), want in and_table.items())
    ok = ok and all(kleene_or(a, b) is want for (a, b), want in or_table.items())

    rng = random.Random(20260811)
    trials = 10_000
    for _ in range(trials):
        a, b = rng.choice((F, U, T)), rng.choice((F, U, T))
        ok = ok and kleene_not(kleene_and(a, b)) is kleene_or(kleene_not(a), kleene_not(b))
        ok = ok and kleene_not(kleene_or(a, b)) is kleene_and(kleene_not(a), kleene_not(b))
        n = rng.randint(1, 4)
        features = tuple(FeatureId(i, f"f{i}", 1) for i in range(n))
        conjs = []
        for _ in range(rng.randint(1, 3)):
            picked = rng.sample(features, rng.randint(0, n))
            conjs.append(
                Conjunction.of(
                    Literal(f, rng.choice((Polarity.POSITIVE, Polarity.NEGATIVE)))
                    for f in picked
                )
            )
        formula = DnfFormula.of(conjs)
        v1 = FeatureVector(tuple(rng.choice((F, U, T)) for _ in range(n)))
        v2 = FeatureVector(
            tuple(rng.choice((F, U, T)) if c is U else c for c in v1.values)
        )
        ok = ok and fv_leq(v1, v2)
        ok = ok and info_leq(eval_dnf(formula, v1), eval_dnf(formula, v2))
    report("criterion 6: three-valued law suite", ok,
           f"21 truth-table entries exact, {trials} random law/monotonicity trials")


def test_criterion_7_learner_oracle():
    rng = random.Random(7_2026)
    failures = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        features = tuple(FeatureId(i, f"f{i}", rng.randint(1, 4)) for i in range(n))
        conjs = []
        for _ in range(rng.randint(1, 3)):
            picked = rng.sample(features, rng.randint(1, n))
            conjs.append(
                Conjunction.of(
                    Literal(f, rng.choice((Polarity.POSITIVE, Polarity.NEGATIVE)))
                    for f in picked
                )
            )
        secret = DnfFormula.of(conjs)
        rows = []
        from rebac_miner.tvl import LabeledDataset, LabeledRow

        for _ in range(rng.randint(1, 30)):
            cells = tuple(rng.choice((F, U, T)) for _ in range(n))
            vector = FeatureVector(cells)
            rows.append(LabeledRow(vector, eval_dnf(secret, vector)))
        dataset = LabeledDataset.from_rows(features, rows)
        result = learn_formula(dataset)
        for row in dataset.rows:
            # Independent check: evaluate literal by literal.
            best = F
            for conj in result.formula.disjuncts:
                worst = T
                for literal in conj.literals:
                    cell = row.vector[literal.feature]
                    if literal.polarity is Polarity.POSITIVE:
                        value = cell
                    elif literal.polarity is Polarity.NEGATIVE:
                        value = TruthValue(2 - cell)
                    else:
                        value = T if cell is U else F
                    worst = min(worst, value)
                best = max(best, worst)
            if (best is T) != (row.label is T):
                failures += 1
    report("criterion 7: learner oracle equivalence", failures == 0,
           f"200 random monotonic datasets, {failures} row mismatches")


def test_criterion_8_phase2_meaning_preservation():
    checked = 0
    violations = 0
    case = 0
    for spec_name in ("univ-mini", "org-chart"):
        spec = builtin_spec(spec_name)
        for negation in (True, False):
            for seed in range(25):
                case += 1
                s = seed % 4
                om, acl = generate(spec, 2, seed=seed)
                degraded = inject_unknowns(om, spec, s, seed=seed)
                acl = AclPolicy(spec.class_model, degraded, acl.actions, acl.au)
                events = []
                mine_detailed(
                    acl,
                    MinerConfig(allow_negation=negation),
                    observer=lambda step, rules: events.append(rules),
                )
                for rules in events:
                    granted = frozenset()
                    for rule in rules:
                        granted |= rule_meaning(spec.class_model, degraded, rule)
                    checked += 1
                    if granted != acl.au:
                        violations += 1
    report(
        "criterion 8: phase-2 transformations preserve meaning",
        case == 100 and violations == 0,
        f"{case} mined policies, {checked} committed transformations, "
        f"{violations} violations",
    )


def test_criterion_9_injection_statistics():
    spec = builtin_spec("org-chart")
    bands = {1: (0.015, 0.05), 2: (0.03, 0.10), 3: (0.045, 0.15)}
    ok = True
    details = []
    for s, (low, high) in bands.items():
        fractions = []
        required_clean = True
        for seed in range(20):
            om, _ = generate(spec, 5, seed=seed)
            degraded = inject_unknowns(om, spec, s, seed=seed)
            fractions.append(unknown_fraction(degraded))
            for obj in degraded.objects_of("Task"):
                if obj.fields["urgent"] is UNKNOWN:
                    required_clean = False
        mean = statistics.mean(fractions)
        ok = ok and low <= mean <= high and required_clean
        details.append(f"s={s}: mean={mean:.4f} in [{low},{high}]")
    report("criterion 9: unknown-injection statistics", ok, "; ".join(details))


def test_criterion_10_wsc(grid_results):
    # Hand-computed structural complexities for five fixture rules.
    _, (same_dept, handbook) = running_example()
    five = [
        # constraint |1|+|1| plus one action
        (same_dept, 3),
        # condition |1|+|1| plus one action
        (handbook, 3),
        # negated empty-path-in-two-hop constraint: 1+(0+2), one action
        (
            Rule(
                "Student", frozenset(), "Document", frozenset(),
                frozenset({AtomicConstraint((), "in", ("owner", "friends"), negated=True)}),
                frozenset({"read"}),
            ),
            4,
        ),
        # two-constant condition 1+2, two actions
        (
            Rule(
                "Student",
                frozenset({AtomicCondition(("dept",), "in", frozenset({"CS", "EE"}))}),
                "Document", frozenset(), frozenset(),
                frozenset({"read", "write"}),
            ),
            5,
        ),
        # negated condition 1+(1+1) plus two-hop condition 2+1 and one action
        (
            Rule(
                "Student",
                frozenset({AtomicCondition(("dept",), "in", frozenset({"CS"}), negated=True)}),
                "Document",
                frozenset({AtomicCondition(("owner", "dept"), "in", frozenset({"CS"}))}),
                frozenset(),
                frozenset({"read"}),
            ),
            7,
        ),
    ]
    exact = all(wsc(rule) == want for rule, want in five)

    monotone = True
    for key in GRID:
        for trace in grid_results[key]["traces"]:
            for earlier, later in zip(trace, trace[1:]):
                if later > earlier:
                    monotone = False
    report(
        "criterion 10: structural complexity",
        exact and monotone,
        f"five hand-computed rule WSCs exact={exact}; "
        f"phase-2 WSC non-increasing across all grid runs={monotone}",
    )
