"""Command-line interface: generate, mine, eval, learn-formula.

Exit codes: 0 success, 2 usage or schema problems or a file that cannot
be read or written (a missing file, a directory, text that is not UTF-8,
a path under a regular file), 3 the mined policy does not grant exactly
the input authorizations (or no formula characterizes a learn-formula
dataset exactly), 141 stdout's reader closed it early, as ``| head`` does (the
status a shell gives a process that SIGPIPE ended; the rest of stdout is
discarded).  ``mine`` reports the miner's own final
check: on the default route an inconsistent policy is refused before it is
written, while ``--naive-unknown-as-false`` writes the policy and its
manifest and then names the smallest tuple it misses and the smallest it
grants beyond the input.  Every flag can also be set
through an environment variable prefixed REBAC_MINER_ (dashes become
underscores, e.g. REBAC_MINER_MAX_ITER); switches take 1/0, true/false
or yes/no there.  A variable is parsed only when its subcommand runs and
its flag is not given.  Each command that writes files also writes a
manifest.json recording inputs, configuration, and output digests.
Inputs are read as UTF-8, and outputs and stdout written as UTF-8,
whatever the locale; a ``--dump-datasets`` file name that the file
system's encoding cannot hold exits 2.  Outputs are byte-reproducible given the same inputs;
``generate`` also takes them from ``--seed``.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy

import rebac_miner
from rebac_miner import jsonio
from rebac_miner.datagen import (
    BUILTIN_SPECS,
    builtin_spec,
    generate,
    inject_unknowns,
)
from rebac_miner.features import ExtractionLimits
from rebac_miner.learner import IdStrategy, LearningError, learn_formula
from rebac_miner.metrics import compare_policies
from rebac_miner.miner import (
    MinerConfig,
    MinerError,
    merge_and_simplify,
    mine_detailed,
)
from rebac_miner.model import (
    AclPolicy,
    ModelError,
    Policy,
    meaning,
    sort_rules,
)
from rebac_miner.jsonio import SchemaError
from rebac_miner.tree import build_tree, format_tree

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_BROKEN_PIPE = 141

ID_STRATEGIES = tuple(strategy.value for strategy in IdStrategy)
SWITCH_VALUES = {
    "1": True, "true": True, "yes": True,
    "0": False, "false": False, "no": False,
}


# Smallest value each numeric flag takes.
MINIMUM = {
    "n": 1, "s": 0, "seed": 0, "max_iter": 1, "max_cond_len": 1, "max_cons_len": 0,
}


class UsageError(Exception):
    """A flag or its environment variable holds a value the flag cannot take."""


def _one_of(*choices: str):
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {'/'.join(choices)}")
        return text

    return parse


def _switch(text: str) -> bool:
    return SWITCH_VALUES[_one_of(*SWITCH_VALUES)(text)]


def _env(flag: str, default=None, parse=str):
    """The flag's REBAC_MINER_ variable passed through ``parse``, or
    ``default`` when unset."""
    name = "REBAC_MINER_" + flag.replace("-", "_").upper()
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"{name}={text!r}: {exc}") from None


class _EnvDefault:
    """A flag's default: its REBAC_MINER_ variable, parsed only once the
    flag's subcommand is chosen and the flag itself was not given."""

    def __init__(self, flag: str, default=None, parse=str):
        self.flag, self.default, self.parse = flag, default, parse

    def resolve(self):
        return _env(self.flag, self.default, self.parse)


def _input_flag(parser, name: str):
    """Required input path, satisfiable by flag or environment variable."""
    from_env = _env(name)
    parser.add_argument(f"--{name}", default=from_env, required=from_env is None)


class _Manifest:
    """The manifest of one command, and the only reader and writer of its
    files: each is read or written once, as UTF-8 bytes, and digested as
    read or written."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.document = {
            "command": command,
            "arguments": {
                k: v for k, v in sorted(vars(args).items()) if k != "func"
            },
            "seed": getattr(args, "seed", None),
            "inputs": {},
            "outputs": {},
            "timingSeconds": {},
            "versions": {
                "rebac-miner": rebac_miner.__version__,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
        }
        self._marks: dict[str, float] = {}

    def read(self, path) -> str:
        path = Path(path)
        data = path.read_bytes()
        self.document["inputs"][str(path)] = hashlib.sha256(data).hexdigest()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc

    def start(self, phase: str):
        self._marks[phase] = time.perf_counter()

    def stop(self, phase: str):
        elapsed = time.perf_counter() - self._marks.pop(phase)
        self.document["timingSeconds"][phase] = round(elapsed, 6)

    def write_output(self, path, text: str):
        path, data = Path(path), text.encode("utf-8")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except FileExistsError:  # the parent is a regular file
            raise NotADirectoryError(
                errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path.parent)
            ) from None
        path.write_bytes(data)
        self.document["outputs"][str(path)] = hashlib.sha256(data).hexdigest()

    def write(self, path):
        Path(path).write_bytes(jsonio.dumps(self.document).encode("utf-8"))


def _load_json(path, manifest: _Manifest):
    try:
        return json.loads(manifest.read(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def cmd_generate(args) -> int:
    if args.spec not in BUILTIN_SPECS:
        print(
            f"error: unknown spec {args.spec!r}; available: {sorted(BUILTIN_SPECS)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    manifest = _Manifest("generate", args)
    spec = builtin_spec(args.spec)
    manifest.start("generate")
    om, acl = generate(spec, args.n, args.seed)
    degraded = inject_unknowns(om, spec, args.s, args.seed)
    manifest.stop("generate")
    outdir = Path(args.outdir)
    manifest.write_output(
        outdir / "classmodel.json", jsonio.dumps(jsonio.class_model_to_json(spec.class_model))
    )
    manifest.write_output(
        outdir / "objectmodel.json", jsonio.dumps(jsonio.object_model_to_json(degraded))
    )
    manifest.write_output(
        outdir / "groundtruth.json",
        jsonio.dumps(jsonio.rules_to_json(spec.actions, spec.rules)),
    )
    manifest.write_output(outdir / "au.json", jsonio.dumps(jsonio.au_to_json(acl.au)))
    manifest.write(outdir / "manifest.json")
    print(f"wrote {outdir}/classmodel.json objectmodel.json groundtruth.json au.json")
    return EXIT_OK


def _miner_config(args) -> MinerConfig:
    return MinerConfig(
        allow_negation=not args.no_negation,
        id_strategy=IdStrategy(args.id_strategy),
        limits=ExtractionLimits(
            max_condition_path_len=args.max_cond_len,
            max_constraint_path_len=args.max_cons_len,
            include_id_conditions=args.include_ids,
        ),
        max_iter=args.max_iter,
    )


def _check_dataset_files(tasks) -> dict[tuple[str, str, str], str]:
    """The file name ``--dump-datasets`` gives each of ``tasks``, keyed by
    (subject type, resource type, action):
    ``<subject type>_<resource type>_<action>.csv``.  A name that is not
    one path component (it would be written outside the directory), or
    that two tasks share (the later would overwrite the earlier), is
    refused, naming the tasks; so is a name that the file system's
    encoding cannot hold (a non-ASCII class name under an ASCII locale)."""
    owner: dict[str, tuple[str, str, str]] = {}
    for key in sorted(tasks):
        name = "{}_{}_{}.csv".format(*key)
        if Path(name).name != name:
            raise UsageError(
                f"--dump-datasets: task file name {name!r} is not a single"
                " path component"
            )
        try:
            os.fsencode(name)
        except UnicodeEncodeError:
            raise UsageError(
                f"--dump-datasets: task file name {name!r} cannot be encoded in"
                f" the file system's encoding ({sys.getfilesystemencoding()})"
            ) from None
        if name in owner:
            raise UsageError(
                f"--dump-datasets: tasks {owner[name]} and {key} would both be"
                f" written to {name!r}"
            )
        owner[name] = key
    return {key: name for name, key in owner.items()}


def cmd_mine(args) -> int:
    manifest = _Manifest("mine", args)
    acl = _load_acl(args, manifest)
    cfg = _miner_config(args)
    if args.dump_datasets:
        dump_files = _check_dataset_files(acl.au_planes)  # before mining
    manifest.start("mine")
    result = mine_detailed(acl, cfg, unknown_as_false=args.naive_unknown_as_false)
    manifest.stop("mine")
    if args.dump_datasets:
        dump_dir = Path(args.dump_datasets)
        for task in result.tasks:
            name = dump_files[task.subject_type, task.resource_type, task.action]
            manifest.write_output(dump_dir / name, jsonio.dataset_to_csv(task.dataset))
    out = Path(args.out)
    manifest.write_output(
        out,
        jsonio.dumps(jsonio.rules_to_json(result.policy.actions, result.policy.rules)),
    )
    manifest.write(out.parent / "manifest.json")
    if result.missing:
        print(f"inconsistent: does not grant {tuple(result.missing)}", file=sys.stderr)
    if result.extra:
        print(f"inconsistent: also grants {tuple(result.extra)}", file=sys.stderr)
    if result.missing or result.extra:
        return EXIT_INCONSISTENT
    print(f"wrote {out} ({len(result.policy.rules)} rules)")
    return EXIT_OK


def _load_acl(args, manifest) -> AclPolicy:
    cm_doc = _load_json(args.classmodel, manifest)
    om_doc = _load_json(args.objectmodel, manifest)
    au_doc = _load_json(args.au, manifest)
    return jsonio.acl_from_documents(cm_doc, om_doc, au_doc)


def cmd_eval(args) -> int:
    manifest = _Manifest("eval", args)
    cm = jsonio.class_model_from_json(_load_json(args.classmodel, manifest))
    om = jsonio.object_model_from_json(_load_json(args.objectmodel, manifest), cm)
    mined_actions, mined_rules = jsonio.rules_from_json(
        _load_json(args.mined, manifest), cm
    )
    ref_actions, ref_rules = jsonio.rules_from_json(
        _load_json(args.reference, manifest), cm
    )
    manifest.start("eval")
    reference = Policy(cm, om, ref_actions, sort_rules(ref_rules))
    ref_acl = AclPolicy(cm, om, ref_actions, meaning(reference))
    simplified = Policy(
        cm, om, ref_actions, merge_and_simplify(ref_rules, ref_acl)
    )
    mined = Policy(cm, om, mined_actions, sort_rules(mined_rules))
    report = compare_policies(mined, simplified)
    manifest.stop("eval")
    out = Path(args.out)
    manifest.write_output(out, jsonio.dumps(jsonio.report_to_json(report)))
    manifest.write(out.parent / "manifest.json")
    print(f"syntactic similarity: {report.syntactic:.4f}")
    print(f"semantic similarity:  {report.semantic:.4f}")
    print(f"wsc mined / reference: {report.wsc_mined} / {report.wsc_reference}")
    for rule, match, score in report.per_rule_best_match:
        print(f"  {score:.3f}  {rule}")
        print(f"         ~ {match}")
    return EXIT_OK


def cmd_learn_formula(args) -> int:
    manifest = _Manifest("learn-formula", args)
    dataset = jsonio.dataset_from_csv(manifest.read(args.dataset))
    if args.dump_tree:
        print(format_tree(build_tree(dataset)), end="")
    manifest.start("learn")
    result = learn_formula(dataset, args.max_iter)
    manifest.stop("learn")
    print(str(result.formula))
    if args.out:
        out = Path(args.out)
        document = {
            "formula": [
                [str(lit) for lit in conj.sorted_literals]
                for conj in result.formula.disjuncts
            ],
            "usedFallback": result.used_fallback,
            "iterations": result.iterations,
        }
        manifest.write_output(out, jsonio.dumps(document))
        manifest.write(out.parent / "manifest.json")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rebac-miner",
        description="Mine concise relationship-based policies from access"
        " control lists over object models with unknown attribute values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic dataset")
    g.add_argument("--spec", default=_EnvDefault("spec", "univ-mini"),
                   help=f"one of {sorted(BUILTIN_SPECS)}")
    g.add_argument("--n", type=int, default=_EnvDefault("n", 3, int),
                   help="size parameter: class instance counts scale with it")
    g.add_argument("--s", type=float, default=_EnvDefault("s", 0.0, float),
                   help="unknown-injection scaling factor")
    g.add_argument("--seed", type=int, default=_EnvDefault("seed", 0, int))
    g.add_argument("--outdir", default=_env("outdir"),
                   required=_env("outdir") is None)
    g.set_defaults(func=cmd_generate)

    m = sub.add_parser("mine", help="mine a policy from an ACL")
    _input_flag(m, "classmodel")
    _input_flag(m, "objectmodel")
    _input_flag(m, "au")
    m.add_argument("--out", "-o", default=_EnvDefault("out", "policy.json"))
    m.add_argument("--no-negation", action="store_true",
                   default=_EnvDefault("no_negation", False, _switch),
                   help="mine negation-free rules")
    m.add_argument("--id-strategy", choices=ID_STRATEGIES,
                   default=_EnvDefault("id_strategy",
                                       IdStrategy.PER_VECTOR_ID_CONJUNCTION.value,
                                       _one_of(*ID_STRATEGIES)))
    m.add_argument("--max-iter", type=int, default=_EnvDefault("max_iter", 5, int))
    m.add_argument("--max-cond-len", type=int, default=_EnvDefault("max_cond_len", 2, int))
    m.add_argument("--max-cons-len", type=int, default=_EnvDefault("max_cons_len", 3, int))
    m.add_argument("--include-ids", action="store_true",
                   default=_EnvDefault("include_ids", False, _switch),
                   help="allow identity conditions from the start")
    m.add_argument("--naive-unknown-as-false", action="store_true",
                   default=_EnvDefault("naive_unknown_as_false", False, _switch),
                   help="diagnostic: coerce unknown cells to F before learning")
    m.add_argument("--dump-datasets", metavar="DIR",
                   default=_EnvDefault("dump_datasets"),
                   help="write each task's labeled feature vectors as CSV")
    m.set_defaults(func=cmd_mine)

    e = sub.add_parser("eval", help="score a mined policy against a reference")
    _input_flag(e, "mined")
    _input_flag(e, "reference")
    _input_flag(e, "classmodel")
    _input_flag(e, "objectmodel")
    e.add_argument("--out", "-o", default=_EnvDefault("out", "report.json"))
    e.set_defaults(func=cmd_eval)

    lf = sub.add_parser(
        "learn-formula",
        help="learn a DNF formula from a CSV of T/F/U cells with a label column",
    )
    lf.add_argument("dataset")
    lf.add_argument("--max-iter", type=int, default=_EnvDefault("max_iter", 5, int))
    lf.add_argument("--dump-tree", action="store_true",
                    default=_EnvDefault("dump_tree", False, _switch),
                    help="print the decision tree for the full dataset")
    lf.add_argument("--out", "-o", default=_EnvDefault("out"),
                    help="also write the formula as JSON")
    lf.set_defaults(func=cmd_learn_formula)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line, then fill each flag of the chosen subcommand
    that was not given from its environment variable, and check the
    numeric flags' ranges: each is finite and at least its ``MINIMUM``."""
    args = build_parser().parse_args(argv)
    for name, value in vars(args).items():
        source = "--" + name.replace("_", "-")
        if isinstance(value, _EnvDefault):
            value = value.resolve()
            setattr(args, name, value)
            source = "REBAC_MINER_" + name.upper()
        if name in MINIMUM and not math.isfinite(value):
            raise UsageError(f"{source}={value}: must be a finite number")
        if name in MINIMUM and value < MINIMUM[name]:
            raise UsageError(f"{source}={value}: must be at least {MINIMUM[name]}")
    return args


def main(argv=None) -> int:
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        # UTF-8 like the files written; a path from the command line that
        # the locale could not decode is printed back as its own bytes.
        reconfigure(encoding="utf-8", errors="surrogateescape")
    try:
        args = parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # Send the rest of stdout, the interpreter's last flush included,
        # to devnull rather than at the closed pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (UsageError, SchemaError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a path that cannot be read or written; names it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MinerError, LearningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
