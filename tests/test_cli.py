import hashlib
import io
import json
import logging
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import rebac_miner
from rebac_miner import jsonio, miner
from rebac_miner.cli import EXIT_BROKEN_PIPE, main
from rebac_miner.model import ID_FIELD, AtomicCondition, Policy, Rule, meaning

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "running-example"


def fixture_args():
    return [
        "--classmodel", str(FIXTURES / "classmodel.json"),
        "--objectmodel", str(FIXTURES / "objectmodel.json"),
        "--au", str(FIXTURES / "au.json"),
    ]


def input_args(directory, documents):
    """Write each of ``documents`` (name -> JSON) to ``directory`` and
    return the ``mine`` flags naming the files."""
    directory.mkdir()
    args = []
    for name, document in documents.items():
        (directory / f"{name}.json").write_text(json.dumps(document))
        args += [f"--{name}", str(directory / f"{name}.json")]
    return args


class TestGenerate:
    def test_writes_all_documents(self, tmp_path, capsys):
        code = main(
            ["generate", "--spec", "univ-mini", "--n", "5", "--s", "0",
             "--seed", "42", "--outdir", str(tmp_path)]
        )
        assert code == 0
        for name in ("classmodel", "objectmodel", "groundtruth", "au", "manifest"):
            assert (tmp_path / f"{name}.json").exists()
        au = json.loads((tmp_path / "au.json").read_text())
        assert len(au) > 0

    def test_injection_does_not_change_au(self, tmp_path):
        main(["generate", "--spec", "univ-mini", "--n", "4", "--s", "0",
              "--seed", "7", "--outdir", str(tmp_path / "a")])
        main(["generate", "--spec", "univ-mini", "--n", "4", "--s", "3",
              "--seed", "7", "--outdir", str(tmp_path / "b")])
        au_a = (tmp_path / "a" / "au.json").read_text()
        au_b = (tmp_path / "b" / "au.json").read_text()
        assert au_a == au_b
        om_a = (tmp_path / "a" / "objectmodel.json").read_text()
        om_b = (tmp_path / "b" / "objectmodel.json").read_text()
        assert om_a != om_b

    @pytest.mark.parametrize("spec", ["univ-mini", "org-chart"])
    def test_builtin_specs_generate_without_a_warning(self, spec, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            assert main(["generate", "--spec", spec, "--n", "4", "--s", "2",
                         "--seed", "1", "--outdir", str(tmp_path)]) == 0
        assert not caplog.records

    def test_bad_spec_name_exits_2(self, tmp_path):
        assert main(["generate", "--spec", "nope", "--outdir", str(tmp_path)]) == 2

    def test_n_zero_exits_2(self, tmp_path):
        assert main(
            ["generate", "--spec", "univ-mini", "--n", "0", "--outdir", str(tmp_path)]
        ) == 2

    def test_reproducible_outputs(self, tmp_path):
        for sub in ("x", "y"):
            main(["generate", "--spec", "org-chart", "--n", "3", "--s", "2",
                  "--seed", "5", "--outdir", str(tmp_path / sub)])
        for name in ("classmodel", "objectmodel", "groundtruth", "au"):
            assert (tmp_path / "x" / f"{name}.json").read_bytes() == (
                tmp_path / "y" / f"{name}.json"
            ).read_bytes()
        mx = json.loads((tmp_path / "x" / "manifest.json").read_text())
        my = json.loads((tmp_path / "y" / "manifest.json").read_text())
        assert {Path(k).name: v for k, v in mx["outputs"].items()} == {
            Path(k).name: v for k, v in my["outputs"].items()
        }


class TestMine:
    def test_running_example(self, tmp_path, capsys):
        out = tmp_path / "policy.json"
        code = main(["mine", *fixture_args(), "-o", str(out)])
        assert code == 0
        policy = json.loads(out.read_text())
        assert len(policy["rules"]) == 2
        assert (tmp_path / "manifest.json").exists()

    def test_naive_mode_exits_3(self, tmp_path, capsys):
        out = tmp_path / "policy.json"
        code = main(
            ["mine", *fixture_args(), "-o", str(out), "--naive-unknown-as-false"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "CS-student-1" in err and "CS-doc-2" in err

    def test_naive_mode_reports_missing_and_extra(self, tmp_path, monkeypatch, capsys):
        acl = jsonio.acl_from_documents(*(
            json.loads((FIXTURES / f"{name}.json").read_text())
            for name in ("classmodel", "objectmodel", "au")
        ))
        simplify = miner.merge_and_simplify
        mined = []

        def over_granting(rules, acl, **kwargs):
            # Every document to one student: the naive policy still misses
            # a tuple, and now also grants some beyond the input.
            student = AtomicCondition((ID_FIELD,), "in", frozenset({"EE-student-1"}))
            everything = Rule(
                "Student", frozenset({student}), "Document",
                frozenset(), frozenset(), frozenset({"read"}),
            )
            mined.extend(simplify(rules, acl, **kwargs) + (everything,))
            return tuple(mined)

        monkeypatch.setattr(miner, "merge_and_simplify", over_granting)
        out = tmp_path / "policy.json"
        code = main(
            ["mine", *fixture_args(), "-o", str(out), "--naive-unknown-as-false"]
        )
        assert code == 3
        granted = meaning(Policy(acl.class_model, acl.object_model, acl.actions, tuple(mined)))
        missing, extra = min(acl.au - granted), min(granted - acl.au)
        err = capsys.readouterr().err
        assert f"inconsistent: does not grant {tuple(missing)}" in err
        assert f"inconsistent: also grants {tuple(extra)}" in err
        assert out.exists() and (tmp_path / "manifest.json").exists()

    def test_all_unknown_row_mines_without_a_warning(self, tmp_path, caplog):
        # Each task's T row (e1, x1) is all-unknown, so the default cover
        # of that row is the empty conjunction; the attempt that uses it is
        # rejected, the identity route mines the policy, and nothing warns.
        unknown = {"$unknown": True}
        documents = {
            "classmodel": {"classes": {
                "Dept": {"fields": {}},
                "Emp": {"fields": {"dept": {"type": "Dept"}}},
                "Doc": {"fields": {"dept": {"type": "Dept"}}},
            }},
            "objectmodel": {"objects": [
                {"id": "d1", "type": "Dept", "fields": {}},
                {"id": "d2", "type": "Dept", "fields": {}},
                {"id": "e1", "type": "Emp", "fields": {"dept": unknown}},
                {"id": "e2", "type": "Emp", "fields": {"dept": unknown}},
                {"id": "e3", "type": "Emp", "fields": {"dept": "d1"}},
                {"id": "x1", "type": "Doc", "fields": {"dept": unknown}},
                {"id": "x2", "type": "Doc", "fields": {"dept": "d2"}},
            ]},
            "au": [["e1", "x1", "read"], ["e3", "x2", "read"]],
        }
        args = []
        for name, document in documents.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(document))
            args += [f"--{name}", str(path)]
        out = tmp_path / "policy.json"
        with caplog.at_level(logging.WARNING):
            assert main(["mine", *args, "-o", str(out)]) == 0
        assert not caplog.records
        cm = jsonio.class_model_from_json(documents["classmodel"])
        _, rules = jsonio.rules_from_json(json.loads(out.read_text()), cm)
        assert [r.text() for r in rules] == [
            "<Emp; true; Doc; true; not(subject.dept = resource.dept); {read}>",
            "<Emp; subject.id=e1; Doc; resource.id=x1; true; {read}>",
        ]

    def test_missing_object_id_exits_2(self, tmp_path):
        bad_au = tmp_path / "au.json"
        bad_au.write_text('[["ghost", "CS-doc-1", "read"]]\n')
        code = main(
            ["mine",
             "--classmodel", str(FIXTURES / "classmodel.json"),
             "--objectmodel", str(FIXTURES / "objectmodel.json"),
             "--au", str(bad_au),
             "-o", str(tmp_path / "policy.json")]
        )
        assert code == 2

    def test_invalid_object_model_exits_2(self, tmp_path, capsys):
        om = json.loads((FIXTURES / "objectmodel.json").read_text())
        (student,) = [o for o in om["objects"] if o["id"] == "CS-student-1"]
        student["fields"]["dept"] = "ghost"
        bad_om = tmp_path / "objectmodel.json"
        bad_om.write_text(json.dumps(om))
        args = fixture_args()
        args[args.index("--objectmodel") + 1] = str(bad_om)
        assert main(["mine", *args, "-o", str(tmp_path / "policy.json")]) == 2
        err = capsys.readouterr().err
        assert err == "error: CS-student-1.dept: dangling reference 'ghost'\n"

    def test_dotted_field_name_exits_2(self, tmp_path, capsys):
        # A field named "d.x" would be written as the path text "d.x", which
        # reads back as the two-hop path (d, x): the class model is refused.
        documents = {
            "classmodel": {"classes": {
                "Dept": {},
                "Emp": {"fields": {"d.x": {"type": "Dept"}}},
                "Doc": {"fields": {"d.x": {"type": "Dept"}}},
            }},
            "objectmodel": {"objects": [
                {"id": "d1", "type": "Dept", "fields": {}},
                {"id": "e1", "type": "Emp", "fields": {"d.x": "d1"}},
                {"id": "doc1", "type": "Doc", "fields": {"d.x": "d1"}},
            ]},
            "au": [["e1", "doc1", "read"]],
        }
        args = []
        for name, document in documents.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(document))
            args += [f"--{name}", str(path)]
        out = tmp_path / "policy.json"
        assert main(["mine", *args, "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: class Emp: bad field name 'd.x'"
            " (field names are non-empty and contain no '.')\n"
        )
        assert not out.exists()

    def test_dump_datasets(self, tmp_path):
        out = tmp_path / "policy.json"
        dumps = tmp_path / "datasets"
        code = main(
            ["mine", *fixture_args(), "-o", str(out), "--dump-datasets", str(dumps)]
        )
        assert code == 0
        (csv_file,) = sorted(dumps.glob("*.csv"))
        assert csv_file.name == "Student_Document_read.csv"
        header, *rows = csv_file.read_text().strip().splitlines()
        assert header.endswith(",label")
        assert len(rows) == 6

    def test_dump_name_outside_directory_exits_2(self, tmp_path, capsys):
        # An action from the input names a file; one that is not a single
        # path component is refused before anything is written.
        au = json.loads((FIXTURES / "au.json").read_text())
        bad_au = tmp_path / "au.json"
        bad_au.write_text(json.dumps([[s, r, "../../../outside"] for s, r, _ in au]))
        args = fixture_args()
        args[args.index("--au") + 1] = str(bad_au)
        out = tmp_path / "policy.json"
        code = main(
            ["mine", *args, "-o", str(out), "--dump-datasets", str(tmp_path / "dump" / "sub")]
        )
        assert code == 2
        assert "Student_Document_../../../outside.csv" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["au.json"]

    def test_dump_names_shared_by_two_tasks_exit_2(self, tmp_path, capsys):
        # Tasks (A_B, C, x) and (A, B_C, x) both map to A_B_C_x.csv; the
        # run is refused before mining, naming both tasks.
        args = input_args(tmp_path / "in", {
            "classmodel": {"classes": {c: {"fields": {}} for c in ("A", "A_B", "C", "B_C")}},
            "objectmodel": {"objects": [
                {"id": oid, "type": cls, "fields": {}}
                for oid, cls in (("a1", "A"), ("ab1", "A_B"), ("c1", "C"), ("bc1", "B_C"))
            ]},
            "au": [["ab1", "c1", "x"], ["a1", "bc1", "x"]],
        })
        code = main(
            ["mine", *args, "-o", str(tmp_path / "policy.json"),
             "--dump-datasets", str(tmp_path / "dump")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "('A', 'B_C', 'x')" in err and "('A_B', 'C', 'x')" in err
        assert "A_B_C_x.csv" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]

    def test_mine_then_learn_formula_accepts_dump(self, tmp_path, capsys):
        dumps = tmp_path / "datasets"
        main(["mine", *fixture_args(), "-o", str(tmp_path / "p.json"),
              "--dump-datasets", str(dumps)])
        capsys.readouterr()
        code = main(["learn-formula", str(dumps / "Student_Document_read.csv")])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert "res.type=Handbook" in line and "sub.dept = res.dept" in line

    def test_learn_formula_accepts_a_dump_without_features(self, tmp_path, capsys):
        # Classes without fields give a task with no features: its dump is
        # the label column alone, and the formula learned from it is true.
        args = input_args(tmp_path / "in", {
            "classmodel": {"classes": {"Emp": {"fields": {}}, "Doc": {"fields": {}}}},
            "objectmodel": {"objects": [
                {"id": "e1", "type": "Emp", "fields": {}},
                {"id": "d1", "type": "Doc", "fields": {}},
            ]},
            "au": [["e1", "d1", "read"]],
        })
        dumps = tmp_path / "datasets"
        assert main(["mine", *args, "-o", str(tmp_path / "p.json"),
                     "--dump-datasets", str(dumps)]) == 0
        csv_file = dumps / "Emp_Doc_read.csv"
        assert csv_file.read_text() == "label\nT\n"
        capsys.readouterr()
        assert main(["learn-formula", str(csv_file)]) == 0
        assert capsys.readouterr().out == "(true)\n"

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["mine", *fixture_args(), "-o", str(a)])
        main(["mine", *fixture_args(), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_policy_does_not_depend_on_hash_order(self, tmp_path):
        # With identity conditions among the features, phase 2b accepts
        # over a thousand proposals on this instance; runs under two string
        # hash seeds must still write the same policy bytes.
        indir = tmp_path / "in"
        assert main(["generate", "--spec", "org-chart", "--n", "15", "--s", "2",
                     "--seed", "2", "--outdir", str(indir)]) == 0
        inputs = [arg for name in ("classmodel", "objectmodel", "au")
                  for arg in (f"--{name}", str(indir / f"{name}.json"))]
        src = str(Path(rebac_miner.__file__).resolve().parents[1])
        policies = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"policy-{seed}.json"
            run = subprocess.run(
                [sys.executable, "-m", "rebac_miner.cli", "mine", *inputs,
                 "-o", str(out), "--include-ids"],
                env=env, capture_output=True, text=True,
            )
            assert run.returncode == 0, run.stderr
            policies.append(out.read_bytes())
        assert policies[0] == policies[1]

    def test_max_iter_reaches_the_learner(self, tmp_path):
        # On this instance one tree iteration per task mines another policy
        # than the default five.
        indir = tmp_path / "in"
        assert main(["generate", "--spec", "org-chart", "--n", "6", "--s", "2",
                     "--seed", "5", "--outdir", str(indir)]) == 0
        paths = {name: indir / f"{name}.json" for name in ("classmodel", "objectmodel", "au")}
        acl = jsonio.acl_from_documents(*(json.loads(p.read_text()) for p in paths.values()))

        def policy_bytes(cfg):
            policy = miner.mine_detailed(acl, cfg).policy
            return jsonio.dumps(jsonio.rules_to_json(policy.actions, policy.rules)).encode()

        out = tmp_path / "policy.json"
        inputs = [arg for name, path in paths.items() for arg in (f"--{name}", str(path))]
        assert main(["mine", *inputs, "-o", str(out), "--max-iter", "1"]) == 0
        assert out.read_bytes() == policy_bytes(miner.MinerConfig(max_iter=1))
        assert out.read_bytes() != policy_bytes(miner.MinerConfig())


class TestEval:
    def test_running_example_scores_one(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        main(["mine", *fixture_args(), "-o", str(policy)])
        report_path = tmp_path / "report.json"
        code = main(
            ["eval",
             "--mined", str(policy),
             "--reference", str(FIXTURES / "groundtruth.json"),
             "--classmodel", str(FIXTURES / "classmodel.json"),
             "--objectmodel", str(FIXTURES / "objectmodel.json"),
             "-o", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["syntactic"] == 1.0
        assert report["semantic"] == 1.0

    def test_policy_vs_itself(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            ["eval",
             "--mined", str(FIXTURES / "groundtruth.json"),
             "--reference", str(FIXTURES / "groundtruth.json"),
             "--classmodel", str(FIXTURES / "classmodel.json"),
             "--objectmodel", str(FIXTURES / "objectmodel.json"),
             "-o", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["syntactic"] == 1.0 and report["semantic"] == 1.0

    def test_two_conditions_on_one_path(self, tmp_path):
        # The Handbook rule with a second condition on its path: scores stay
        # in [0, 1] and the policy matches itself exactly.
        document = json.loads((FIXTURES / "groundtruth.json").read_text())
        handbook = document["rules"][1]["resourceCondition"]
        handbook.append(
            {"negated": True, "op": "in", "path": "type", "value": ["Memo"]}
        )
        policy = tmp_path / "two-conditions.json"
        policy.write_text(json.dumps(document))
        report_path = tmp_path / "report.json"
        code = main(
            ["eval",
             "--mined", str(policy),
             "--reference", str(policy),
             "--classmodel", str(FIXTURES / "classmodel.json"),
             "--objectmodel", str(FIXTURES / "objectmodel.json"),
             "-o", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["syntactic"] == 1.0 and report["semantic"] == 1.0

    def test_empty_mined_policy_semantic_zero(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"actions": ["read"], "rules": []}\n')
        report_path = tmp_path / "report.json"
        code = main(
            ["eval",
             "--mined", str(empty),
             "--reference", str(FIXTURES / "groundtruth.json"),
             "--classmodel", str(FIXTURES / "classmodel.json"),
             "--objectmodel", str(FIXTURES / "objectmodel.json"),
             "-o", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["semantic"] == 0.0 and report["syntactic"] == 0.0

    def test_schema_violation_exits_2(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text('{"rules": "not-a-list"}\n')
        code = main(
            ["eval",
             "--mined", str(broken),
             "--reference", str(FIXTURES / "groundtruth.json"),
             "--classmodel", str(FIXTURES / "classmodel.json"),
             "--objectmodel", str(FIXTURES / "objectmodel.json"),
             "-o", str(tmp_path / "report.json")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"negated": false', '"negated": "false"'),
            ('"actions": [\n        "read"', '"actions": [\n        "read", 1'),
            ('"Handbook"', 'true, {"x": 1}'),
        ],
        ids=["negated-string", "action-number", "atom-object"],
    )
    def test_malformed_policy_exits_2(self, tmp_path, capsys, old, new):
        text = (FIXTURES / "groundtruth.json").read_text()
        assert old in text
        broken = tmp_path / "broken.json"
        broken.write_text(text.replace(old, new))
        code = main(
            ["eval",
             "--mined", str(broken),
             "--reference", str(FIXTURES / "groundtruth.json"),
             "--classmodel", str(FIXTURES / "classmodel.json"),
             "--objectmodel", str(FIXTURES / "objectmodel.json"),
             "-o", str(tmp_path / "report.json")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text", ["dept.", ".dept", "dept..", "..dept"])
    def test_path_with_an_empty_field_name_exits_2(self, tmp_path, capsys, text):
        document = json.loads((FIXTURES / "groundtruth.json").read_text())
        document["rules"][0]["constraint"][0]["path1"] = text
        reference = tmp_path / "reference.json"
        reference.write_text(json.dumps(document))
        code = main(
            ["eval",
             "--mined", str(FIXTURES / "groundtruth.json"),
             "--reference", str(reference),
             "--classmodel", str(FIXTURES / "classmodel.json"),
             "--objectmodel", str(FIXTURES / "objectmodel.json"),
             "-o", str(tmp_path / "report.json")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: bad path: {text!r} (empty field name)\n"

    def test_undeclared_reference_action_exits_2(self, tmp_path, capsys):
        document = json.loads((FIXTURES / "groundtruth.json").read_text())
        del document["actions"]
        reference = tmp_path / "reference.json"
        reference.write_text(json.dumps(document))
        code = main(
            ["eval",
             "--mined", str(FIXTURES / "groundtruth.json"),
             "--reference", str(reference),
             "--classmodel", str(FIXTURES / "classmodel.json"),
             "--objectmodel", str(FIXTURES / "objectmodel.json"),
             "-o", str(tmp_path / "report.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rule <") and "'read'" in err


class TestLearnFormulaCommand:
    def test_csv_roundtrip(self, tmp_path, capsys):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("f1,f2,label\nT,F,T\nF,T,T\nF,F,F\nT,T,T\n")
        code = main(["learn-formula", str(csv_file), "-o", str(tmp_path / "out.json")])
        assert code == 0
        out = json.loads((tmp_path / "out.json").read_text())
        assert out["usedFallback"] is False
        assert (tmp_path / "manifest.json").exists()

    def test_max_iter_reaches_the_learner(self, tmp_path):
        # The first tree's only T path tests is-unknown(f0), which can be
        # neither dropped nor replaced; f0 is blacklisted, and by default a
        # second tree learns f1 and not(f2).
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("f0,f1,f2,label\nU,T,F,T\nT,T,T,F\nF,F,T,F\nT,F,F,F\n")
        iterations = []
        for flags in ([], ["--max-iter", "1"]):
            out = tmp_path / "out.json"
            assert main(["learn-formula", str(csv_file), "-o", str(out), *flags]) == 0
            iterations.append(json.loads(out.read_text())["iterations"])
        assert iterations == [2, 1]

    def test_dump_tree(self, tmp_path, capsys):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("f1,label\nT,T\nF,F\n")
        code = main(["learn-formula", str(csv_file), "--dump-tree"])
        assert code == 0
        out = capsys.readouterr().out
        assert "split on f1" in out

    def test_missing_file_exits_2(self):
        assert main(["learn-formula", "/nonexistent.csv"]) == 2

    def test_inconsistent_dataset_exits_3(self, tmp_path, capsys):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("a,b,label\nT,F,T\nT,F,F\n")
        assert main(["learn-formula", str(csv_file)]) == 3
        assert "labeled F" in capsys.readouterr().err

    def test_all_unknown_rows_exit_3_with_one_error_line(self, tmp_path):
        # The T row's default cover is empty, so the formula grants the F
        # row too: exit 3 with the error line alone on stderr.
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("f0,label\nU,T\nU,F\n")
        src = str(Path(rebac_miner.__file__).resolve().parents[1])
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "rebac_miner.cli", "learn-formula", str(csv_file)],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 3
        assert run.stderr == "error: formula would grant row 1 (labeled F)\n"


def _file_system_case(case, tmp_path):
    """The command line of one file-system error case, and the path its
    message must name."""
    afile = tmp_path / "afile"
    afile.write_text("")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"classes": {"Caf\u00e9": {}}}'.encode("latin-1"))
    mine = ["mine", *fixture_args(), "-o", str(tmp_path / "p.json")]
    if case == "mine-directory-input":
        mine[mine.index("--classmodel") + 1] = str(tmp_path)
        return mine, tmp_path
    if case == "learn-formula-directory-input":
        return ["learn-formula", str(tmp_path)], tmp_path
    if case == "mine-non-utf8-input":
        mine[mine.index("--classmodel") + 1] = str(latin1)
        return mine, latin1
    if case == "learn-formula-non-utf8-input":
        csv_file = tmp_path / "data.csv"
        csv_file.write_bytes("f\u00e9,label\nT,T\n".encode("latin-1"))
        return ["learn-formula", str(csv_file)], csv_file
    if case == "mine-missing-input":
        mine[mine.index("--classmodel") + 1] = str(tmp_path / "absent.json")
        return mine, tmp_path / "absent.json"
    if case == "learn-formula-missing-input":
        return ["learn-formula", str(tmp_path / "absent.csv")], tmp_path / "absent.csv"
    if case == "mine-out-under-file":
        return mine[:-1] + [str(afile / "p.json")], afile
    if case == "mine-dump-datasets-file":
        return mine + ["--dump-datasets", str(afile)], afile
    assert case == "generate-outdir-file"
    return ["generate", "--n", "2", "--outdir", str(afile)], afile


# case of _file_system_case -> the reason its error line gives
FILE_SYSTEM_REASONS = {
    "mine-directory-input": "Is a directory",
    "learn-formula-directory-input": "Is a directory",
    "mine-non-utf8-input": "not UTF-8 text",
    "learn-formula-non-utf8-input": "not UTF-8 text",
    "mine-out-under-file": "Not a directory",
    "mine-dump-datasets-file": "Not a directory",
    "generate-outdir-file": "Not a directory",
    "mine-missing-input": "No such file or directory",
    "learn-formula-missing-input": "No such file or directory",
}


class TestFileSystemErrors:
    """A path that cannot be read or written ends the run with exit 2 and
    one error line naming the path and the reason, not a traceback."""

    @pytest.mark.parametrize(
        "case, reason", FILE_SYSTEM_REASONS.items(), ids=list(FILE_SYSTEM_REASONS)
    )
    def test_exits_2_naming_the_path(self, case, reason, tmp_path, capsys):
        argv, path = _file_system_case(case, tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and reason in err


# Three classes with ASCII names whose object ids are not ASCII: the
# dumped dataset's feature labels carry the ids.
NON_ASCII_DOCUMENTS = {
    "classmodel": {"classes": {
        "Emp": {"fields": {"dept": {"type": "Dept"}}},
        "Doc": {"fields": {"dept": {"type": "Dept"}}},
        "Dept": {"fields": {}},
    }},
    "objectmodel": {"objects": [
        {"id": "\u00e91", "type": "Emp", "fields": {"dept": "d\u00e9pt-1"}},
        {"id": "e2", "type": "Emp", "fields": {"dept": "dept-2"}},
        {"id": "doc1", "type": "Doc", "fields": {"dept": "d\u00e9pt-1"}},
        {"id": "doc2", "type": "Doc", "fields": {"dept": "dept-2"}},
        {"id": "d\u00e9pt-1", "type": "Dept", "fields": {}},
        {"id": "dept-2", "type": "Dept", "fields": {}},
    ]},
    "au": [["\u00e91", "doc1", "read"], ["e2", "doc2", "read"]],
}

# An ASCII locale with Python's own UTF-8 fallbacks switched off.
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


class TestAsciiLocale:
    def test_dump_of_non_ascii_ids(self, tmp_path):
        # Files are read and written as UTF-8 whatever the locale's encoding.
        args = []
        for name, document in NON_ASCII_DOCUMENTS.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(json.dumps(document, ensure_ascii=False).encode("utf-8"))
            args += [f"--{name}", str(path)]
        src = str(Path(rebac_miner.__file__).resolve().parents[1])
        dumps = {}
        for label, locale in (("utf8", {"PYTHONUTF8": "1"}), ("ascii", ASCII_LOCALE)):
            env = {**os.environ, **locale}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-m", "rebac_miner.cli", "mine", *args,
                 "-o", str(tmp_path / label / "p.json"),
                 "--dump-datasets", str(tmp_path / label / "datasets")],
                env=env, capture_output=True, text=True,
            )
            assert run.returncode == 0, run.stderr
            dumps[label] = {
                p.name: p.read_bytes() for p in (tmp_path / label / "datasets").iterdir()
            }
        assert dumps["ascii"] == dumps["utf8"]
        (csv,) = dumps["utf8"].values()
        assert "d\u00e9pt-1".encode("utf-8") in csv

    def run_ascii(self, *argv):
        src = str(Path(rebac_miner.__file__).resolve().parents[1])
        env = {**os.environ, **ASCII_LOCALE}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "rebac_miner.cli", *argv], env=env, capture_output=True
        )

    def test_learn_formula_prints_utf8(self, tmp_path, capsys):
        # A non-ASCII feature label reaches stdout as UTF-8 bytes.
        csv_file = tmp_path / "data.csv"
        csv_file.write_bytes("f\u00e9,label\nT,T\nF,F\n".encode("utf-8"))
        run = self.run_ascii("learn-formula", str(csv_file))
        assert run.returncode == 0, run.stderr
        assert main(["learn-formula", str(csv_file)]) == 0
        assert run.stdout == capsys.readouterr().out.encode("utf-8")
        assert "f\u00e9".encode("utf-8") in run.stdout

    def test_mine_prints_a_non_ascii_output_path(self, tmp_path):
        # The path's bytes, which the ASCII locale cannot decode, are
        # printed back as given.
        out = tmp_path / "d\u00e9" / "p.json"
        run = self.run_ascii(
            "mine",
            "--classmodel", str(FIXTURES / "classmodel.json"),
            "--objectmodel", str(FIXTURES / "objectmodel.json"),
            "--au", str(FIXTURES / "au.json"),
            "-o", str(out),
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith(f"wrote {out} (".encode("utf-8"))
        assert out.exists()

    def test_dump_name_the_file_system_cannot_encode(self, tmp_path):
        # A class name the ASCII file system encoding cannot hold makes a
        # dump file name it cannot hold: exit 2 before mining, naming it.
        text = json.dumps(NON_ASCII_DOCUMENTS, ensure_ascii=False).replace(
            '"Emp"', '"Emp\u00e9"'
        )
        args = []
        for name, document in json.loads(text).items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(json.dumps(document, ensure_ascii=False).encode("utf-8"))
            args += [f"--{name}", str(path)]
        run = self.run_ascii(
            "mine", *args, "-o", str(tmp_path / "out" / "p.json"),
            "--dump-datasets", str(tmp_path / "out" / "datasets"),
        )
        err = run.stderr.decode("ascii")
        assert run.returncode == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Emp\\xe9_Doc_read.csv" in err and "cannot be encoded" in err
        assert not (tmp_path / "out").exists()


class _Stdout(io.TextIOWrapper):
    """A file-backed stdout whose ``write`` a test can patch."""


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["eval", "learn-formula"])
    def test_exits_quietly(self, command, tmp_path, monkeypatch, capsys):
        # What `rebac-miner ... | head -1` does once head has exited.
        if command == "eval":
            argv = ["eval",
                    "--mined", str(FIXTURES / "groundtruth.json"),
                    "--reference", str(FIXTURES / "groundtruth.json"),
                    "--classmodel", str(FIXTURES / "classmodel.json"),
                    "--objectmodel", str(FIXTURES / "objectmodel.json"),
                    "-o", str(tmp_path / "report.json")]
        else:
            csv_file = tmp_path / "data.csv"
            csv_file.write_text("f1,label\nT,T\nF,F\n")
            argv = ["learn-formula", str(csv_file), "--dump-tree"]
        stdout = _Stdout(open(tmp_path / "stdout", "wb"))

        def closed_pipe(text):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(stdout, "write", closed_pipe)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == EXIT_BROKEN_PIPE == 141
        monkeypatch.undo()
        # Later output goes to devnull, not at the closed pipe.
        stdout.write("discarded\n")
        stdout.close()
        assert (tmp_path / "stdout").read_text() == ""
        assert capsys.readouterr().err == ""


class TestManifest:
    def test_inputs_and_outputs_digested(self, tmp_path):
        out = tmp_path / "policy.json"
        main(["mine", *fixture_args(), "-o", str(out)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "mine"
        assert len(manifest["inputs"]) == 3
        assert str(out) in manifest["outputs"]
        assert set(manifest["timingSeconds"]) == {"mine", "write"}

    def test_generate_times_generation_and_writing(self, tmp_path):
        main(["generate", "--spec", "org-chart", "--n", "3", "--s", "2",
              "--seed", "5", "--outdir", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["timingSeconds"]) == {"generate", "write"}

    def test_each_file_read_once(self, tmp_path, monkeypatch):
        # Each input is read once, digest and text from the same bytes, and
        # no output is read back to digest it.
        reads = Counter()
        for name in ("read_bytes", "read_text"):
            def counting(self, *args, _read=getattr(Path, name), **kwargs):
                reads[str(self)] += 1
                return _read(self, *args, **kwargs)

            monkeypatch.setattr(Path, name, counting)
        out = tmp_path / "policy.json"
        argv = ["mine", *fixture_args(), "-o", str(out),
                "--dump-datasets", str(tmp_path / "datasets")]
        assert main(argv) == 0
        monkeypatch.undo()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert reads == Counter(dict.fromkeys(manifest["inputs"], 1))
        assert len(manifest["outputs"]) == 2
        for path, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
            assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest


class TestEnvironment:
    def test_switch_words(self, tmp_path, monkeypatch):
        # The naive mode is inconsistent on the running example (exit 3),
        # so exit 0 shows the variable left it off.
        for text, code in (("1", 3), ("true", 3), ("yes", 3),
                           ("0", 0), ("false", 0), ("no", 0)):
            monkeypatch.setenv("REBAC_MINER_NAIVE_UNKNOWN_AS_FALSE", text)
            out = tmp_path / f"{text}.json"
            assert main(["mine", *fixture_args(), "-o", str(out)]) == code, text

    def test_switches_reject_other_text(self, tmp_path, monkeypatch, capsys):
        for name in ("NO_NEGATION", "INCLUDE_IDS", "NAIVE_UNKNOWN_AS_FALSE"):
            monkeypatch.setenv(f"REBAC_MINER_{name}", "off")
            assert main(["mine", *fixture_args(), "-o", str(tmp_path / "p.json")]) == 2
            assert f"REBAC_MINER_{name}" in capsys.readouterr().err
            monkeypatch.delenv(f"REBAC_MINER_{name}")

    def test_non_numeric_value_exits_2(self, tmp_path, monkeypatch, capsys):
        for name in ("MAX_ITER", "MAX_COND_LEN", "MAX_CONS_LEN"):
            monkeypatch.setenv(f"REBAC_MINER_{name}", "abc")
            assert main(["mine", *fixture_args(), "-o", str(tmp_path / "p.json")]) == 2
            assert f"REBAC_MINER_{name}" in capsys.readouterr().err
            monkeypatch.delenv(f"REBAC_MINER_{name}")

    def test_non_numeric_generate_value_exits_2(self, tmp_path, monkeypatch, capsys):
        for name in ("N", "S", "SEED"):
            monkeypatch.setenv(f"REBAC_MINER_{name}", "abc")
            assert main(["generate", "--outdir", str(tmp_path)]) == 2
            assert f"REBAC_MINER_{name}" in capsys.readouterr().err
            monkeypatch.delenv(f"REBAC_MINER_{name}")

    def test_other_subcommands_variables_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REBAC_MINER_N", "abc")
        assert main(["mine", *fixture_args(), "-o", str(tmp_path / "p.json")]) == 0

    def test_given_flag_overrides_bad_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REBAC_MINER_MAX_ITER", "abc")
        out = tmp_path / "p.json"
        assert main(["mine", *fixture_args(), "-o", str(out), "--max-iter", "3"]) == 0

    def test_numeric_value_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REBAC_MINER_MAX_ITER", "3")
        out = tmp_path / "policy.json"
        assert main(["mine", *fixture_args(), "-o", str(out)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["arguments"]["max_iter"] == 3

    def test_out_of_range_flag_exits_2(self, tmp_path, capsys):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("f1,label\nT,T\nF,F\n")
        out = str(tmp_path / "p.json")
        for flag, value in (("--max-iter", "0"), ("--max-cond-len", "0"),
                            ("--max-cons-len", "-1")):
            assert main(["mine", *fixture_args(), "-o", out, flag, value]) == 2, flag
            assert flag in capsys.readouterr().err
        assert main(["learn-formula", str(csv_file), "--max-iter", "0"]) == 2
        assert "--max-iter" in capsys.readouterr().err
        for flag, value in (("--s", "nan"), ("--s", "inf"), ("--s", "1e309"),
                            ("--seed", "-1")):
            assert main(["generate", "--outdir", str(tmp_path), flag, value]) == 2, value
            assert flag in capsys.readouterr().err

    def test_out_of_range_value_exits_2(self, tmp_path, monkeypatch, capsys):
        for name, value in (("MAX_ITER", "0"), ("MAX_COND_LEN", "0"),
                            ("MAX_CONS_LEN", "-1")):
            monkeypatch.setenv(f"REBAC_MINER_{name}", value)
            assert main(["mine", *fixture_args(), "-o", str(tmp_path / "p.json")]) == 2
            assert f"REBAC_MINER_{name}" in capsys.readouterr().err
            monkeypatch.delenv(f"REBAC_MINER_{name}")
        for name, value in (("S", "nan"), ("SEED", "-5")):
            monkeypatch.setenv(f"REBAC_MINER_{name}", value)
            assert main(["generate", "--outdir", str(tmp_path)]) == 2, name
            assert f"REBAC_MINER_{name}" in capsys.readouterr().err
            monkeypatch.delenv(f"REBAC_MINER_{name}")

    def test_smallest_values_accepted(self, tmp_path):
        out = str(tmp_path / "p.json")
        assert main(["mine", *fixture_args(), "-o", out, "--max-iter", "1",
                     "--max-cond-len", "1", "--max-cons-len", "0"]) == 0

    def test_jobs_flag_removed(self, tmp_path, capsys):
        out = str(tmp_path / "p.json")
        with pytest.raises(SystemExit) as exit_info:
            main(["mine", *fixture_args(), "-o", out, "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_learn_formula_dump_tree_variable(self, tmp_path, monkeypatch, capsys):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("f1,label\nT,T\nF,F\n")
        monkeypatch.setenv("REBAC_MINER_DUMP_TREE", "1")
        assert main(["learn-formula", str(csv_file)]) == 0
        assert "split on f1" in capsys.readouterr().out

    def test_learn_formula_out_variable(self, tmp_path, monkeypatch):
        csv_file = tmp_path / "data.csv"
        csv_file.write_text("f1,label\nT,T\nF,F\n")
        monkeypatch.setenv("REBAC_MINER_OUT", str(tmp_path / "f.json"))
        assert main(["learn-formula", str(csv_file)]) == 0
        assert json.loads((tmp_path / "f.json").read_text())["formula"] == [["f1"]]

    def test_id_strategy_flag_removed(self, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "p.json")
        with pytest.raises(SystemExit) as exit_info:
            main(["mine", *fixture_args(), "-o", out, "--id-strategy", "retry"])
        assert exit_info.value.code == 2
        assert "--id-strategy" in capsys.readouterr().err
        # Its variable is ignored, as every variable without a flag is.
        monkeypatch.setenv("REBAC_MINER_ID_STRATEGY", "sometimes")
        assert main(["mine", *fixture_args(), "-o", out]) == 0
