import json

import pytest

from rebac_miner import jsonio
from rebac_miner.datagen import builtin_spec, generate, inject_unknowns
from rebac_miner.metrics import SimilarityReport
from rebac_miner.model import meaning, Policy, SraTuple
from rebac_miner.tvl import TruthValue
from tests.conftest import RUNNING_EXAMPLE, make_dataset, running_example


def reload(document):
    return json.loads(jsonio.dumps(document))


def running_example_acl(au_document):
    """The running example's models with ``au_document`` as authorizations."""
    acl, _ = running_example()
    return jsonio.acl_from_documents(
        reload(jsonio.class_model_to_json(acl.class_model)),
        reload(jsonio.object_model_to_json(acl.object_model)),
        au_document,
    )


class TestRoundTrips:
    def test_class_model(self):
        acl, _ = running_example()
        doc = reload(jsonio.class_model_to_json(acl.class_model))
        assert jsonio.class_model_from_json(doc) == acl.class_model

    def test_object_model_with_unknowns(self):
        spec = builtin_spec("org-chart")
        om, _ = generate(spec, 3, seed=6)
        om = inject_unknowns(om, spec, 3, seed=6)
        doc = reload(jsonio.object_model_to_json(om))
        back = jsonio.object_model_from_json(doc, spec.class_model)
        assert back.objects() == om.objects()

    def test_policy(self):
        acl, rules = running_example()
        doc = reload(jsonio.rules_to_json(acl.actions, rules))
        actions, back = jsonio.rules_from_json(doc, acl.class_model)
        assert actions == acl.actions
        assert set(back) == set(rules)

    def test_au(self):
        acl, _ = running_example()
        doc = reload(jsonio.au_to_json(acl.au))
        assert running_example_acl(doc).au == acl.au

    def test_report(self):
        report = SimilarityReport(0.95, 1.0, (("a", "b", 0.5),), 7, 8)
        assert reload(jsonio.report_to_json(report)) == {
            "syntactic": 0.95,
            "semantic": 1.0,
            "wscMined": 7,
            "wscReference": 8,
            "perRuleBestMatch": [{"rule": "a", "bestMatch": "b", "score": 0.5}],
        }

    def test_dataset_csv(self, example_dataset):
        # A task with no features is dumped as its label column alone.
        no_features = make_dataset((), [((), TruthValue.T), ((), TruthValue.F)])
        for dataset in (example_dataset, no_features):
            back = jsonio.dataset_from_csv(jsonio.dataset_to_csv(dataset))
            assert [f.label for f in back.features] == [f.label for f in dataset.features]
            assert list(back.rows) == list(dataset.rows)

    def test_serialization_is_canonical(self):
        acl, _ = running_example()
        a = jsonio.dumps(jsonio.object_model_to_json(acl.object_model))
        b = jsonio.dumps(
            jsonio.object_model_to_json(
                jsonio.object_model_from_json(json.loads(a), acl.class_model)
            )
        )
        assert a == b


class TestFixtureFiles:
    def test_fixture_files_are_canonical(self):
        # Each document reads back and writes out to the file's own bytes.
        acl, rules = running_example()
        written = {
            "classmodel": jsonio.class_model_to_json(acl.class_model),
            "objectmodel": jsonio.object_model_to_json(acl.object_model),
            "au": jsonio.au_to_json(acl.au),
            "groundtruth": jsonio.rules_to_json(acl.actions, rules),
        }
        for name, document in written.items():
            text = (RUNNING_EXAMPLE / f"{name}.json").read_text(encoding="utf-8")
            assert jsonio.dumps(document) == text, name

    def test_groundtruth_meaning_is_au(self):
        acl, _ = running_example()
        actions, rules = jsonio.rules_from_json(
            json.loads((RUNNING_EXAMPLE / "groundtruth.json").read_text()), acl.class_model
        )
        policy = Policy(acl.class_model, acl.object_model, actions, tuple(rules))
        assert meaning(policy) == acl.au


def _constraint(document):
    return document["rules"][0]["constraint"][0]


def _condition(document):
    return document["rules"][1]["resourceCondition"][0]


# Edits of the running example's reference policy that make it malformed.
BAD_POLICY_EDITS = {
    "negated-string": lambda d: _constraint(d).update(negated="false"),
    "negated-number": lambda d: _condition(d).update(negated=0),
    "action-number": lambda d: d["rules"][0].update(actions=["read", 1]),
    "policy-action-object": lambda d: d.update(actions=[{}]),
    "atom-object": lambda d: _condition(d).update(value=[True, {"x": 1}]),
    "atom-number": lambda d: _condition(d).update(value=[1]),
    "contains-list": lambda d: _condition(d).update(op="contains", value=["a"]),
    "contains-number": lambda d: _condition(d).update(op="contains", value=1.5),
    "type-list": lambda d: d["rules"][1].update(subjectType=["Student"]),
    "conditions-number": lambda d: d["rules"][1].update(resourceCondition=5),
    "undeclared-action": lambda d: d["rules"][1].update(actions=["read", "write"]),
    "actions-absent": lambda d: d.pop("actions"),
}


# A class model of departments and employees, and an object model over it
# that is valid but for the edits each case of BAD_MODELS makes.
VALIDATION_CLASS_MODEL = {"classes": {
    "Dept": {},
    "Emp": {"fields": {
        "dept": {"type": "Dept"},
        "depts": {"type": "Dept", "multiplicity": "many"},
        "flag": {"type": "Boolean"},
    }},
}}


def _objects(*extra, **fields):
    """One department and one employee ``e1`` whose fields are valid but
    for ``fields``, and the ``extra`` objects."""
    valid = {"dept": "d1", "depts": ["d1"], "flag": True}
    return {"objects": [
        {"id": "d1", "type": "Dept", "fields": {}},
        {"id": "e1", "type": "Emp", "fields": {**valid, **fields}},
        *extra,
    ]}


# case -> (class model, object model, the SchemaError's text)
BAD_MODELS = {
    "reserved-class-name": (
        {"classes": {"Boolean": {}}}, {"objects": []}, "reserved class name: Boolean",
    ),
    "dotted-field-name": (
        {"classes": {"Dept": {}, "Emp": {"fields": {"d.x": {"type": "Dept"}}}}},
        {"objects": []},
        "class Emp: bad field name 'd.x' (field names are non-empty and contain no '.')",
    ),
    "empty-field-name": (
        {"classes": {"Dept": {}, "Emp": {"fields": {"": {"type": "Dept"}}}}},
        {"objects": []},
        "class Emp: bad field name '' (field names are non-empty and contain no '.')",
    ),
    "unknown-type": (
        VALIDATION_CLASS_MODEL, _objects({"id": "x1", "type": "Nope"}),
        "object x1 has unknown type Nope",
    ),
    "undeclared-field": (
        VALIDATION_CLASS_MODEL, _objects(color="red"),
        "object e1 has undeclared field 'color'",
    ),
    "many-valued-not-a-set": (
        VALIDATION_CLASS_MODEL, _objects(depts="d1"),
        "e1.depts: many-valued field needs a set",
    ),
    "none-not-optional": (
        VALIDATION_CLASS_MODEL, _objects(dept=None),
        "e1.dept: None needs multiplicity optional",
    ),
    "not-a-boolean": (
        VALIDATION_CLASS_MODEL, _objects(flag="yes"),
        "e1.flag: expected a Boolean, got 'yes'",
    ),
    "dangling-reference": (
        VALIDATION_CLASS_MODEL, _objects(depts=["d1", "ghost"]),
        "e1.depts: dangling reference 'ghost'",
    ),
    "reference-of-wrong-type": (
        VALIDATION_CLASS_MODEL, _objects(dept="e1"),
        "e1.dept: reference 'e1' has type Emp, expected Dept",
    ),
}


class TestModelValidation:
    def test_valid_models_accepted(self):
        acl = jsonio.acl_from_documents(VALIDATION_CLASS_MODEL, _objects(), [])
        assert len(acl.object_model) == 2

    @pytest.mark.parametrize(
        "class_model, object_model, message", BAD_MODELS.values(), ids=list(BAD_MODELS)
    )
    def test_malformed_model_names_the_fault(self, class_model, object_model, message):
        with pytest.raises(jsonio.SchemaError) as exc:
            jsonio.acl_from_documents(class_model, object_model, [])
        assert str(exc.value) == message


class TestSchemaErrors:
    def test_bad_multiplicity(self):
        with pytest.raises(jsonio.SchemaError):
            jsonio.class_model_from_json(
                {"classes": {"A": {"fields": {"x": {"type": "A", "multiplicity": "two"}}}}}
            )

    def test_bad_value_object(self):
        with pytest.raises(jsonio.SchemaError):
            jsonio.object_model_from_json(
                {"objects": [{"id": "a", "type": "Student", "fields": {"dept": {"$oops": 1}}}]},
                running_example()[0].class_model,
            )

    def test_au_requires_triples(self):
        with pytest.raises(jsonio.SchemaError):
            running_example_acl([["s", "r"]])

    def test_au_checks_object_ids(self):
        with pytest.raises(jsonio.SchemaError):
            running_example_acl([["ghost", "CS-doc-1", "read"]])

    @pytest.mark.parametrize(
        "document, text",
        [
            ({"au": []}, "authorizations: expected an array of triples"),
            ([["e", "t", 3]], "authorizations: bad triple ['e', 't', 3]"),
            # An unknown id gets the model's text, as a hand-built ACL does.
            (
                [["CS-student-1", "ghost", "read"]],
                "authorization references unknown object: "
                + str(SraTuple("CS-student-1", "ghost", "read")),
            ),
        ],
        ids=["document-not-a-list", "non-string-element", "unknown-resource"],
    )
    def test_au_shape_errors_name_the_culprit(self, document, text):
        with pytest.raises(jsonio.SchemaError) as exc:
            running_example_acl(document)
        assert str(exc.value) == text

    def test_au_tuple_triple_read_like_the_list(self):
        # json.loads makes no tuples, but AclPolicy takes SraTuple triples,
        # so a tuple is a triple like the equal list.
        triple = ["CS-student-1", "CS-doc-1", "read"]
        as_tuple = running_example_acl([tuple(triple)])
        as_list = running_example_acl([triple])
        assert as_tuple.actions == as_list.actions == {"read"}
        assert as_tuple.au == as_list.au == {SraTuple(*triple)}
        assert as_tuple.au_planes == as_list.au_planes

    def test_condition_op_validated(self):
        with pytest.raises(jsonio.SchemaError):
            jsonio.rule_from_json(
                {
                    "subjectType": "A",
                    "resourceType": "B",
                    "actions": ["read"],
                    "subjectCondition": [
                        {"path": "x", "op": "between", "value": ["a"]}
                    ],
                }
            )

    @pytest.mark.parametrize("edit", BAD_POLICY_EDITS.values(), ids=list(BAD_POLICY_EDITS))
    def test_bad_policy_values(self, edit):
        document = json.loads((RUNNING_EXAMPLE / "groundtruth.json").read_text())
        edit(document)
        with pytest.raises(jsonio.SchemaError):
            jsonio.rules_from_json(document, running_example()[0].class_model)

    @pytest.mark.parametrize("text", ["dept.", ".dept", "dept..", "..dept", "."])
    @pytest.mark.parametrize("key", ["path1", "path2"])
    def test_path_with_an_empty_field_name_refused(self, key, text):
        # Read leniently, each of these would be the path ("dept",), which
        # writes back as "dept": a path's text must be the one it writes.
        document = json.loads((RUNNING_EXAMPLE / "groundtruth.json").read_text())
        _constraint(document)[key] = text
        with pytest.raises(jsonio.SchemaError) as exc:
            jsonio.rules_from_json(document, running_example()[0].class_model)
        assert str(exc.value) == f"bad path: {text!r} (empty field name)"

    def test_condition_path_with_an_empty_field_name_refused(self):
        document = json.loads((RUNNING_EXAMPLE / "groundtruth.json").read_text())
        _condition(document)["path"] = "type."
        with pytest.raises(jsonio.SchemaError, match="empty field name"):
            jsonio.rules_from_json(document, running_example()[0].class_model)

    @pytest.mark.parametrize("path", [(), ("dept",), ("dept", "parent")])
    def test_path_text_round_trips(self, path):
        # "" is the empty path, which a constraint may use for the object
        # itself.
        assert jsonio._path_from_text(jsonio._path_to_text(path)) == path

    def test_absent_negated_is_false(self):
        document = json.loads((RUNNING_EXAMPLE / "groundtruth.json").read_text())
        for rule in document["rules"]:
            for atomic in rule["resourceCondition"] + rule["constraint"]:
                del atomic["negated"]
        acl, truth = running_example()
        _, rules = jsonio.rules_from_json(document, acl.class_model)
        assert not any(a.negated for r in rules for _, a in r.atomics())
        assert rules == truth

    def test_csv_bad_cell(self):
        with pytest.raises(jsonio.SchemaError):
            jsonio.dataset_from_csv("f1,label\nT,X\n")
