"""JSON document formats and CSV dataset format.

Encodings: the unknown placeholder is the reserved object
``{"$unknown": true}``; None is JSON null; many-valued fields are sorted
arrays; paths are dot-joined text with the implicit trailing id omitted
(a field name is never empty and holds no dot, so a path's text reads back
as the path it was written from, and "" is the empty constraint path);
an atomic's "negated" is a JSON boolean (absent means false); actions are
strings and condition constants strings or booleans; an authorization
list is an array of [subjectId, resourceId, action] triples.
Serialization is canonical (sorted keys, sorted collections), so
identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

from rebac_miner.metrics import SimilarityReport
from rebac_miner.model import (
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
    Rule,
    SraTuple,
    validate_object_model,
    validate_rule,
    value_sort_key,
)
from rebac_miner.tvl import (
    FeatureId,
    FeatureVector,
    LabeledDataset,
    LabeledRow,
    TruthValue,
)

UNKNOWN_JSON = {"$unknown": True}


class SchemaError(ValueError):
    """An input document does not match its expected shape."""


def dumps(document) -> str:
    """``json.dumps(document, indent=2, sort_keys=True)`` and a newline.

    That call runs json's pure-Python encoder (any ``indent`` does), so the
    documents are written here instead, byte for byte the same: strings
    are quoted by json's C quoter, an array of strings is one join, and an
    array of arrays of strings (an authorization list) is one join per
    row, with no Python call per item.  A value of a type other than the
    exact JSON types (``dict`` with ``str`` keys, ``list``, ``tuple``,
    ``str``, ``int``, ``float``, ``bool``, ``None``), and a cycle, hand the
    whole document to ``json.dumps``, so its text and its errors stay
    json's."""
    try:
        return _write(document, "\n") + "\n"
    except (_NotPlainJson, RecursionError):
        return json.dumps(document, indent=2, sort_keys=True) + "\n"


class _NotPlainJson(Exception):
    """A value that :func:`_write` leaves to ``json.dumps``."""


_INFINITY = float("inf")


def _write(value, newline: str) -> str:
    """``value`` as json indents it, at the depth whose line break and
    indent are ``newline``."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict:
        if not value:
            return "{}"
        if set(map(type, value)) != {str}:
            raise _NotPlainJson
        inner = newline + "  "
        parts = []
        for key in sorted(value):
            item = value[key]
            text = _quote(item) if type(item) is str else _write(item, inner)
            parts.append(_quote(key) + ": " + text)
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, value))
        if kinds == {str}:
            body = ("," + inner).join(map(_quote, value))
        else:
            body = _rows(value, kinds, inner) or ("," + inner).join(
                [_write(item, inner) for item in value]
            )
        return "[" + inner + body + newline + "]"
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise _NotPlainJson


def _rows(value, kinds, newline: str):
    """The items of ``value``, line break and indent ``newline`` apart,
    when each is a non-empty list or tuple of strings that json quotes
    without an escape (``None`` otherwise): one join per row, each with
    the quotes in its separators."""
    if not kinds <= {list, tuple} or not all(value):
        return None
    if set(map(type, chain.from_iterable(value))) != {str}:
        return None
    # Every escape is longer than the character it stands for, so no string
    # needs one when quoting them all as one string adds only the quotes.
    text = "".join(chain.from_iterable(value))
    if len(_quote(text)) != len(text) + 2:
        return None
    inner = newline + "  "
    row = ('",' + inner + '"').join
    between = '"' + newline + "]," + newline + "[" + inner + '"'
    return "[" + inner + '"' + between.join(map(row, value)) + '"' + newline + "]"


def _require(condition: bool, message: str):
    if not condition:
        raise SchemaError(message)


def _as_obj(value, what: str) -> dict:
    _require(isinstance(value, dict), f"{what}: expected an object")
    return value


# --- class model -----------------------------------------------------------


def class_model_to_json(cm: ClassModel) -> dict:
    return {
        "classes": {
            cls: {
                "fields": {
                    name: {"type": decl.type, "multiplicity": decl.multiplicity.value}
                    for name, decl in fields.items()
                }
            }
            for cls, fields in cm.classes.items()
        }
    }


def class_model_from_json(document) -> ClassModel:
    doc = _as_obj(document, "class model")
    classes = _as_obj(doc.get("classes"), "class model: classes")
    out = {}
    for cls, body in classes.items():
        fields = _as_obj(body, f"class {cls}").get("fields", {})
        decls = {}
        for name, spec in _as_obj(fields, f"class {cls}: fields").items():
            spec = _as_obj(spec, f"field {cls}.{name}")
            _require("type" in spec, f"field {cls}.{name}: missing type")
            mult = spec.get("multiplicity", "one")
            try:
                decls[name] = FieldDecl(str(spec["type"]), Multiplicity(mult))
            except ValueError:
                raise SchemaError(
                    f"field {cls}.{name}: bad multiplicity {mult!r}"
                ) from None
        out[cls] = decls
    try:
        return ClassModel(out)
    except ModelError as exc:
        raise SchemaError(str(exc)) from exc


# --- object model ----------------------------------------------------------


def _value_to_json(value):
    if value is UNKNOWN:
        return UNKNOWN_JSON
    if isinstance(value, frozenset):
        return sorted(value, key=value_sort_key)
    return value


def _atom_from_json(raw, what: str):
    _require(isinstance(raw, (str, bool)), f"bad {what}: {raw!r} (not str or bool)")
    return raw


def _value_from_json(raw):
    if isinstance(raw, (str, bool)) or raw is None:  # nearly every value
        return raw
    if isinstance(raw, dict):
        _require(raw == UNKNOWN_JSON, f"bad value object: {raw!r}")
        return UNKNOWN
    if isinstance(raw, list):
        if not set(map(type, raw)) <= {str, bool}:
            for el in raw:  # name the first element that is not an atom
                _atom_from_json(el, "set element")
        return frozenset(raw)
    return _atom_from_json(raw, "field value")


def object_model_to_json(om: ObjectModel) -> dict:
    return {
        "objects": [
            {
                "id": obj.id,
                "type": obj.type,
                "fields": {
                    name: _value_to_json(value)
                    for name, value in sorted(obj.fields.items())
                },
            }
            for obj in om.objects()
        ]
    }


def object_model_from_json(document, cm: ClassModel) -> ObjectModel:
    doc = _as_obj(document, "object model")
    raw_objects = doc.get("objects")
    _require(isinstance(raw_objects, list), "object model: objects must be a list")
    instances = []
    for raw in raw_objects:
        raw = _as_obj(raw, "object")
        oid, cls, raw_fields = raw.get("id"), raw.get("type"), raw.get("fields", {})
        _require(isinstance(oid, str), "object: missing id")
        if not isinstance(cls, str):  # the message is formatted only for an error
            raise SchemaError(f"object {oid}: missing type")
        fields = {
            name: _value_from_json(value)
            for name, value in _as_obj(raw_fields, "object fields").items()
        }
        instances.append(ObjectInstance(oid, cls, fields))
    try:
        om = ObjectModel(instances)
        validate_object_model(cm, om)
    except ModelError as exc:
        raise SchemaError(str(exc)) from exc
    return om


# --- policies --------------------------------------------------------------


def _path_to_text(path) -> str:
    return ".".join(path)


def _path_from_text(text) -> tuple[str, ...]:
    """The path whose text is ``text``: field names joined by ".", and ""
    for the empty path.  A name may not be empty, so "dept." is refused."""
    _require(isinstance(text, str), f"bad path: {text!r}")
    path = tuple(text.split(".")) if text else ()
    _require(all(path), f"bad path: {text!r} (empty field name)")
    return path


def _condition_to_json(ac: AtomicCondition) -> dict:
    return {
        "path": _path_to_text(ac.path),
        "op": ac.op,
        "value": _value_to_json(ac.value),
        "negated": ac.negated,
    }


def _negated_from_json(raw: dict, what: str) -> bool:
    negated = raw.get("negated", False)
    _require(isinstance(negated, bool), f"{what}: negated must be true or false")
    return negated


def _strings_from_json(raw, what: str) -> list:
    strings = isinstance(raw, list) and all(isinstance(x, str) for x in raw)
    _require(strings, f"{what} must be a list of strings")
    return raw


def _condition_from_json(raw) -> AtomicCondition:
    raw = _as_obj(raw, "condition")
    for key in ("path", "op", "value"):
        _require(key in raw, f"condition: missing {key}")
    value = raw["value"]
    if raw["op"] == "in":
        # Checked before the set is built: a set cannot hold a JSON object
        # or array.  AtomicCondition checks every other constant.
        _require(isinstance(value, list), "'in' conditions take a list of atoms")
        value = frozenset(_atom_from_json(v, "condition constant") for v in value)
    try:
        return AtomicCondition(
            _path_from_text(raw["path"]),
            raw["op"],
            value,
            _negated_from_json(raw, "condition"),
        )
    except ModelError as exc:
        raise SchemaError(str(exc)) from exc


def _constraint_to_json(con: AtomicConstraint) -> dict:
    return {
        "path1": _path_to_text(con.path1),
        "op": con.op,
        "path2": _path_to_text(con.path2),
        "negated": con.negated,
    }


def _constraint_from_json(raw) -> AtomicConstraint:
    raw = _as_obj(raw, "constraint")
    for key in ("path1", "op", "path2"):
        _require(key in raw, f"constraint: missing {key}")
    try:
        return AtomicConstraint(
            _path_from_text(raw["path1"]),
            raw["op"],
            _path_from_text(raw["path2"]),
            _negated_from_json(raw, "constraint"),
        )
    except ModelError as exc:
        raise SchemaError(str(exc)) from exc


def rule_to_json(rule: Rule) -> dict:
    subject, resource, constraint = rule.by_slot
    return {
        "subjectType": rule.subject_type,
        "subjectCondition": [_condition_to_json(c) for c in subject],
        "resourceType": rule.resource_type,
        "resourceCondition": [_condition_to_json(c) for c in resource],
        "constraint": [_constraint_to_json(c) for c in constraint],
        "actions": sorted(rule.actions),
    }


def rule_from_json(raw) -> Rule:
    raw = _as_obj(raw, "rule")
    for key in ("subjectType", "resourceType", "actions"):
        _require(key in raw, f"rule: missing {key}")
    for key in ("subjectType", "resourceType"):
        _require(isinstance(raw[key], str), f"rule: {key} must be a string")
    actions = _strings_from_json(raw["actions"], "rule: actions")
    _require(actions, "rule: actions must be a non-empty list")

    def atomics(key, parse):
        items = raw.get(key, [])
        _require(isinstance(items, list), f"rule: {key} must be a list")
        return frozenset(parse(item) for item in items)

    return Rule(
        raw["subjectType"],
        atomics("subjectCondition", _condition_from_json),
        raw["resourceType"],
        atomics("resourceCondition", _condition_from_json),
        atomics("constraint", _constraint_from_json),
        frozenset(actions),
    )


def rules_to_json(actions: Iterable[str], rules: Iterable[Rule]) -> dict:
    return {
        "actions": sorted(actions),
        "rules": [rule_to_json(r) for r in rules],
    }


def rules_from_json(document, cm: ClassModel):
    """The declared actions and the rules of a policy document.  Every
    rule action must be listed in the policy's ``actions`` (an absent list
    declares none), and every rule must be well-formed over ``cm``;
    anything else raises :class:`SchemaError`."""
    doc = _as_obj(document, "policy")
    _require(isinstance(doc.get("rules"), list), "policy: rules must be a list")
    rules = tuple(rule_from_json(r) for r in doc["rules"])
    actions = frozenset(_strings_from_json(doc.get("actions", []), "policy: actions"))
    for rule in rules:
        undeclared = sorted(rule.actions - actions)
        if undeclared:
            raise SchemaError(
                f"rule {rule.text()}: action {undeclared[0]!r} is not in the"
                " policy's actions"
            )
    try:
        for rule in rules:
            validate_rule(cm, rule)
    except ModelError as exc:
        raise SchemaError(str(exc)) from exc
    return actions, rules


# --- authorizations --------------------------------------------------------


def au_to_json(au: Iterable[SraTuple]) -> list:
    return [[t.subject, t.resource, t.action] for t in sorted(au)]


def acl_from_documents(cm_doc, om_doc, au_doc) -> AclPolicy:
    """The ACL of three parsed JSON documents.  ``au_doc`` must be an array
    of [subject id, resource id, action] triples of strings whose ids name
    objects of the object model; a triple may appear more than once.  The
    array is kept as given (:attr:`~rebac_miner.model.AclPolicy.triples`),
    and the declared actions are the ones it uses.  It is read by
    :attr:`~rebac_miner.model.AclPolicy.au_planes` while the policy is
    built: checked in bulk, and scanned triple by triple only when a check
    fails, so a bad document raises :class:`SchemaError` naming the first
    offending triple before this returns.  The objects are checked by
    :func:`~rebac_miner.model.validate_object_model`, in id order."""
    cm = class_model_from_json(cm_doc)
    om = object_model_from_json(om_doc, cm)
    _require(isinstance(au_doc, list), "authorizations: expected an array of triples")
    try:
        return AclPolicy(cm, om, None, au_doc)
    except ModelError as exc:
        raise SchemaError(str(exc)) from exc


# --- similarity report ------------------------------------------------------


def report_to_json(report: SimilarityReport) -> dict:
    return {
        "syntactic": report.syntactic,
        "semantic": report.semantic,
        "wscMined": report.wsc_mined,
        "wscReference": report.wsc_reference,
        "perRuleBestMatch": [
            {"rule": rule, "bestMatch": match, "score": score}
            for rule, match, score in report.per_rule_best_match
        ],
    }


# --- datasets as CSV ---------------------------------------------------------


def dataset_to_csv(dataset: LabeledDataset) -> str:
    """Header row of feature labels plus a final label column."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([f.label or f"f{f.index}" for f in dataset.features] + ["label"])
    for row in dataset.rows:
        writer.writerow([str(v) for v in row.vector.values] + [str(row.label)])
    return buffer.getvalue()


def dataset_from_csv(text: str) -> LabeledDataset:
    """The inverse of :func:`dataset_to_csv`: the last column is the label,
    and a header holding only the label is a dataset with no features."""
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r]
    _require(len(rows) >= 1, "dataset: missing header row")
    header = rows[0]
    features = tuple(
        FeatureId(i, label.strip(), 1) for i, label in enumerate(header[:-1])
    )
    out = []
    for line, raw in enumerate(rows[1:], start=2):
        _require(
            len(raw) == len(header), f"dataset line {line}: expected {len(header)} cells"
        )
        try:
            cells = tuple(TruthValue.from_text(c) for c in raw[:-1])
            label = TruthValue.from_text(raw[-1])
        except ValueError as exc:
            raise SchemaError(f"dataset line {line}: {exc}") from exc
        out.append(LabeledRow(FeatureVector(cells), label))
    return LabeledDataset.from_rows(features, out)
