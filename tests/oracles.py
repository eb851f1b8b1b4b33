"""Per-row reference semantics: the oracles of the program's plane code.

The program evaluates formulas and rules only as bitplanes
(``tvl.conjunction_rows``/``dnf_rows``, ``model.value_index``,
``model.pair_planes``, ``model.rule_plane``).  This module keeps the
plain, one-row-at-a-time definitions that the tests compare them with:
the strong-Kleene connectives and the information ordering, formula and
tree evaluation on one feature vector, path navigation on one object,
and the truth of atomics and rules on one object or one pair.

The navigator here shares no navigation code with ``model.value_index``
(it keeps its own copy of the set merge), so a fault in the index's reads
cannot hide in the oracle that checks them.
"""

from __future__ import annotations

from rebac_miner.model import (
    BOOLEAN,
    UNKNOWN,
    AtomicCondition,
    AtomicConstraint,
    ClassModel,
    ModelError,
    Multiplicity,
    ObjectModel,
    PathT,
    Rule,
    SraTuple,
    Value,
    path_type,
    plane_tuples,
    rule_plane,
)
from rebac_miner.tree import DecisionTree, Internal
from rebac_miner.tvl import (
    Conjunction,
    DnfFormula,
    FeatureVector,
    Literal,
    Polarity,
    TruthValue,
)

F, U, T = TruthValue.F, TruthValue.U, TruthValue.T


# --- Kleene logic on one vector (from tvl) -----------------------------------


def kleene_not(t: TruthValue) -> TruthValue:
    return TruthValue(2 - t)


def kleene_and(a: TruthValue, b: TruthValue) -> TruthValue:
    return a if a <= b else b


def kleene_or(a: TruthValue, b: TruthValue) -> TruthValue:
    return a if a >= b else b


def info_leq(a: TruthValue, b: TruthValue) -> bool:
    """Information ordering: a <= b iff a == b or a is unknown."""
    return a == b or a is U


def fv_leq(v1: FeatureVector, v2: FeatureVector) -> bool:
    """Pointwise information ordering over vectors of equal width."""
    if len(v1) != len(v2):
        raise ValueError(
            f"feature vectors have different widths: {len(v1)} vs {len(v2)}"
        )
    return all(info_leq(a, b) for a, b in zip(v1.values, v2.values))


def eval_literal(literal: Literal, vector: FeatureVector) -> TruthValue:
    cell = vector[literal.feature]
    if literal.polarity is Polarity.POSITIVE:
        return cell
    if literal.polarity is Polarity.NEGATIVE:
        return kleene_not(cell)
    return T if cell is U else F


def eval_conjunction(conjunction: Conjunction, vector: FeatureVector) -> TruthValue:
    result = T
    for literal in conjunction.literals:
        value = eval_literal(literal, vector)
        if value is F:
            return F
        if value < result:
            result = value
    return result


def eval_dnf(formula: DnfFormula, vector: FeatureVector) -> TruthValue:
    result = F
    for conjunction in formula.disjuncts:
        value = eval_conjunction(conjunction, vector)
        if value is T:
            return T
        if value > result:
            result = value
    return result


# --- tree classification on one vector (from tree) ---------------------------


def classify(tree: DecisionTree, vector) -> TruthValue:
    node = tree
    while isinstance(node, Internal):
        node = node.children[vector[node.feature]]
    return node.label


# --- navigation and rule truth on one object or pair (from model) ------------


def nav(cm: ClassModel, om: ObjectModel, oid: str, path: PathT) -> Value:
    """Dereference ``path`` starting from the object ``oid``.

    Hitting unknown yields unknown for one/optional paths and contributes
    an unknown element for many paths; hitting None yields None for
    one/optional paths and contributes nothing for many paths.  The empty
    path is the object itself.  Nothing is memoized: the miner reads
    navigated values from :func:`value_index`, and this plain navigator is
    its oracle and that of :func:`tval_condition` and
    :func:`tval_constraint`.
    """
    path = tuple(path)
    start = om.get(oid).type
    many = path_type(cm, start, path)[1] is Multiplicity.MANY
    return _navigate(cm, om, oid, start, path, many)


def _navigate(cm, om, oid: str, cls: str, path: PathT, many: bool) -> Value:
    """:func:`nav` of ``path`` from ``oid`` of class ``cls``, given whether
    the path is many-valued: a many path's value is always a set."""
    value = _nav_scalar(cm, om, oid, cls, path)
    if many and not isinstance(value, frozenset):
        if value is UNKNOWN:
            return frozenset({UNKNOWN})
        if value is None:
            return frozenset()
        return frozenset({value})  # unreachable: a many path crosses a many hop
    return value


def _nav_scalar(cm, om, oid: str, cls: str, path: PathT) -> Value:
    if not path:
        return oid
    decl = cm.field(cls, path[0])
    value = om.field_value(oid, path[0])
    rest = path[1:]
    if value is UNKNOWN:
        return frozenset({UNKNOWN}) if decl.multiplicity is Multiplicity.MANY else UNKNOWN
    if value is None:
        return None
    if decl.multiplicity is Multiplicity.MANY:
        out: set = set()
        for el in value:
            _merge_into(out, _nav_scalar(cm, om, el, decl.type, rest)
                        if el is not UNKNOWN else UNKNOWN)
        return frozenset(out)
    if decl.type == BOOLEAN:
        return value  # type-checking guarantees rest is empty
    return _nav_scalar(cm, om, value, decl.type, rest)


def _merge_into(out: set, sub: Value) -> None:
    if sub is UNKNOWN:
        out.add(UNKNOWN)
    elif sub is None:
        pass
    elif isinstance(sub, frozenset):
        out |= sub
    else:
        out.add(sub)


def _contains_unknown(value: Value) -> bool:
    return isinstance(value, frozenset) and UNKNOWN in value


def tval_condition(
    cm: ClassModel, om: ObjectModel, oid: str, ac: AtomicCondition
) -> TruthValue:
    """Three-valued truth of an atomic condition for one object."""
    value = nav(cm, om, oid, ac.path)
    base = _condition_base(ac, value)
    if not ac.negated:
        return base
    if base is T and _contains_unknown(value):
        return U
    return kleene_not(base)


def _condition_base(ac: AtomicCondition, value: Value) -> TruthValue:
    """Truth of ``ac``, read as positive, given its navigated value."""
    if isinstance(value, frozenset):
        if ac.value in value:
            return T
        return U if UNKNOWN in value else F
    if value is UNKNOWN:
        return U
    return T if value in ac.value else F


def _membership(atom: Value, atoms: frozenset) -> TruthValue:
    if atom is UNKNOWN:
        # Undecidable unless the set is definitely empty.
        return F if not atoms else U
    if atom is None:
        return F  # sets hold atoms only; nothing-at-all is never a member
    if atom in atoms:
        return T
    return U if UNKNOWN in atoms else F


def _subset(a: frozenset, b: frozenset) -> TruthValue:
    """a subseteq b over sets that may contain unknown elements.

    Definitely true when a is fully known and already inside b's known
    part; definitely false when b is fully known and a known element of a
    falls outside it; everything else is unknown.
    """
    a_known = a - {UNKNOWN}
    b_known = b - {UNKNOWN}
    if UNKNOWN not in a and a_known <= b_known:
        return T
    if UNKNOWN not in b and not (a_known <= b_known):
        return F
    return U


def tval_constraint(
    cm: ClassModel, om: ObjectModel, s_oid: str, r_oid: str, con: AtomicConstraint
) -> TruthValue:
    """Three-valued truth of an atomic constraint for a subject/resource pair."""
    v1, v2 = nav(cm, om, s_oid, con.path1), nav(cm, om, r_oid, con.path2)
    base = _constraint_base(con.op, v1, v2)
    if not con.negated:
        return base
    if base is T and (_contains_unknown(v1) or _contains_unknown(v2)):
        return U
    return kleene_not(base)


def _constraint_base(op: str, v1: Value, v2: Value) -> TruthValue:
    if op == "equal":
        if v1 is UNKNOWN or v2 is UNKNOWN:
            return U
        return T if v1 == v2 else F
    if op == "in":
        return _membership(v1, v2)
    if op == "contains":
        return _membership(v2, v1)
    if op == "supseteq":
        return _subset(v2, v1)
    if op == "subseteq":
        return _subset(v1, v2)
    raise ModelError(f"unknown constraint operator: {op!r}")


def _all_true(values) -> bool:
    return all(v is T for v in values)


def satisfies(cm: ClassModel, om: ObjectModel, t: SraTuple, rule: Rule) -> bool:
    """True iff every condition and constraint evaluates to exactly T and
    the types and action match; an unknown verdict never grants."""
    if t.action not in rule.actions:
        return False
    if om.get(t.subject).type != rule.subject_type:
        return False
    if om.get(t.resource).type != rule.resource_type:
        return False
    return (
        _all_true(tval_condition(cm, om, t.subject, ac) for ac in rule.subject_condition)
        and _all_true(tval_condition(cm, om, t.resource, ac) for ac in rule.resource_condition)
        and _all_true(tval_constraint(cm, om, t.subject, t.resource, c) for c in rule.constraint)
    )


def rule_meaning(cm: ClassModel, om: ObjectModel, rule: Rule) -> frozenset[SraTuple]:
    """The authorizations ``rule`` grants: every typed subject/resource pair
    on which all its atomics are exactly T, with each of its actions.

    Decodes :func:`rule_plane` into tuples.  Agrees with :func:`satisfies`
    on every tuple.
    """
    return plane_tuples(
        om, rule.subject_type, rule.resource_type, rule_plane(cm, om, rule), rule.actions
    )
