"""Policy comparison: Jaccard, syntactic similarity, semantic similarity.

Syntactic similarity is built bottom-up from atomic conditions through
condition sets and rules to policies.  Two condition sets score the
average, over the paths either one constrains, of the best match between
their conditions on that path; the policy score averages, over the first
policy's rules, each rule's best match in the second policy (and is
therefore deliberately asymmetric).  Every score lies in [0, 1].
Semantic similarity is the Jaccard similarity of the granted-authorization
sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from rebac_miner.model import (
    AtomicCondition,
    Policy,
    Rule,
    meaning,
    policy_wsc,
)


def jaccard(s1, s2) -> float:
    """Set Jaccard, extended so two equal values score 1 and J(0,0)=1."""
    if isinstance(s1, (set, frozenset)) or isinstance(s2, (set, frozenset)):
        s1, s2 = frozenset(s1), frozenset(s2)
        union = s1 | s2
        if not union:
            return 1.0
        return len(s1 & s2) / len(union)
    return 1.0 if s1 == s2 else 0.0


def syn_sim_atomic_condition(ac1: AtomicCondition, ac2: AtomicCondition) -> float:
    """Zero on a path mismatch, else the average of sign, path, and value
    similarity (operators need no term: the path fixes the operator)."""
    if ac1.path != ac2.path:
        return 0.0
    sign = jaccard(ac1.negated, ac2.negated)
    v1 = ac1.value if isinstance(ac1.value, frozenset) else frozenset({ac1.value})
    v2 = ac2.value if isinstance(ac2.value, frozenset) else frozenset({ac2.value})
    return (sign + 1.0 + jaccard(v1, v2)) / 3.0


def syn_condition_sets(s1, s2) -> float:
    """Average over the union of paths of each path's best-matching pair
    of atomic conditions, one from each set (0 when one set has no
    condition on the path); 1 for two empty sets."""
    s1, s2 = tuple(s1), tuple(s2)
    paths = {ac.path for ac in s1} | {ac.path for ac in s2}
    if not paths:
        return 1.0
    total = sum(
        max(
            (syn_sim_atomic_condition(a, b)
             for a in s1 if a.path == path
             for b in s2 if b.path == path),
            default=0.0,
        )
        for path in paths
    )
    return total / len(paths)


def syn_rule(r1: Rule, r2: Rule) -> float:
    parts = (
        jaccard(r1.subject_type, r2.subject_type),
        syn_condition_sets(r1.subject_condition, r2.subject_condition),
        jaccard(r1.resource_type, r2.resource_type),
        syn_condition_sets(r1.resource_condition, r2.resource_condition),
        jaccard(r1.constraint, r2.constraint),
        jaccard(r1.actions, r2.actions),
    )
    return sum(parts) / len(parts)


def syn_policy(p1: Policy, p2: Policy) -> float:
    """Average over p1's rules of the best-matching rule in p2."""
    if not p1.rules:
        return 1.0 if not p2.rules else 0.0
    if not p2.rules:
        return 0.0
    return sum(max(syn_rule(r1, r2) for r2 in p2.rules) for r1 in p1.rules) / len(
        p1.rules
    )


def semantic_similarity(p1: Policy, p2: Policy) -> float:
    return jaccard(meaning(p1), meaning(p2))


@dataclass(frozen=True)
class SimilarityReport:
    syntactic: float
    semantic: float
    per_rule_best_match: tuple[tuple[str, str, float], ...]
    wsc_mined: int
    wsc_reference: int

    def __post_init__(self):
        for score in (self.syntactic, self.semantic):
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"similarity out of range: {score}")


def compare_policies(mined: Policy, reference: Policy) -> SimilarityReport:
    """Score a mined policy against a (pre-simplified) reference policy."""
    matches = []
    for rule in mined.rules:
        if reference.rules:
            best = max(reference.rules, key=lambda r: syn_rule(rule, r))
            matches.append((rule.text(), best.text(), syn_rule(rule, best)))
        else:
            matches.append((rule.text(), "", 0.0))
    return SimilarityReport(
        syntactic=syn_policy(mined, reference),
        semantic=semantic_similarity(mined, reference),
        per_rule_best_match=tuple(matches),
        wsc_mined=policy_wsc(mined.rules),
        wsc_reference=policy_wsc(reference.rules),
    )
