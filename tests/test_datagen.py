import statistics

import pytest

from rebac_miner.datagen import (
    FieldClass,
    builtin_spec,
    generate,
    inject_unknowns,
    unknown_fraction,
)
from rebac_miner.model import (
    UNKNOWN,
    Policy,
    meaning,
    validate_object_model,
    validate_rule,
)
from tests.conftest import running_example


class TestGenerate:
    def test_deterministic(self):
        spec = builtin_spec("univ-mini")
        om1, acl1 = generate(spec, 3, seed=11)
        om2, acl2 = generate(spec, 3, seed=11)
        assert [o for o in om1.objects()] == [o for o in om2.objects()]
        assert acl1.au == acl2.au

    def test_different_seeds_differ(self):
        spec = builtin_spec("org-chart")
        om1, _ = generate(spec, 3, seed=1)
        om2, _ = generate(spec, 3, seed=2)
        assert [o for o in om1.objects()] != [o for o in om2.objects()]

    def test_au_is_ground_truth_meaning(self):
        spec = builtin_spec("org-chart")
        om, acl = generate(spec, 3, seed=5)
        policy = Policy(spec.class_model, om, spec.actions, spec.rules)
        assert acl.au == meaning(policy)

    def test_models_validate(self):
        for name in ("univ-mini", "org-chart"):
            spec = builtin_spec(name)
            om, _ = generate(spec, 4, seed=9)
            validate_object_model(spec.class_model, om)
            for rule in spec.rules:
                validate_rule(spec.class_model, rule)

    def test_counts_scale_linearly(self):
        spec = builtin_spec("univ-mini")
        small = [len(generate(spec, 2, seed=s)[0].objects_of("Student")) for s in range(25)]
        big = [len(generate(spec, 4, seed=s)[0].objects_of("Student")) for s in range(25)]
        assert statistics.mean(big) == pytest.approx(2 * statistics.mean(small), rel=0.3)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            generate(builtin_spec("univ-mini"), 0, seed=1)

    def test_unknown_spec_name(self):
        with pytest.raises(ValueError):
            builtin_spec("nope")


class TestInjectUnknowns:
    def test_s_zero_is_identity(self):
        spec = builtin_spec("org-chart")
        om, _ = generate(spec, 3, seed=7)
        assert inject_unknowns(om, spec, 0, seed=7) is om

    def test_non_finite_scaling_factor_rejected(self):
        spec = builtin_spec("org-chart")
        om, _ = generate(spec, 3, seed=7)
        for s in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                inject_unknowns(om, spec, s, seed=7)

    def test_deterministic(self):
        spec = builtin_spec("org-chart")
        om, _ = generate(spec, 3, seed=7)
        a = inject_unknowns(om, spec, 2, seed=13)
        b = inject_unknowns(om, spec, 2, seed=13)
        assert [o for o in a.objects()] == [o for o in b.objects()]

    def test_only_replaces_with_unknown(self):
        spec = builtin_spec("org-chart")
        om, _ = generate(spec, 4, seed=3)
        degraded = inject_unknowns(om, spec, 3, seed=3)
        assert len(om) == len(degraded)
        for before, after in zip(om.objects(), degraded.objects()):
            assert before.id == after.id and before.type == after.type
            for name, value in before.fields.items():
                got = after.fields[name]
                assert got == value or got is UNKNOWN

    def test_required_fields_untouched(self):
        spec = builtin_spec("org-chart")
        assert spec.fields[("Task", "urgent")].field_class is FieldClass.REQUIRED
        for seed in range(10):
            om, _ = generate(spec, 4, seed=seed)
            degraded = inject_unknowns(om, spec, 3, seed=seed)
            for obj in degraded.objects_of("Task"):
                assert obj.fields["urgent"] is not UNKNOWN

    def test_many_fields_replaced_wholesale(self):
        spec = builtin_spec("org-chart")
        found_unknown_set_field = False
        for seed in range(10):
            om, _ = generate(spec, 4, seed=seed)
            degraded = inject_unknowns(om, spec, 3, seed=seed)
            for obj in degraded.objects():
                for value in obj.fields.values():
                    if isinstance(value, frozenset):
                        assert UNKNOWN not in value
                    elif value is UNKNOWN:
                        found_unknown_set_field = True
        assert found_unknown_set_field

    def test_au_unchanged_by_injection(self):
        spec = builtin_spec("univ-mini")
        om, acl = generate(spec, 3, seed=21)
        degraded = inject_unknowns(om, spec, 3, seed=21)
        # The authorization set was computed before degradation and stays
        # the ground truth; re-evaluating over the degraded model shrinks.
        policy = Policy(spec.class_model, degraded, spec.actions, spec.rules)
        assert meaning(policy) <= acl.au

    def test_fraction_scales_with_s(self):
        spec = builtin_spec("org-chart")
        means = {}
        for s in (1, 2, 3):
            fractions = []
            for seed in range(20):
                om, _ = generate(spec, 5, seed=seed)
                fractions.append(unknown_fraction(inject_unknowns(om, spec, s, seed=seed)))
            means[s] = statistics.mean(fractions)
        assert means[1] < means[2] < means[3]
        assert 0.015 <= means[1] <= 0.05


class TestRunningExample:
    def test_rules_reproduce_au(self):
        acl, rules = running_example()
        policy = Policy(acl.class_model, acl.object_model, acl.actions, rules)
        assert meaning(policy) == acl.au

    def test_validates(self):
        acl, _ = running_example()
        validate_object_model(acl.class_model, acl.object_model)
