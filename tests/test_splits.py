import dataclasses

import pytest

from rulebench import ConfigError, SplitSpec, make_split, verify_split
from rulebench.codec import from_json, to_json
from rulebench.splits import Split, load_split_manifest, save_split_manifest, split_from_manifest


def spec_with(**overrides) -> SplitSpec:
    base = dict(
        protocol="holdout_rule",
        candidate_rules=(0, 90, 110, 204),
        split_seed=7,
        n_train_tasks=4,
        n_test_tasks=4,
        train_fraction=0.5,
        train_lengths=(8,),
        test_lengths=(8,),
        horizon=16,
    )
    base.update(overrides)
    return SplitSpec(**base)


class TestMakeSplit:
    def test_holdout_rule_partition_sizes(self):
        split = make_split(spec_with())
        assert len(split.train_rules) == 2 and len(split.test_rules) == 2
        assert not set(split.train_rules) & set(split.test_rules)
        assert set(split.train_rules) | set(split.test_rules) == {0, 90, 110, 204}

    def test_id_test_rules_within_train_rules(self):
        split = make_split(spec_with(protocol="id"))
        train_rules = {t.rule for t in split.train_tasks}
        assert all(t.rule in train_rules for t in split.test_tasks)

    def test_deterministic_bit_for_bit(self):
        spec = spec_with(n_train_tasks=6, n_test_tasks=3)
        assert make_split(spec) == make_split(spec)

    def test_task_counts(self):
        split = make_split(spec_with(n_train_tasks=5, n_test_tasks=3))
        assert len(split.train_tasks) == 5 and len(split.test_tasks) == 3

    def test_rules_covered_round_robin(self):
        split = make_split(spec_with(protocol="id", n_test_tasks=8))
        assert {t.rule for t in split.test_tasks} == {0, 90, 110, 204}

    def test_holdout_length_varies_length_not_rules(self):
        spec = spec_with(protocol="holdout_length", train_lengths=(8,), test_lengths=(10, 12))
        split = make_split(spec)
        assert split.train_rules == split.test_rules
        assert {t.length for t in split.train_tasks} == {8}
        assert {t.length for t in split.test_tasks} == {10, 12}

    def test_distinct_task_seeds_across_sides(self):
        split = make_split(spec_with(protocol="id"))
        train_seeds = {t.task_seed for t in split.train_tasks}
        test_seeds = {t.task_seed for t in split.test_tasks}
        assert not train_seeds & test_seeds

    def test_disjointness_over_100_seeds(self):
        for seed in range(100):
            spec = spec_with(candidate_rules=tuple(range(0, 32)), split_seed=seed,
                             train_fraction=0.25, n_train_tasks=8, n_test_tasks=8)
            split = make_split(spec)
            assert not set(split.train_rules) & set(split.test_rules)
            assert verify_split(split.train_tasks, split.test_tasks, spec).ok


class TestSpecValidation:
    def test_candidate_set_too_small(self):
        with pytest.raises(ConfigError):
            spec_with(candidate_rules=(90,))

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(ConfigError):
            spec_with(candidate_rules=(90, 90, 110))

    def test_train_fraction_bounds(self):
        with pytest.raises(ConfigError):
            spec_with(train_fraction=0.0)
        with pytest.raises(ConfigError):
            spec_with(train_fraction=1.0)

    def test_holdout_length_requires_disjoint_lengths(self):
        with pytest.raises(ConfigError):
            spec_with(protocol="holdout_length", train_lengths=(8, 10), test_lengths=(10, 12))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            spec_with(protocol="interpolation")

    def test_length_range_edges(self):
        spec = spec_with(train_lengths=(3,), test_lengths=(64,))
        assert (spec.train_lengths, spec.test_lengths) == ((3,), (64,))
        with pytest.raises(ConfigError, match=r"train_lengths must be non-empty, each in \[3, 64\], got \(2,\)"):
            spec_with(train_lengths=(2,))
        with pytest.raises(ConfigError, match=r"test_lengths must be non-empty, each in \[3, 64\], got \(65,\)"):
            spec_with(test_lengths=(65,))


class TestVerifySplit:
    def test_valid_split_has_no_violations(self):
        spec = spec_with()
        split = make_split(spec)
        assert verify_split(split.train_tasks, split.test_tasks, spec).ok

    def test_shared_rule_named_in_violation(self):
        spec = spec_with()
        split = make_split(spec)
        leaked_rule = split.train_rules[0]
        corrupted = split.test_tasks[:-1] + (
            dataclasses.replace(split.train_tasks[0]),
        )
        report = verify_split(split.train_tasks, corrupted, spec)
        rule_violations = [v for v in report.violations if "both train and test" in v]
        assert len(rule_violations) == 1
        assert str(leaked_rule) in rule_violations[0]

    def test_shared_length_named_in_violation(self):
        spec = spec_with(protocol="holdout_length", train_lengths=(8,), test_lengths=(10,))
        split = make_split(spec)
        corrupted = split.test_tasks[:-1] + (split.train_tasks[0],)
        report = verify_split(split.train_tasks, corrupted, spec)
        assert any("length 8" in v for v in report.violations)


class TestManifest:
    def test_round_trip(self, tmp_path):
        split = make_split(spec_with(n_train_tasks=3, n_test_tasks=2))
        assert split_from_manifest(to_json(split)) == split
        assert from_json(Split, to_json(split)) == split
        path = tmp_path / "split.json"
        save_split_manifest(split, path)
        assert load_split_manifest(path) == split

    def test_manifest_lists_rules_and_tasks_explicitly(self):
        split = make_split(spec_with())
        data = to_json(split)
        assert sorted(data["train_rules"] + data["test_rules"]) == [0, 90, 110, 204]
        assert len(data["train_tasks"]) == 4 and len(data["test_tasks"]) == 4
        assert all(set(t) == {"rule", "length", "horizon", "target", "task_seed"} for t in data["train_tasks"])


class TestManifestRegeneration:
    def test_train_rules_leaking_a_test_rule_are_refused(self):
        split = make_split(spec_with(n_train_tasks=3, n_test_tasks=2))
        data = to_json(split)
        data["train_rules"] = data["train_rules"] + [data["test_rules"][0]]
        # the tasks still pass the protocol checks: only train_rules leaks
        assert verify_split(split.train_tasks, split.test_tasks, split.spec).ok
        with pytest.raises(ConfigError, match="'train_rules'"):
            split_from_manifest(data)

    def test_tampered_target_is_refused(self):
        data = to_json(make_split(spec_with(n_train_tasks=3, n_test_tasks=2)))
        target = data["test_tasks"][1]["target"]
        data["test_tasks"][1]["target"] = ("1" if target[0] == "0" else "0") + target[1:]
        with pytest.raises(ConfigError, match="'test_tasks'"):
            split_from_manifest(data)

    def test_unknown_and_missing_fields_are_named(self):
        data = to_json(make_split(spec_with()))
        with pytest.raises(ConfigError, match="'notes'"):
            split_from_manifest(dict(data, notes="hand-edited"))
        del data["test_rules"]
        with pytest.raises(ConfigError, match="'test_rules'"):
            split_from_manifest(data)

    def test_spec_keys_are_strict(self):
        data = to_json(make_split(spec_with()))
        data["spec"]["horizn"] = 8
        with pytest.raises(ConfigError, match="unknown config key spec.horizn"):
            split_from_manifest(data)
