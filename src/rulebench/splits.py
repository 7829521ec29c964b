"""Deterministic train/test protocol splits over the rule space.

Three protocols:

* ``id`` — train and test tasks draw rules from the same set,
* ``holdout_rule`` — the candidate set is partitioned into disjoint train and
  test rule sets,
* ``holdout_length`` — rules are shared but tape lengths differ between
  train and test.

Splits are pure functions of their spec. The candidate set is shuffled with
an explicit Fisher-Yates pass driven by a PCG64 stream seeded from
``split_seed`` (see :mod:`rulebench.seeding`), task ``i`` of a side takes the
side's rules round-robin, and task seeds are derived by hashing
``(split_seed, side, i)`` — so splits are reproducible bit-for-bit and
adding tasks never reshuffles existing ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import ca
from .env import TaskSpec, make_target
from .codec import from_json, to_json
from .errors import ConfigError
from .seeding import derive_seed, make_rng

__all__ = [
    "PROTOCOLS",
    "Split",
    "SplitReport",
    "SplitSpec",
    "load_split_manifest",
    "make_split",
    "save_split_manifest",
    "split_from_manifest",
    "verify_split",
]

PROTOCOLS = ("id", "holdout_rule", "holdout_length")


@dataclass(frozen=True)
class SplitSpec:
    protocol: str
    split_seed: int
    n_train_tasks: int
    n_test_tasks: int
    candidate_rules: tuple[int, ...] = tuple(range(256))  # default: every elementary rule
    train_fraction: float = 0.5
    train_lengths: tuple[int, ...] = (16,)
    test_lengths: tuple[int, ...] = (16,)
    horizon: int = 32

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if not self.candidate_rules:
            raise ConfigError("candidate_rules must be non-empty")
        if len(set(self.candidate_rules)) != len(self.candidate_rules):
            raise ConfigError("candidate_rules must not repeat")
        for rule in self.candidate_rules:
            ca.decode_rule(rule)
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.protocol == "holdout_rule" and len(self.candidate_rules) < 2:
            raise ConfigError("holdout_rule needs at least 2 candidate rules")
        for name, lengths in (("train_lengths", self.train_lengths), ("test_lengths", self.test_lengths)):
            if not lengths or not all(ca.MIN_LENGTH <= length <= ca.MAX_LENGTH for length in lengths):
                raise ConfigError(f"{name} must be non-empty, each in [{ca.MIN_LENGTH}, {ca.MAX_LENGTH}], got {lengths}")
        if self.protocol == "holdout_length":
            shared = set(self.train_lengths) & set(self.test_lengths)
            if shared:
                raise ConfigError(f"holdout_length requires disjoint length sets; shared: {sorted(shared)}")
        if self.n_train_tasks < 1 or self.n_test_tasks < 1:
            raise ConfigError("task counts must be >= 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")


@dataclass(frozen=True)
class Split:
    """A generated split. Its JSON form is the split manifest: spec, explicit rule lists, full task lists."""

    spec: SplitSpec
    train_rules: tuple[int, ...]
    test_rules: tuple[int, ...]
    train_tasks: tuple[TaskSpec, ...]
    test_tasks: tuple[TaskSpec, ...]


@dataclass
class SplitReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def _fisher_yates(items, rng) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        out[i], out[j] = out[j], out[i]
    return out


def _make_tasks(rules, lengths, horizon, split_seed: int, side: str, count: int) -> tuple[TaskSpec, ...]:
    lengths = sorted(lengths)
    tasks = []
    for i in range(count):
        rule = rules[i % len(rules)]
        length = lengths[i % len(lengths)]
        task_seed = derive_seed(split_seed, side, i)
        tasks.append(TaskSpec(rule, length, horizon, make_target(rule, length, task_seed), task_seed))
    return tuple(tasks)


def make_split(spec: SplitSpec) -> Split:
    """Generate the split's rule sets and task lists. Pure in ``spec``."""
    shuffled = _fisher_yates(spec.candidate_rules, make_rng(spec.split_seed, "rule-shuffle"))

    if spec.protocol == "holdout_rule":
        k = round(spec.train_fraction * len(shuffled))
        k = max(1, min(len(shuffled) - 1, k))
        train_rules, test_rules = tuple(shuffled[:k]), tuple(shuffled[k:])
    else:
        # id shares one rule set; holdout_length holds rules fixed and varies length
        train_rules = test_rules = tuple(shuffled)

    train_tasks = _make_tasks(train_rules, spec.train_lengths, spec.horizon, spec.split_seed, "train", spec.n_train_tasks)
    test_tasks = _make_tasks(test_rules, spec.test_lengths, spec.horizon, spec.split_seed, "test", spec.n_test_tasks)
    return Split(spec, train_rules, test_rules, train_tasks, test_tasks)


def verify_split(train: tuple[TaskSpec, ...], test: tuple[TaskSpec, ...], spec: SplitSpec) -> SplitReport:
    """Check the protocol's validity properties; violations are returned, not raised."""
    violations: list[str] = []
    train_rules = {t.rule for t in train}
    test_rules = {t.rule for t in test}

    if not train or not test:
        violations.append("both task lists must be non-empty")
    if len(train) != spec.n_train_tasks:
        violations.append(f"expected {spec.n_train_tasks} train tasks, found {len(train)}")
    if len(test) != spec.n_test_tasks:
        violations.append(f"expected {spec.n_test_tasks} test tasks, found {len(test)}")

    known = set(spec.candidate_rules)
    for label, rules in (("train", train_rules), ("test", test_rules)):
        stray = rules - known
        if stray:
            violations.append(f"{label} rules {sorted(stray)} are not in the candidate set")

    if spec.protocol == "holdout_rule":
        for rule in sorted(train_rules & test_rules):
            violations.append(f"rule {rule} appears in both train and test")
    elif spec.protocol == "id":
        for rule in sorted(test_rules - train_rules):
            violations.append(f"test rule {rule} does not appear in the train rule set")
    elif spec.protocol == "holdout_length":
        shared = {t.length for t in train} & {t.length for t in test}
        for length in sorted(shared):
            violations.append(f"length {length} appears in both train and test")

    return SplitReport(violations)


def split_from_manifest(data: dict[str, Any]) -> Split:
    """The split a manifest records, refused unless its own spec generates exactly it.

    Splits are pure in their spec, so the split is regenerated from ``spec``
    and every other manifest field must equal the regenerated one. That keeps
    a manifest from leaking test rules into ``train_rules`` (the belief
    agents' world model) or altering a task. The error names the first field
    that differs.
    """
    if not isinstance(data, dict) or "spec" not in data:
        raise ConfigError("split verification failed: a split manifest is a JSON object with a 'spec'")
    split = make_split(from_json(SplitSpec, data["spec"], "spec"))
    expected = to_json(split)
    for field in [*expected, *data]:
        if field != "spec" and data.get(field) != expected.get(field):
            raise ConfigError(f"split verification failed: manifest field {field!r} differs "
                              f"from the split its spec generates")
    return split


def save_split_manifest(split: Split, path) -> None:
    Path(path).write_text(json.dumps(to_json(split), indent=2, sort_keys=True) + "\n")


def load_split_manifest(path) -> Split:
    """The split of a split manifest, or of a run manifest, which records it under ``split``."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "spec" not in data and "split" in data:
        data = data["split"]
    return split_from_manifest(data)
