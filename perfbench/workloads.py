"""The benchmark's workloads: experiment configs generated from a seed.

Each workload is built so that a different layer of rulebench does most of
the work. The shape (rules, lengths, agents, sizes) is fixed here rather than
read from ``configs/``, so a change to the shipped configs cannot move the
benchmark.

The benchmark seed is each config's ``base_seed``: it draws every episode's
initial tape and every agent's random stream. The split is part of the
shape (``SPLIT_SEED``), so the work per run changes by only a few percent
from seed to seed (episodes that reach their goal early end early).

``DEFAULT_SEED`` is the seed the output digests in ``PINNED_DIGESTS`` were
taken at.
"""

from __future__ import annotations

import os
import sys

DEFAULT_SEED = 2024  # configs/desk.json's base_seed
SPLIT_SEED = 3  # configs/desk.json's split_seed

# SHA-256 of episodes.jsonl at DEFAULT_SEED; a mismatch fails the run.
PINNED_DIGESTS = {
    "desk": "0a792dac059076f79ce496cb63e7bccafbef1037cb1374252d4465a7e0bd954f",
    "bulk": "4ffd9a18c94b43fd59ef23623815d1732861df95c7ab52d1f633eca459f3fbe6",
}

# `rulebench report --mode` for each workload's logs: bulk is an in-distribution run.
REPORT_MODE = {"desk": "ood", "bulk": "id"}

DESK_RULES = [30, 54, 60, 90, 105, 110, 122, 126, 150, 182, 204, 225, 240]


def _desk(seed: int) -> dict:
    """configs/desk.json's shape with 5 episodes per task instead of 30.

    Six agent kinds, L=8, 8 hypothesis rules with exact mixture. The only
    workload with a thread pool, sized to the cores there are (at most 2).
    """
    planner = {"plan_horizon": 4, "rollout_budget": 64}
    belief = dict(planner, exact_mixture=True)
    return {
        "name": "desk",
        "split": {
            "protocol": "holdout_rule",
            "candidate_rules": DESK_RULES,
            "split_seed": SPLIT_SEED,
            "n_train_tasks": 8,
            "n_test_tasks": 5,
            "train_fraction": 0.6154,
            "train_lengths": [8],
            "test_lengths": [8],
            "horizon": 16,
        },
        "agents": [
            {"kind": "random"},
            dict(planner, kind="oracle_mpc"),
            dict(belief, kind="belief_mpc"),
            dict(belief, kind="belief_mpc_ig", ig_weight=0.5),
            dict(belief, kind="fallback_mpc", entropy_threshold=1.0),
            {"kind": "tabular_q", "q_learning_rate": 0.2, "q_discount": 0.95, "q_exploration": 0.1},
        ],
        "episodes_per_task": 5,
        "base_seed": seed,
        "parallelism": min(2, os.cpu_count() or 1),
    }


def _bulk(seed: int) -> dict:
    """In-distribution episodes with no planning: loop, serialization, log writes, bridge.

    The bridge agent serves ``random`` from a child process started with this
    interpreter; it inherits the run process's environment, so its import path too.
    """
    serve = [sys.executable, "-m", "rulebench.cli", "bridge-serve", "random"]
    return {
        "name": "bulk",
        "split": {
            "protocol": "id",
            "candidate_rules": DESK_RULES[:8],
            "split_seed": SPLIT_SEED,
            "n_train_tasks": 8,
            "n_test_tasks": 8,
            "train_lengths": [12],
            "test_lengths": [12],
            "horizon": 32,
        },
        "agents": [
            {"kind": "random"},
            {"kind": "tabular_q"},
            {"kind": "bridge", "bridge_command": serve},
        ],
        "episodes_per_task": 32,
        "base_seed": seed,
        "parallelism": 1,
    }


WORKLOADS = {"desk": _desk, "bulk": _bulk}


def make_config(workload: str, seed: int, output_dir: str) -> dict:
    """The experiment config of ``workload`` at ``seed``, writing to ``output_dir``."""
    config = WORKLOADS[workload](seed)
    config["output_dir"] = output_dir
    return config
