"""Experiment orchestration: seeded runs, logs, reports, theory checks.

A run executes every (agent, test task, episode) cell of its config. Cell
seeds are ``derive_seed(base_seed, agent_name, task_index, episode_index)``,
so adding an agent or extending a run never perturbs existing cells. Each
agent config gets one instance, which plays its cells in (task index,
episode index) order; agents that learn across episodes (tabular Q) rely on
that order, the others reset in ``begin_episode``. Agent configs are
independent units, so the config's ``parallelism`` is the number of worker
processes that play them, capped by the CPU count and the number of agent
configs. With one worker the agents run one after another in this process,
and the program starts no threads. With more, a process pool forks the
workers (POSIX only, like the bridge's pipes; forking spares each worker the
numpy import), and the pool's management thread and task-queue feeder are
the only threads. Either way the results are concatenated in agent-name
order, so the logs are byte-identical at any ``parallelism``, and an
exception other than ``AgentError`` in any agent aborts the run: nothing is
renamed into place and the temporary log is removed. Threads would not help:
the work is CPU-bound Python and numpy, and they contend for the interpreter
lock.

The output directory is made before the first episode, so a path that cannot
be a directory fails the run before any work. Each episode becomes its final
log line and its seed-table entry where it was played (in the worker, under
the pool), so both are built in their final order with no sort, and no
record outlives its episode. ``run_experiment`` then publishes in one
sequence: it opens ``episodes.jsonl.tmp`` line-buffered; writes each agent's
lines as soon as it and every agent before it by name are done, and extends
the seed table (so a run holds at most the lines of agents that are done but
not yet written, never the run's transcripts); builds the manifest once and
writes ``manifest.json.tmp``; then renames the log and the manifest into
place. Any exception before the renames removes both temporary files, so a
run that fails leaves the previous pair (or none). A run killed outright can
leave ``episodes.jsonl.tmp``, which the next run in the directory replaces.
Only a crash or a failed rename between the two renames can leave a new log
beside the previous manifest:

* ``episodes.jsonl`` — one JSON record per episode (the episode's fields plus
  its ``task_index``/``episode_index`` coordinates), in (agent, task index,
  episode index) order, compact separators, sorted keys.
* ``manifest.json`` — config snapshot, split manifest, the full per-cell seed
  table with per-cell status, package version, and timestamps.

Belief-family agents hypothesize over the split's *train* rules: that is the
world model they bring to evaluation, and it is exactly what heldout-rule
protocols take away from them.
"""

from __future__ import annotations

import json
import os
from contextlib import closing
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Any

from . import __version__
from .agents import MAX_Q_LENGTH, AgentConfig, make_agent
from .belief import Belief, entropy, info_gain_entropy, info_gain_kl, info_gain_mi
from .ca import Tape
from .codec import from_json, parse_json, read_json, to_json
from .env import Action, run_episode
from .errors import AgentError, ConfigError
from .seeding import derive_seed, make_rng
from .splits import Split, SplitSpec, make_split, verify_split
from .stats import Interval, SummaryStats, ci_normal, drop_ci, format_gap_table, format_summary_table, summarize

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "TheoryReport",
    "cell_seed",
    "gap_report",
    "load_config",
    "load_run",
    "render_report",
    "run_experiment",
    "summary_report",
    "verify_theory",
]

EPISODE_LOG = "episodes.jsonl"
MANIFEST_FILE = "manifest.json"
THEORY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    split: SplitSpec
    agents: tuple[AgentConfig, ...]
    episodes_per_task: int
    base_seed: int
    output_dir: str
    parallelism: int = 1  # worker processes playing agent configs, capped by CPUs and agent configs

    def __post_init__(self) -> None:
        if self.episodes_per_task < 1:
            raise ConfigError("episodes_per_task must be >= 1")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        names = [a.name for a in self.agents]
        if not names:
            raise ConfigError("at least one agent is required")
        if len(set(names)) != len(names):
            raise ConfigError(f"agent names must be unique, got {names}")
        longest = max(self.split.test_lengths)
        for i, agent in enumerate(self.agents):
            if agent.kind == "tabular_q" and longest > MAX_Q_LENGTH:
                raise ConfigError(f"agents[{i}]: tabular_q supports lengths up to {MAX_Q_LENGTH}, "
                                  f"got {longest} in split.test_lengths")


def load_config(path) -> ExperimentConfig:
    """Read a config file; unknown, missing or wrong-typed keys are errors that name their path."""
    return from_json(ExperimentConfig, read_json(path))


@dataclass
class RunManifest:
    """What a run records beside its log; ``config`` and ``split`` are JSON snapshots."""

    name: str
    config: dict[str, Any]
    split: dict[str, Any]
    seed_table: list[dict[str, Any]]
    artifact_version: str
    started_at: str
    finished_at: str


def cell_seed(base_seed: int, agent_name: str, task_index: int, episode_index: int) -> int:
    return derive_seed(base_seed, agent_name, task_index, episode_index)


def _play(agent_cfg: AgentConfig, split: Split, base_seed: int, episodes_per_task: int):
    """One agent config's (log lines, seed-table entries), its cells played in (task, episode) order.

    Each episode becomes its final log line as soon as it ends, so no record outlives it.
    An :class:`AgentError` fails its cell only; any other exception aborts the run.
    """
    lines = []
    seed_table = []
    agent = make_agent(agent_cfg, split.train_rules)
    try:
        for task_index, task in enumerate(split.test_tasks):
            for episode_index in range(episodes_per_task):
                seed = cell_seed(base_seed, agent_cfg.name, task_index, episode_index)
                entry = {"agent": agent_cfg.name, "task_index": task_index, "episode_index": episode_index,
                         "seed": seed, "status": "ok"}
                try:
                    result = run_episode(task, agent, seed)
                except AgentError as exc:
                    entry["status"] = f"failed: {exc}"
                else:
                    record = dict(result.to_record(), task_index=task_index, episode_index=episode_index)
                    lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
                seed_table.append(entry)
    finally:
        agent.close()
    return lines, seed_table


def _played(play, agents: list[AgentConfig], workers: int):
    """Each agent's ``play`` result in the order of ``agents``, as soon as it and those before it are done."""
    if workers == 1:
        yield from map(play, agents)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Fork, because a spawned worker imports numpy again (~0.2 s). The pool forks all
    # its workers before it starts its own threads, and the program has no others.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        yield from pool.map(play, agents)


def run_experiment(config: ExperimentConfig, split: Split | None = None) -> RunManifest:
    """Execute all cells, write the log plus manifest, return the manifest.

    ``split`` overrides generation from ``config.split`` (e.g. a split loaded
    from an audited manifest), and the manifest records its spec as the
    config's. Either way the split must pass verification, and the output
    directory must be made, or the run aborts before any episode.
    """
    started = datetime.now(timezone.utc).isoformat()
    if split is None:
        split = make_split(config.split)
    else:
        config = replace(config, split=split.spec)
    report = verify_split(split.train_tasks, split.test_tasks, split.spec, split.train_rules)
    if not report.ok:
        raise ConfigError("split verification failed: " + "; ".join(report.violations))
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from None

    agents = sorted(config.agents, key=lambda a: a.name)
    play = partial(_play, split=split, base_seed=config.base_seed, episodes_per_task=config.episodes_per_task)
    workers = min(config.parallelism, os.cpu_count() or 1, len(agents))
    log_path, manifest_path = out_dir / EPISODE_LOG, out_dir / MANIFEST_FILE
    log_tmp, manifest_tmp = (path.with_name(path.name + ".tmp") for path in (log_path, manifest_path))
    seed_table: list[dict[str, Any]] = []
    try:
        # Line-buffered, so the file holds every line written. The pool is shut down
        # before the log is closed, also when a write fails.
        with log_tmp.open("w", buffering=1) as log, closing(_played(play, agents, workers)) as played:
            for lines, entries in played:
                log.writelines(lines)
                seed_table += entries
        manifest = RunManifest(name=config.name, config=to_json(config), split=to_json(split),
                               seed_table=seed_table, artifact_version=__version__, started_at=started,
                               finished_at=datetime.now(timezone.utc).isoformat())
        manifest_tmp.write_text(json.dumps(to_json(manifest), indent=2, sort_keys=True) + "\n")
        os.replace(log_tmp, log_path)
        os.replace(manifest_tmp, manifest_path)
    except BaseException:
        log_tmp.unlink(missing_ok=True)
        manifest_tmp.unlink(missing_ok=True)
        raise
    return manifest


_REPORT_RECORD_KEYS = ("agent", "success", "task_index")  # what reports read of each log record


def load_run(run_dir) -> tuple[RunManifest, list[dict[str, Any]]]:
    """A run's manifest and log records, refused with a :class:`ConfigError` naming the file (and
    line) that is not JSON, or the first manifest field or record key that reports need and do not
    find, or a ``success`` that is not a number."""
    run_dir = Path(run_dir)
    manifest = from_json(RunManifest, read_json(run_dir / MANIFEST_FILE), "manifest")
    spec = manifest.split.get("spec")
    if not isinstance(spec, dict) or "protocol" not in spec:
        raise ConfigError("missing config key manifest.split.spec.protocol")
    log = run_dir / EPISODE_LOG
    records = []
    for n, line in enumerate(log.read_text().splitlines(), 1):
        if not line:
            continue
        record = parse_json(line, f"{log} line {n}")
        for key in _REPORT_RECORD_KEYS:
            if not isinstance(record, dict) or key not in record:
                raise ConfigError(f"missing key {key} in {log} line {n}")
        from_json(float, record["success"], f"success in {log} line {n}")
        records.append(record)
    return manifest, records


# --- reports ----------------------------------------------------------------

def summary_report(records) -> list[tuple[str, SummaryStats, Interval]]:
    """Per-agent success summary with clipped 95% intervals, best agent first."""
    return [(agent, stats, ci_normal(stats, clip=True)) for agent, stats in summarize(records)]


def gap_report(id_records, ood_records) -> tuple[list[tuple[str, float, float, float, Interval]], list[str]]:
    """Per-agent drop (id mean - ood mean) with difference intervals.

    Agents present on only one side are omitted, each with a warning.
    """
    id_stats = dict(summarize(id_records))
    ood_stats = dict(summarize(ood_records))
    warnings = []
    rows = []
    for agent in sorted(set(id_stats) | set(ood_stats)):
        if agent not in id_stats or agent not in ood_stats:
            side = "id" if agent not in id_stats else "ood"
            warnings.append(f"agent {agent!r} missing from the {side} logs; omitted from the gap table")
            continue
        drop, interval = drop_ci(id_stats[agent], ood_stats[agent])
        rows.append((agent, id_stats[agent].mean, ood_stats[agent].mean, drop, interval))
    return sorted(rows, key=lambda row: (-row[3], row[0])), warnings


def _discover_runs(log_dir) -> list[tuple[RunManifest, list[dict[str, Any]]]]:
    log_dir = Path(log_dir)
    if not log_dir.is_dir():
        raise ConfigError(f"{log_dir} is not a directory")
    if (log_dir / EPISODE_LOG).exists():
        return [load_run(log_dir)]
    runs = []
    for child in sorted(log_dir.iterdir()):
        if child.is_dir() and (child / EPISODE_LOG).exists():
            runs.append(load_run(child))
    return runs


def render_report(log_dir, mode: str, fmt: str = "text") -> tuple[str, list[str]]:
    """Assemble a report from a run directory (or a directory of runs).

    ``id``/``ood`` summarize success per agent; ``gap`` pairs one in-distribution
    run with one holdout run found under ``log_dir`` and reports drops.
    """
    if mode not in ("id", "ood", "gap"):
        raise ConfigError(f"mode must be one of id/ood/gap, got {mode!r}")
    table = format_gap_table if mode == "gap" else format_summary_table
    runs = [(manifest.name, manifest.split["spec"]["protocol"], rows) for manifest, rows in _discover_runs(log_dir)]
    if not runs:
        return table([], fmt), [f"no runs found under {log_dir}"]

    warnings: list[str] = []
    if mode != "gap":
        records = []
        for name, protocol, rows in runs:
            if (protocol == "id") != (mode == "id"):
                warnings.append(f"run {name!r} has protocol {protocol!r} in an {mode} report")
            records.extend(rows)
        if not records:
            warnings.append("no episode records found")
        return table(summary_report(records), fmt), warnings

    id_records = [r for _, protocol, rows in runs if protocol == "id" for r in rows]
    ood_records = [r for _, protocol, rows in runs if protocol != "id" for r in rows]
    if not id_records:
        warnings.append("no in-distribution run found for the gap report")
    if not ood_records:
        warnings.append("no holdout run found for the gap report")
    rows, gap_warnings = gap_report(id_records, ood_records)
    return table(rows, fmt), warnings + gap_warnings


# --- identity verification ---------------------------------------------------

@dataclass
class TheoryReport:
    """Outcome of the randomized information-gain identity suite."""

    trials: int
    max_deviation: float
    tolerance: float
    violations: int
    passed: bool

    def to_text(self) -> str:
        if self.trials == 0:
            return f"verify-theory: 0 trials (vacuous pass), tolerance={self.tolerance:g}"
        status = "PASS" if self.passed else "FAIL"
        return (
            f"verify-theory: trials={self.trials} max_deviation={self.max_deviation:.3e} "
            f"tolerance={self.tolerance:g} violations={self.violations} {status}"
        )


def verify_theory(trials: int, seed: int = 0, tolerance: float = THEORY_TOLERANCE) -> TheoryReport:
    """Check the three information-gain computations agree on random instances.

    Each trial draws a random rule subset (size <= 16), a random belief over it
    (sometimes with zero-mass entries), a random tape (length 3-8) and action,
    and compares all three computations pairwise; also enforces nonnegativity
    and the entropy upper bound.
    """
    if trials < 0:
        raise ConfigError("trials must be >= 0")
    rng = make_rng(seed, "verify-theory")
    max_dev = 0.0
    violations = 0
    for _ in range(trials):
        length = int(rng.integers(3, 9))
        k = int(rng.integers(1, 17))
        support = tuple(int(r) for r in rng.choice(256, size=k, replace=False))
        weights = rng.random(k)
        if k > 1 and rng.random() < 0.4:
            dead = rng.random(k) < 0.3
            dead[int(rng.integers(0, k))] = False  # keep at least one alive
            weights[dead] = 0.0
        belief = Belief.from_weights(support, weights)
        state = Tape(int(rng.integers(0, 1 << length)), length)
        action = Action.from_order_index(int(rng.integers(0, length + 1)), length)

        ig_e = info_gain_entropy(belief, state, action)
        ig_m = info_gain_mi(belief, state, action)
        ig_k = info_gain_kl(belief, state, action)
        dev = max(abs(ig_e - ig_m), abs(ig_e - ig_k), abs(ig_m - ig_k))
        max_dev = max(max_dev, dev)
        if dev > tolerance:
            violations += 1
        if ig_e < -1e-12 or ig_e > entropy(belief) + 1e-12:
            violations += 1
    return TheoryReport(trials, max_dev, tolerance, violations, passed=violations == 0)
