"""Experiment orchestration: seeded serial runs, logs, reports, theory checks.

A run executes every (agent, test task, episode) cell of its config. Cell
seeds are ``derive_seed(base_seed, agent_name, task_index, episode_index)``,
so adding an agent or extending a run never perturbs existing cells. Each
agent config gets one instance, which plays its cells in canonical order;
agents that learn across episodes (tabular Q) rely on that order, the others
reset in ``begin_episode``. Runs are serial: the work is CPU-bound Python and
numpy, so a thread pool only contends for the interpreter lock. The program
starts no threads; the bridge waits for its replies on the pipe. The config's
``parallelism`` field is still accepted and validated, and has no effect; the
canonically sorted logs are byte-identical at any value.

Outputs per run directory. Both are written to temporary files beside them
first and only then renamed into place, so a run that fails while writing
leaves the previous pair (or none). Only a crash or a failed rename between
the two renames can leave a new log beside the previous manifest:

* ``episodes.jsonl`` — one JSON record per episode (the episode's fields plus
  its ``task_index``/``episode_index`` coordinates), sorted by
  (agent, task index, episode index), compact separators, sorted keys.
* ``manifest.json`` — config snapshot, split manifest, the full per-cell seed
  table with per-cell status, package version, and timestamps.

Belief-family agents hypothesize over the split's *train* rules: that is the
world model they bring to evaluation, and it is exactly what heldout-rule
protocols take away from them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from . import __version__
from .agents import AgentConfig, make_agent
from .belief import Belief, entropy, info_gain_entropy, info_gain_kl, info_gain_mi
from .ca import Tape
from .codec import from_json, to_json
from .env import Action, run_episode
from .errors import AgentError, ConfigError
from .seeding import derive_seed, make_rng
from .splits import Split, SplitSpec, make_split, verify_split
from .stats import Interval, SummaryStats, ci_normal, drop_ci, summarize

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
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.episodes_per_task < 1:
            raise ConfigError("episodes_per_task must be >= 1")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        names = [a.agent_name for a in self.agents]
        if not names:
            raise ConfigError("at least one agent is required")
        if len(set(names)) != len(names):
            raise ConfigError(f"agent names must be unique, got {names}")


def load_config(path) -> ExperimentConfig:
    """Read a config file; unknown, missing or wrong-typed keys are errors that name their path."""
    return from_json(ExperimentConfig, json.loads(Path(path).read_text()))


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


def _execute_cells(agent_cfg: AgentConfig, cells, tasks, base_seed: int, hypothesis_rules):
    """Run one agent instance over an ordered list of (task_index, episode_index) cells."""
    agent = make_agent(agent_cfg, hypothesis_rules)
    out = []
    try:
        for task_index, episode_index in cells:
            seed = cell_seed(base_seed, agent_cfg.agent_name, task_index, episode_index)
            try:
                result = run_episode(tasks[task_index], agent, seed)
                out.append((task_index, episode_index, seed, result, None))
            except AgentError as exc:
                out.append((task_index, episode_index, seed, None, str(exc)))
    finally:
        agent.close()
    return out


def _write_atomic(files: dict[Path, Any]) -> None:
    """Write each path's chunks to a temporary file beside it, then rename all of them into place.

    No path is replaced until every temporary file is complete. A failure while
    writing removes the temporary files, so each path keeps its previous
    content (or stays absent) instead of holding a partial or mismatched file.
    """
    renames = []
    try:
        for path, chunks in files.items():
            tmp = path.with_name(path.name + ".tmp")
            renames.append((tmp, path))
            with tmp.open("w") as fh:
                fh.writelines(chunks)
        for tmp, path in renames:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in renames:
            tmp.unlink(missing_ok=True)
        raise


def run_experiment(config: ExperimentConfig, split: Split | None = None, output_dir=None) -> RunManifest:
    """Execute all cells, write sorted logs plus manifest, return the manifest.

    ``split`` overrides generation from ``config.split`` (e.g. a split loaded
    from an audited manifest); either way the split must pass verification or
    the run aborts before any episode.
    """
    started = datetime.now(timezone.utc).isoformat()
    if split is None:
        split = make_split(config.split)
    report = verify_split(split.train_tasks, split.test_tasks, split.spec)
    if not report.ok:
        raise ConfigError("split verification failed: " + "; ".join(report.violations))

    tasks = split.test_tasks
    cells = [(ti, ei) for ti in range(len(tasks)) for ei in range(config.episodes_per_task)]
    outcomes = [
        (agent_cfg.agent_name, _execute_cells(agent_cfg, cells, tasks, config.base_seed, split.train_rules))
        for agent_cfg in config.agents
    ]

    records = []
    seed_table = []
    for agent_name, cell_results in outcomes:
        for task_index, episode_index, seed, result, error in cell_results:
            entry = {"agent": agent_name, "task_index": task_index, "episode_index": episode_index, "seed": seed}
            entry["status"] = "ok" if error is None else f"failed: {error}"
            seed_table.append(entry)
            if result is not None:
                record = result.to_record()
                record["task_index"] = task_index
                record["episode_index"] = episode_index
                records.append(record)

    records.sort(key=lambda r: (r["agent"], r["task_index"], r["episode_index"]))
    seed_table.sort(key=lambda e: (e["agent"], e["task_index"], e["episode_index"]))

    manifest = RunManifest(
        name=config.name,
        config=to_json(config),
        split=to_json(split),
        seed_table=seed_table,
        artifact_version=__version__,
        started_at=started,
        finished_at=datetime.now(timezone.utc).isoformat(),
    )

    out_dir = Path(output_dir if output_dir is not None else config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic({
        out_dir / EPISODE_LOG: (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n" for record in records),
        out_dir / MANIFEST_FILE: [json.dumps(to_json(manifest), indent=2, sort_keys=True) + "\n"],
    })
    return manifest


_REPORT_RECORD_KEYS = ("agent", "success", "task_index")  # what reports read of each log record


def load_run(run_dir) -> tuple[RunManifest, list[dict[str, Any]]]:
    """A run's manifest and log records, refused with a :class:`ConfigError` naming
    the first manifest field or record key that reports need and do not find."""
    run_dir = Path(run_dir)
    manifest = from_json(RunManifest, json.loads((run_dir / MANIFEST_FILE).read_text()), "manifest")
    spec = manifest.split.get("spec")
    if not isinstance(spec, dict) or "protocol" not in spec:
        raise ConfigError("missing config key manifest.split.spec.protocol")
    records = [json.loads(line) for line in (run_dir / EPISODE_LOG).read_text().splitlines() if line]
    for n, record in enumerate(records, 1):
        for key in _REPORT_RECORD_KEYS:
            if not isinstance(record, dict) or key not in record:
                raise ConfigError(f"missing key {key} in {run_dir / EPISODE_LOG} line {n}")
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
            side = "ood" if agent not in id_stats else "id"
            warnings.append(f"agent {agent!r} missing from the {side} logs; omitted from the gap table")
            continue
        drop, interval = drop_ci(id_stats[agent], ood_stats[agent])
        rows.append((agent, id_stats[agent].mean, ood_stats[agent].mean, drop, interval))
    rows.sort(key=lambda row: (-row[3], row[0]))
    return rows, warnings


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


def _run_protocol(manifest: RunManifest) -> str:
    return manifest.split["spec"]["protocol"]


def render_report(log_dir, mode: str, fmt: str = "text") -> tuple[str, list[str]]:
    """Assemble a report from a run directory (or a directory of runs).

    ``id``/``ood`` summarize success per agent; ``gap`` pairs one in-distribution
    run with one holdout run found under ``log_dir`` and reports drops.
    """
    from .stats import format_gap_table, format_summary_table

    if mode not in ("id", "ood", "gap"):
        raise ConfigError(f"mode must be one of id/ood/gap, got {mode!r}")
    runs = _discover_runs(log_dir)
    warnings: list[str] = []
    if not runs:
        warnings.append(f"no runs found under {log_dir}")
        empty = format_summary_table([], fmt) if mode in ("id", "ood") else format_gap_table([], fmt)
        return empty, warnings

    if mode in ("id", "ood"):
        records = []
        for manifest, rows in runs:
            protocol = _run_protocol(manifest)
            if mode == "id" and protocol != "id":
                warnings.append(f"run {manifest.name!r} has protocol {protocol!r} in an id report")
            if mode == "ood" and protocol == "id":
                warnings.append(f"run {manifest.name!r} has protocol 'id' in an ood report")
            records.extend(rows)
        if not records:
            warnings.append("no episode records found")
            return format_summary_table([], fmt), warnings
        return format_summary_table(summary_report(records), fmt), warnings

    id_records = [r for manifest, rows in runs if _run_protocol(manifest) == "id" for r in rows]
    ood_records = [r for manifest, rows in runs if _run_protocol(manifest) != "id" for r in rows]
    if not id_records:
        warnings.append("no in-distribution run found for the gap report")
    if not ood_records:
        warnings.append("no holdout run found for the gap report")
    rows, gap_warnings = gap_report(id_records, ood_records)
    return format_gap_table(rows, fmt), warnings + gap_warnings


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
