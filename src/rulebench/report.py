"""Reading a run back, and the report tables built from it.

``rulebench report`` runs only this module, the codec and the statistics, so
it loads neither numpy nor the run machinery. Every attempted cell counts: a
cell whose seed-table ``status`` is not ``"ok"`` has no log line, so reports
add a success-0 record of its agent, marked ``"failed"``, to its run's
records (on both sides of a gap report), count the marks in a ``failed``
column, and warn about each agent that has any. An agent that fails on hard
cells is not ranked on its easy ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .codec import from_json, parse_json, read_json, read_text
from .errors import ConfigError
from .stats import Interval, SummaryStats, ci_normal, drop_ci, format_gap_table, format_summary_table, summarize

__all__ = ["EPISODE_LOG", "MANIFEST_FILE", "RunManifest", "gap_report", "load_run", "render_report", "summary_report"]

EPISODE_LOG = "episodes.jsonl"
MANIFEST_FILE = "manifest.json"


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


# What reports read of each log record, and of each seed-table entry; a cell is (agent, task_index, episode_index).
_REPORT_RECORD_KEYS = {"agent": str, "success": float, "task_index": int, "episode_index": int}
_REPORT_CELL_KEYS = {"agent": str, "status": str, "task_index": int, "episode_index": int}


def load_run(run_dir) -> tuple[RunManifest, list[dict[str, Any]]]:
    """A run's manifest and log records, refused with a :class:`ConfigError` naming the file (and
    line) that is not JSON, or the first manifest field or record key that reports need and do not
    find or find with the wrong type, or a ``success`` outside [0, 1], or a record's ``failed`` key,
    or the first line or cell where the log's cells, in order, are not exactly the seed table's
    ``ok`` cells."""
    run_dir = Path(run_dir)
    manifest = from_json(RunManifest, read_json(run_dir / MANIFEST_FILE), "manifest")
    spec = manifest.split.get("spec")
    if not isinstance(spec, dict) or "protocol" not in spec:
        raise ConfigError("missing config key manifest.split.spec.protocol")
    for i, entry in enumerate(manifest.seed_table):
        for key, tp in _REPORT_CELL_KEYS.items():
            if key not in entry:
                raise ConfigError(f"missing config key manifest.seed_table[{i}].{key}")
            from_json(tp, entry[key], f"manifest.seed_table[{i}].{key}")
    cells = [(e["agent"], e["task_index"], e["episode_index"]) for e in manifest.seed_table if e["status"] == "ok"]
    log = run_dir / EPISODE_LOG
    records = []
    for n, line in enumerate(read_text(log).splitlines(), 1):
        if not line:
            continue
        where = f"{log} line {n}"
        record = parse_json(line, where)
        for key, tp in _REPORT_RECORD_KEYS.items():
            if not isinstance(record, dict) or key not in record:
                raise ConfigError(f"missing key {key} in {where}")
            from_json(tp, record[key], f"{key} in {where}")
        if not 0.0 <= record["success"] <= 1.0:
            raise ConfigError(f"config key success in {where} must be in [0, 1], got {record['success']!r}")
        if "failed" in record:  # the mark of a failed cell's record, which has no log line
            raise ConfigError(f"{where} holds the key failed, which marks a failed cell")
        cell = (record["agent"], record["task_index"], record["episode_index"])
        expected = cells[len(records)] if len(records) < len(cells) else None
        if cell != expected:
            raise ConfigError(f"{where} holds cell {cell}, but the seed table's next ok cell is {expected}"
                              if expected else f"{where} holds cell {cell}, past the seed table's last ok cell")
        records.append(record)
    if len(records) < len(cells):
        raise ConfigError(f"{log}: no line for the seed table's ok cell {cells[len(records)]}")
    return manifest, records


def _failed_cells(manifest: RunManifest) -> list[dict[str, Any]]:
    """A success-0 record, marked ``"failed": True``, for each cell of the run whose status is not ``ok``."""
    return [{"agent": entry["agent"], "success": 0.0, "task_index": entry["task_index"], "failed": True}
            for entry in manifest.seed_table if entry["status"] != "ok"]


def _failed_warnings(records, where: str = "") -> list[str]:
    counts = Counter(record["agent"] for record in records if record.get("failed"))
    return [f"agent {agent!r}: {n} failed cell(s){where} counted as success 0" for agent, n in sorted(counts.items())]


# --- reports ----------------------------------------------------------------

def summary_report(records) -> list[tuple[str, SummaryStats, int, Interval]]:
    """Per-agent (agent, success summary, records marked ``"failed"``, clipped 95% interval), best agent first."""
    counts = Counter(record["agent"] for record in records if record.get("failed"))
    return [(agent, stats, counts[agent], ci_normal(stats, clip=True)) for agent, stats in summarize(records)]


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


def _discover_runs(log_dir) -> list[tuple[str, RunManifest, list[dict[str, Any]]]]:
    """(directory name, manifest, records) of the run at ``log_dir``, or of each run directly under it."""
    log_dir = Path(log_dir)
    if not log_dir.is_dir():
        raise ConfigError(f"{log_dir} is not a directory")
    if (log_dir / EPISODE_LOG).exists():
        return [(log_dir.name, *load_run(log_dir))]
    runs = []
    for child in sorted(log_dir.iterdir()):
        if child.is_dir() and (child / EPISODE_LOG).exists():
            runs.append((child.name, *load_run(child)))
    return runs


def render_report(log_dir, mode: str, fmt: str = "text") -> tuple[str, list[str]]:
    """Assemble a report from a run directory (or a directory of runs).

    ``id``/``ood`` summarize success per agent; ``gap`` reports drops from the
    in-distribution runs found under ``log_dir`` to the holdout runs. Every run
    on a side is pooled, with a warning naming them when a side has more than
    one. Failed cells count as success 0, each agent that has any with a warning.
    """
    if mode not in ("id", "ood", "gap"):
        raise ConfigError(f"mode must be one of id/ood/gap, got {mode!r}")
    table = format_gap_table if mode == "gap" else format_summary_table
    runs = _discover_runs(log_dir)
    if not runs:
        return table([], fmt), [f"no runs found under {log_dir}"]

    warnings: list[str] = []
    # each side's (run directory names, records with its failed cells)
    sides = {"id": ([], []), "ood": ([], [])} if mode == "gap" else {mode: ([], [])}
    for name, manifest, rows in runs:
        protocol = manifest.split["spec"]["protocol"]
        side = "id" if protocol == "id" else "ood"
        if side not in sides:
            warnings.append(f"run {manifest.name!r} has protocol {protocol!r} in an {mode} report")
            side = mode
        names, records = sides[side]
        names.append(name)
        records += rows + _failed_cells(manifest)
    for side, (names, _) in sides.items():
        if len(names) > 1:
            warnings.append(f"the {side} side pools {len(names)} runs: {', '.join(map(repr, names))}")
    if mode != "gap":
        _, records = sides[mode]
        if all(record.get("failed") for record in records):
            warnings.append("no episode records found")
        return table(summary_report(records), fmt), warnings + _failed_warnings(records)

    for side, what in (("id", "in-distribution"), ("ood", "holdout")):
        _, records = sides[side]
        if not records:
            warnings.append(f"no {what} run found for the gap report")
        warnings += _failed_warnings(records, f" in the {side} runs")
    rows, gap_warnings = gap_report(*(records for _, records in sides.values()))
    return table(rows, fmt), warnings + gap_warnings
