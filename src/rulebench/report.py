"""Reading a run back, and the report tables built from it.

``rulebench report`` runs only this module, the codec and the statistics, so
it loads neither numpy nor the run machinery. Every attempted cell counts: a
cell whose seed-table ``status`` is not ``"ok"`` has no log line, so reports
count it as success 0 for its agent (on both sides of a gap report), show
each agent's count in a ``failed`` column, and warn about each agent that
has any. An agent that fails on hard cells is not ranked on its easy ones.
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


_REPORT_RECORD_KEYS = ("agent", "success", "task_index")  # what reports read of each log record
_REPORT_CELL_KEYS = ("agent", "status", "task_index")  # and of each seed-table entry


def load_run(run_dir) -> tuple[RunManifest, list[dict[str, Any]]]:
    """A run's manifest and log records, refused with a :class:`ConfigError` naming the file (and
    line) that is not JSON, or the first manifest field or record key that reports need and do not
    find, or a ``success`` that is not a number."""
    run_dir = Path(run_dir)
    manifest = from_json(RunManifest, read_json(run_dir / MANIFEST_FILE), "manifest")
    spec = manifest.split.get("spec")
    if not isinstance(spec, dict) or "protocol" not in spec:
        raise ConfigError("missing config key manifest.split.spec.protocol")
    for i, entry in enumerate(manifest.seed_table):
        for key in _REPORT_CELL_KEYS:
            if key not in entry:
                raise ConfigError(f"missing config key manifest.seed_table[{i}].{key}")
    log = run_dir / EPISODE_LOG
    records = []
    for n, line in enumerate(read_text(log).splitlines(), 1):
        if not line:
            continue
        record = parse_json(line, f"{log} line {n}")
        for key in _REPORT_RECORD_KEYS:
            if not isinstance(record, dict) or key not in record:
                raise ConfigError(f"missing key {key} in {log} line {n}")
        from_json(float, record["success"], f"success in {log} line {n}")
        records.append(record)
    return manifest, records


def _failed_cells(manifest: RunManifest) -> list[dict[str, Any]]:
    """A success-0 record for each cell of the run whose status is not ``ok``."""
    return [{"agent": entry["agent"], "success": 0.0, "task_index": entry["task_index"]}
            for entry in manifest.seed_table if entry["status"] != "ok"]


def _failed_warnings(failed, where: str = "") -> list[str]:
    counts = Counter(cell["agent"] for cell in failed)
    return [f"agent {agent!r}: {n} failed cell(s){where} counted as success 0" for agent, n in sorted(counts.items())]


# --- reports ----------------------------------------------------------------

def summary_report(records, failed=()) -> list[tuple[str, SummaryStats, int, Interval]]:
    """Per-agent (agent, success summary, failed cells, clipped 95% interval), best agent first.

    ``failed`` holds a success-0 record for each failed cell; the summary counts them with ``records``.
    """
    counts = Counter(cell["agent"] for cell in failed)
    return [(agent, stats, counts[agent], ci_normal(stats, clip=True))
            for agent, stats in summarize([*records, *failed])]


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
    run with one holdout run found under ``log_dir`` and reports drops. Failed
    cells count as success 0, each agent that has any with a warning.
    """
    if mode not in ("id", "ood", "gap"):
        raise ConfigError(f"mode must be one of id/ood/gap, got {mode!r}")
    table = format_gap_table if mode == "gap" else format_summary_table
    runs = _discover_runs(log_dir)
    if not runs:
        return table([], fmt), [f"no runs found under {log_dir}"]

    warnings: list[str] = []
    sides = {"id": ([], []), "ood": ([], [])} if mode == "gap" else {mode: ([], [])}  # (records, failed cells)
    for manifest, rows in runs:
        protocol = manifest.split["spec"]["protocol"]
        side = "id" if protocol == "id" else "ood"
        if side not in sides:
            warnings.append(f"run {manifest.name!r} has protocol {protocol!r} in an {mode} report")
            side = mode
        records, failed = sides[side]
        records.extend(rows)
        failed.extend(_failed_cells(manifest))
    if mode != "gap":
        records, failed = sides[mode]
        if not records:
            warnings.append("no episode records found")
        return table(summary_report(records, failed), fmt), warnings + _failed_warnings(failed)

    for side, what in (("id", "in-distribution"), ("ood", "holdout")):
        if not any(sides[side]):
            warnings.append(f"no {what} run found for the gap report")
        warnings += _failed_warnings(sides[side][1], f" in the {side} runs")
    rows, gap_warnings = gap_report(*(records + failed for records, failed in sides.values()))
    return table(rows, fmt), warnings + gap_warnings
