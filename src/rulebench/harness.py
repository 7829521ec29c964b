"""Experiment orchestration: seeded runs, their logs, and theory checks.

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
the only threads; a worker is handed its next agent config only when it is
free. Either way the results are concatenated in agent-name order, so the
logs are byte-identical at any ``parallelism``, and an exception other than
``AgentError`` in any agent aborts the run: no further agent config starts,
nothing is renamed into place and the temporary log is removed. Threads
would not help: the work is CPU-bound Python and numpy, and they contend for
the interpreter lock.

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

Reading a run back (``load_run``) and the report tables live in
:mod:`rulebench.report`, which this module writes with.

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
from .codec import from_json, read_json, to_json
from .env import Action, run_episode
from .errors import AgentError, ConfigError
from .report import EPISODE_LOG, MANIFEST_FILE, RunManifest
from .report import load_run, summary_report  # noqa: F401  (perfbench/probe.py calls them as harness.*)
from .seeding import derive_seed, make_rng
from .splits import Split, SplitSpec, make_split, verify_split

__all__ = ["ExperimentConfig", "TheoryReport", "cell_seed", "load_config", "run_experiment", "verify_theory"]

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
    from collections import deque
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    # Fork, because a spawned worker imports numpy again (~0.2 s). The pool forks all
    # its workers before it starts its own threads, and the program has no others.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        # A config is handed over only when a worker is free: the pool would queue the rest
        # ahead of its workers, where neither an abort nor cancel() stops them.
        started = deque()  # in name order, results not yet yielded
        for agent in agents:
            running = [future for future in started if not future.done()]
            if len(running) == workers:
                wait(running, return_when=FIRST_COMPLETED)
            if any(future.done() and future.exception() for future in started):
                break
            while started and started[0].done():
                yield started.popleft().result()
            started.append(pool.submit(play, agent))
        for future in started:
            yield future.result()


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
