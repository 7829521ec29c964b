"""Experiment orchestration: seeded runs and their logs.

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
imports: when an agent plans, the run imports ``numpy.random`` before it
forks), and the pool's management thread and task-queue feeder are the only
threads; a worker is handed its next agent config only when it is free.
Either way the results are concatenated in agent-name order, so the
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
sequence: it opens ``episodes.jsonl.tmp`` line-buffered; writes each line
and extends the seed table, at one worker as each episode ends (so the run
holds no log line, only the seed table) and under the pool as soon as an
agent and every agent before it by name are done (so each worker holds one
agent's lines, and the run at most those of agents done but not yet
written); builds the manifest once and dumps it into ``manifest.json.tmp``;
then renames the log and the manifest into place. A run that aborts while an
agent plays closes that agent first. Any exception before the renames
removes both temporary files, so a run that fails leaves the previous pair
(or none). A run killed outright can leave ``episodes.jsonl.tmp``, which the
next run in the directory replaces. Only a crash or a failed rename between
the two renames can leave a new log beside the previous manifest:

* ``episodes.jsonl`` — one JSON record per episode (the episode's fields plus
  its ``task_index``/``episode_index`` coordinates), in (agent, task index,
  episode index) order, in the codec's canonical form (sorted keys, no
  spaces). ``_log_line`` formats each line directly from pieces the codec
  makes once (a task's JSON per task, each action's at import) and each
  tape's text, computed once; the tests hold every line byte-equal to the
  canonical form of ``EpisodeResult.to_record`` plus the coordinates.
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
from pathlib import Path
from types import MappingProxyType
from typing import Any

from . import __version__
from .agents import MAX_Q_LENGTH, PLANNER_KINDS, AgentConfig, make_agent
from .codec import canonical, from_json, read_json, to_json
from .env import ACTIONS, EpisodeResult, run_episode
from .errors import AgentError, ConfigError
from .report import EPISODE_LOG, MANIFEST_FILE, RunManifest
from .report import load_run, summary_report  # noqa: F401  (perfbench/probe.py calls them as harness.*)
from .seeding import derive_seed
from .splits import Split, SplitSpec, make_split, verify_split

__all__ = ["ExperimentConfig", "cell_seed", "load_config", "run_experiment"]


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


# The canonical JSON of each action, on a tape of any length.
_ACTION_TEXTS = MappingProxyType({action: canonical(action) for action in ACTIONS})


def _log_line(result: EpisodeResult, task_text: str, task_index: int, episode_index: int) -> str:
    """``result``'s log line: ``canonical(dict(result.to_record(), task_index=..., episode_index=...))``
    and a newline, formatted directly; ``task_text`` is ``canonical(result.task)``.

    Keys are written in sorted order. ``json`` writes a float by ``float.__repr__`` (``repr`` of an
    ``np.float64`` differs), and a step's ``state`` is usually the previous step's ``next_state``,
    whose text is reused.
    """
    steps = []
    tape = text = None
    for t in result.transitions:
        if t.state is not tape:
            text = str(t.state)
        tape, after = t.next_state, str(t.next_state)
        steps.append(f'{{"action":{_ACTION_TEXTS[t.action]},"next_state":"{after}","state":"{text}"}}')
        text = after
    return (f'{{"agent":{json.dumps(result.agent_id)},"episode_index":{episode_index},'
            f'"episode_seed":{result.episode_seed},"return":{float.__repr__(result.ret)},'
            f'"steps_used":{result.steps_used},"success":{float.__repr__(result.success)},'
            f'"task":{task_text},"task_index":{task_index},"transitions":[{",".join(steps)}]}}\n')


def _play(agent_cfg: AgentConfig, split: Split, base_seed: int, episodes_per_task: int):
    """Yield one agent config's cells, played in (task, episode) order, each as its episode ends.

    A cell is (its final log line, or ``None`` for a failed cell; its seed-table entry), so no
    record outlives its episode. An :class:`AgentError` fails its cell only; any other exception
    aborts the run. Closing the generator early closes the agent.
    """
    agent = make_agent(agent_cfg, split.train_rules)
    try:
        for task_index, task in enumerate(split.test_tasks):
            task_text = canonical(task)
            for episode_index in range(episodes_per_task):
                seed = cell_seed(base_seed, agent_cfg.name, task_index, episode_index)
                entry = {"agent": agent_cfg.name, "task_index": task_index, "episode_index": episode_index,
                         "seed": seed, "status": "ok"}
                try:
                    result = run_episode(task, agent, seed)
                except AgentError as exc:
                    entry["status"] = f"failed: {exc}"
                    yield None, entry
                else:
                    yield _log_line(result, task_text, task_index, episode_index), entry
    finally:
        agent.close()


def _play_all(agent_cfg: AgentConfig, split: Split, base_seed: int, episodes_per_task: int) -> list:
    """One agent config's cells as a list: what a pool worker returns, pickled by name."""
    return list(_play(agent_cfg, split, base_seed, episodes_per_task))


def _played(agents: list[AgentConfig], workers: int, **play):
    """Every cell of ``agents`` in their order: at one worker as each episode ends, under the
    pool each agent's cells once it and those before it are done."""
    if workers == 1:
        for agent in agents:
            yield from _play(agent, **play)
        return
    import multiprocessing
    from collections import deque
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    # Fork, because a spawned worker imports everything again (numpy ~0.2 s). The pool forks
    # all its workers before it starts its own threads, and the program has no others.
    if any(agent.kind in PLANNER_KINDS for agent in agents):
        import numpy.random  # noqa: F401  (a planner's first draw would import it in each worker)
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
                yield from started.popleft().result()
            started.append(pool.submit(_play_all, agent, **play))
        for future in started:
            yield from future.result()


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
    play = dict(split=split, base_seed=config.base_seed, episodes_per_task=config.episodes_per_task)
    workers = min(config.parallelism, os.cpu_count() or 1, len(agents))
    log_path, manifest_path = out_dir / EPISODE_LOG, out_dir / MANIFEST_FILE
    log_tmp, manifest_tmp = (path.with_name(path.name + ".tmp") for path in (log_path, manifest_path))
    seed_table: list[dict[str, Any]] = []
    try:
        # Line-buffered, so the file holds every line written. Closing the cells shuts the
        # pool down, or closes the agent playing, before the log is closed, also when a write fails.
        with log_tmp.open("w", buffering=1) as log, closing(_played(agents, workers, **play)) as cells:
            for line, entry in cells:
                if line is not None:
                    log.write(line)
                seed_table.append(entry)
        manifest = RunManifest(name=config.name, config=to_json(config), split=to_json(split),
                               seed_table=seed_table, artifact_version=__version__, started_at=started,
                               finished_at=datetime.now(timezone.utc).isoformat())
        with manifest_tmp.open("w") as out:
            json.dump(to_json(manifest), out, indent=2, sort_keys=True)
            out.write("\n")
        os.replace(log_tmp, log_path)
        os.replace(manifest_tmp, manifest_path)
    except BaseException:
        log_tmp.unlink(missing_ok=True)
        manifest_tmp.unlink(missing_ok=True)
        raise
    return manifest
