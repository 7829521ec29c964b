"""Traced `rulebench run`: spans around each layer's public functions.

  python3 tracer.py <config.json> <output_dir> <spans.json>

Runs ``rulebench.cli.main(["run", ...])`` after replacing public names where
they are looked up, so the program itself is unchanged:

* ``rulebench.cli.run_experiment`` (root span) and ``rulebench.harness.run_episode``
* ``rulebench.agents.{plan_mpc, max_ig_action, info_gain_entropy, posterior_update}``
* ``EpisodeResult.to_record``, every agent class's ``act``, and
  ``BridgeAgent.begin_episode`` / ``BridgeAgent.observe``
* ``rulebench.agents.step_bits`` and ``rulebench.ca.step_bits`` (the latter
  covers belief, ``env.env_step`` and ``make_target``). Kernel calls are too
  many to keep one by one, so each span keeps the count and wall time of the
  kernel calls made directly under it.

A span is ``[id, name, parent, start_ns, end_ns, episode, kernel_calls,
kernel_ns, extra]``. Spans are kept in memory and written out at exit.
:func:`layer_metrics` turns the file into per-layer counts and self times.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time

ID, NAME, PARENT, START, END, EPISODE, KCALLS, KNS, EXTRA = range(9)
AGENT_KINDS = ("random", "oracle_mpc", "belief_mpc", "belief_mpc_ig", "fallback_mpc", "tabular_q", "bridge")


class Tracer:
    """Span recorder; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[list] = []  # list.append is atomic, so pool threads share it
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self.root: list | None = None  # run_experiment's span: parent of spans opened in pool threads

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name, fn, extra=None, episode=None, skip_nested=False, root=False):
        """Wrap ``fn`` so each call records a span; ``extra(args, kwargs, result)`` adds a value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            if skip_nested and parent is not None and parent[NAME] == name:
                return fn(*args, **kwargs)
            ep = episode(args) if episode else (parent[EPISODE] if parent else None)
            record = [next(self._ids), name, parent[ID] if parent else None, 0, 0, ep, 0, 0, None]
            stack.append(record)
            if root:
                self.root = record
            cpu = time.thread_time_ns()
            record[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[EXTRA] = {"raised": type(exc).__name__}
                raise
            finally:
                record[END] = time.perf_counter_ns()
                stack.pop()
                self.spans.append(record)
            value = extra(args, kwargs, result) if extra else None
            record[EXTRA] = {"cpu_ns": time.thread_time_ns() - cpu, "value": value}
            return result

        return traced

    def kernel(self, fn):
        """Wrap the step kernel: add the call's count and time to the enclosing span."""
        perf = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            dt = perf() - t0
            stack = self._stack()
            # Only this thread touches its own open spans, so no lock is needed.
            record = stack[-1] if stack else self.root
            if record is not None:
                record[KCALLS] += 1
                record[KNS] += dt
            return result

        return traced


def install(tracer: Tracer):
    """Replace the public names; returns the original kernel for its cache counters."""
    from rulebench import agents, bridge, ca, cli, env, harness

    kernel = ca.step_bits
    traced_kernel = tracer.kernel(kernel)
    agents.step_bits = traced_kernel
    ca.step_bits = traced_kernel

    limit = getattr(agents, "EXACT_MIXTURE_LIMIT", 16)
    plan_sig = inspect.signature(agents.plan_mpc)

    def rollout_steps(args, kwargs, result):
        # The contract in plan_mpc's docstring: sequences x evaluated rules x horizon.
        a = plan_sig.bind(*args, **kwargs).arguments
        cfg, weights = a["cfg"], a["weights"]
        positive = sum(1 for w in weights if w > 0.0)
        use_all = positive <= cfg.mixture_rules or (cfg.exact_mixture and positive <= limit)
        rules = positive if use_all else cfg.mixture_rules
        sequences = min(cfg.rollout_budget, (a["state"].length + 1) ** cfg.plan_horizon)
        return sequences * rules * cfg.plan_horizon

    cli.run_experiment = tracer.span("harness.run_experiment", cli.run_experiment, root=True)
    harness.run_episode = tracer.span(
        "env.run_episode", harness.run_episode,
        extra=lambda a, k, r: [r.agent_id, r.steps_used],
        episode=lambda a: a[2],
    )
    agents.plan_mpc = tracer.span("agents.plan_mpc", agents.plan_mpc, extra=rollout_steps)
    agents.max_ig_action = tracer.span("agents.max_ig_action", agents.max_ig_action)
    agents.info_gain_entropy = tracer.span("belief.info_gain", agents.info_gain_entropy)
    agents.posterior_update = tracer.span("belief.posterior_update", agents.posterior_update)
    env.EpisodeResult.to_record = tracer.span("harness.to_record", env.EpisodeResult.to_record)
    bridge.BridgeAgent.begin_episode = tracer.span("bridge.begin_episode", bridge.BridgeAgent.begin_episode)
    bridge.BridgeAgent.observe = tracer.span("bridge.observe", bridge.BridgeAgent.observe)

    classes, todo = [], [agents.Agent]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not agents.Agent and "act" in vars(cls):
            classes.append(cls)
    for cls in classes:  # FallbackMpcAgent's super().act() is not a second decision
        cls.act = tracer.span("agents.act", vars(cls)["act"], skip_nested=True)
    return kernel


def main(config: str, output_dir: str, spans_out: str) -> int:
    tracer = Tracer()
    kernel = install(tracer)
    from rulebench import cli

    code = cli.main(["run", config, "--output-dir", output_dir])
    info = getattr(kernel, "cache_info", None)
    cache = info()._asdict() if info else None
    with open(spans_out, "w") as fh:
        json.dump({"spans": tracer.spans, "cache": cache}, fh, separators=(",", ":"))
    return code


# --- analysis (runs in the benchmark process) --------------------------------

def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n): the highest of p99.9/p99/p95/p90/p50 with >= 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0, 50.0, 0
    for pct in (99.9, 99.0, 95.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            break
    else:
        pct = 50.0
    return values[min(n - 1, int(pct / 100.0 * n))], pct, n


def _union_ns(intervals) -> int:
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def layer_metrics(path) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and the tails' percentiles and sample counts.

    Times are wall clock. A span's self time is its duration minus the part
    its child spans cover and minus its direct kernel calls; kernel time
    (``ca.self_s``) is counted once, where it is called. With a thread pool
    a span's wall time also holds its thread's waits for the interpreter
    lock, so self times then add up to more than the run's wall time.
    """
    with open(path) as fh:
        data = json.load(fh)
    spans = data["spans"]
    children: dict = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def self_ns(s):
        kids = children.get(s[ID], [])
        return s[END] - s[START] - _union_ns((k[START], k[END]) for k in kids) - s[KNS]

    def named(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(self_ns(s) for s in named(name)) / 1e9

    def dur_ms(name):
        return [(s[END] - s[START]) / 1e6 for s in named(name)]

    root = named("harness.run_experiment")
    if len(root) != 1:
        raise ValueError(f"expected one run_experiment span, found {len(root)}")
    root = root[0]
    episodes = named("env.run_episode")
    finished = [s for s in episodes if "value" in s[EXTRA]]  # an episode that raised logs no steps
    plans = named("agents.plan_mpc")
    round_trips = named("bridge.begin_episode") + named("bridge.observe")
    root_ns = root[END] - root[START]
    plan_ns = sum(s[END] - s[START] for s in plans)
    rollout_steps = sum(s[EXTRA].get("value", 0) for s in plans)
    cache = data["cache"]
    lookups = (cache["hits"] + cache["misses"]) if cache else 0

    m = {
        "ca.step_calls": sum(s[KCALLS] for s in spans),
        "ca.self_s": sum(s[KNS] for s in spans) / 1e9,
        "ca.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "belief.posterior_update.calls": len(named("belief.posterior_update")),
        "belief.posterior_update.self_s": self_s("belief.posterior_update"),
        "belief.info_gain.calls": len(named("belief.info_gain")),
        "belief.info_gain.self_s": self_s("belief.info_gain"),
        "belief.inconsistent_obs": sum(
            1 for s in named("belief.posterior_update")
            if s[EXTRA] and s[EXTRA].get("raised") == "InconsistentObservationError"),
        "agents.act.calls": len(named("agents.act")),
        "agents.plan_mpc.calls": len(plans),
        "agents.plan_mpc.self_s": self_s("agents.plan_mpc"),
        "agents.plan_mpc.rollout_steps": rollout_steps,
        "agents.plan_mpc.ns_per_rollout_step": plan_ns / rollout_steps if rollout_steps else 0.0,
        "env.episodes": len(episodes),
        "env.steps": sum(s[EXTRA]["value"][1] for s in finished),
        "env.self_s": self_s("env.run_episode"),
        "harness.self_s": (root_ns - _union_ns((s[START], s[END]) for s in episodes)) / 1e9,
        "harness.serialize_s": sum(s[END] - s[START] for s in named("harness.to_record")) / 1e9,
        # Episode CPU time over the run's wall time: ~1 while the GIL serialises the pool.
        "harness.overlap": sum(s[EXTRA]["cpu_ns"] for s in finished) / root_ns,
        "bridge.round_trips": len(round_trips),
        "bridge.self_s": self_s("bridge.begin_episode") + self_s("bridge.observe"),
    }
    tails = {}
    for key, samples in (
        ("agents.act_ms", dur_ms("agents.act")),
        ("env.episode_ms", dur_ms("env.run_episode")),
        ("bridge.rtt_us", [ms * 1e3 for ms in dur_ms("bridge.begin_episode") + dur_ms("bridge.observe")]),
    ):
        m[f"{key}.p50"] = statistics.median(samples) if samples else 0.0
        value, pct, n = tail(samples)
        m[f"{key}.tail"] = value
        tails[f"{key}.tail"] = {"percentile": pct, "n": n}
    for kind in AGENT_KINDS:
        mine = [s for s in finished if s[EXTRA]["value"][0] == kind]
        busy_s = sum(s[END] - s[START] for s in mine) / 1e9
        m[f"agents.{kind}.episodes_per_s"] = len(mine) / busy_s if busy_s else 0.0
    return m, tails


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
