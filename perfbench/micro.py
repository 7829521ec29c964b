"""Layer microbenchmarks at fixed shapes, through rulebench's public functions.

  python3 micro.py <seed> <out.json>

Each entry is the median per-call time over a few batches, with the state of
the kernel's cache while it was timed. "cold" batches start from a cleared
cache and use inputs not seen before; "warm" batches repeat inputs the cache
already holds. Without a cache the state reads "no cache".
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

import numpy as np

from rulebench import agents, ca
from rulebench.agents import AgentConfig
from rulebench.belief import Belief, info_gain_entropy, posterior_update
from rulebench.ca import Tape
from rulebench.env import Action, Transition, intervene
from rulebench.seeding import make_rng
from workloads import DESK_RULES

BATCHES = 5
L_DEFAULT = 16
DESK_PLAN_RULES = tuple(DESK_RULES[:8])

_clear = getattr(ca.step_bits, "cache_clear", None)
COLD = "cold" if _clear else "no cache"
WARM = "warm" if _clear else "no cache"


def cold() -> None:
    if _clear:
        _clear()


def per_call(fn, inputs, scale: float) -> float:
    t0 = time.perf_counter_ns()
    for args in inputs:
        fn(*args)
    return (time.perf_counter_ns() - t0) / len(inputs) / scale


def tape(rnd: random.Random, length: int) -> Tape:
    return Tape(rnd.getrandbits(length), length)


def transition(rnd: random.Random, rules, length: int) -> Transition:
    state = tape(rnd, length)
    action = Action.from_order_index(rnd.randrange(length + 1), length)
    next_bits = ca.step_bits(intervene(state, action).bits, length, rnd.choice(rules))
    return Transition(state, action, Tape(next_bits, length))


def main(seed: int, out: str) -> int:
    rnd = random.Random(seed)
    rules128 = tuple(rnd.sample(range(256), 128))
    results = {}

    def record(name, unit, state, samples):
        results[name] = {"value": statistics.median(samples), "unit": unit, "cache": state, "samples": samples}

    samples = []
    for _ in range(BATCHES):
        bits = rnd.sample(range(1 << L_DEFAULT), 20000)
        cold()
        samples.append(per_call(ca.step_bits, [(b, L_DEFAULT, 110) for b in bits], 1.0))
    record("ca.step_ns.cold_L16", "ns", COLD, samples)

    warm_inputs = [(b, 8, r) for r in DESK_PLAN_RULES for b in range(256)] * 20
    for args in warm_inputs[:2048]:
        ca.step_bits(*args)
    record("ca.step_ns.warm_L8", "ns", WARM,
           [per_call(ca.step_bits, warm_inputs, 1.0) for _ in range(BATCHES)])

    for k, calls in ((8, 2000), (128, 100)):
        belief = Belief.uniform(rules128[:k])
        samples = []
        for _ in range(BATCHES):
            inputs = [(belief, transition(rnd, belief.support, L_DEFAULT)) for _ in range(calls)]
            cold()
            samples.append(per_call(posterior_update, inputs, 1e3))
        record(f"belief.posterior_update_us.K{k}", "us", COLD, samples)

    belief = Belief.uniform(rules128)
    actions = [Action.from_order_index(i, L_DEFAULT) for i in range(L_DEFAULT + 1)]

    def sweep(state):
        for a in actions:
            info_gain_entropy(belief, state, a)

    samples = []
    for _ in range(BATCHES):
        inputs = [(tape(rnd, L_DEFAULT),) for _ in range(4)]
        cold()
        samples.append(per_call(sweep, inputs, 1e6))
    record("belief.ig_sweep_ms.K128", "ms", COLD, samples)

    shapes = (
        ("desk", 8, DESK_PLAN_RULES, AgentConfig(kind="belief_mpc", plan_horizon=4, rollout_budget=64, exact_mixture=True), 40),
        ("default", L_DEFAULT, rules128, AgentConfig(kind="belief_mpc"), 3),
    )
    for name, length, rules, cfg, calls in shapes:
        weights = np.full(len(rules), 1.0 / len(rules))
        rng = make_rng(seed, "micro", name)

        def plan(state, target):
            agents.plan_mpc(rules, weights, state, target, cfg, rng)

        if name == "desk":
            plan(tape(rnd, length), tape(rnd, length))  # the L=8 working set fills at once
        samples = []
        for _ in range(BATCHES):
            inputs = [(tape(rnd, length), tape(rnd, length)) for _ in range(calls)]
            if name == "default":
                cold()
            samples.append(per_call(plan, inputs, 1e6))
        record(f"agents.plan_mpc_ms.{name}", "ms", WARM if name == "desk" else COLD, samples)

    with open(out, "w") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), sys.argv[2]))
