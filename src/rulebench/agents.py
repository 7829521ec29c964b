"""Reference agents: random, oracle and belief MPC planners, and tabular Q.

The planners use random-shooting model-predictive control: sample action
sequences, roll each out under rules drawn from a (possibly degenerate)
weighted rule set, score by expected cumulative match-fraction reward, and
take the first action of the best sequence. When the rollout budget covers
the whole sequence space the planner enumerates it instead, which makes the
choice exact. Score ties always break to the lowest action index, with
``no_op`` ordered after every flip.

The belief planner keeps a version space, the hypothesis rules still
consistent with every transition seen (``belief.live_after``), and plans
against the uniform mixture over them (the exact posterior);
``belief_mpc_ig`` adds an information-gain bonus for the first action of
each candidate sequence. The fallback variant acts greedily on information
gain while the live rules' entropy exceeds a threshold, and otherwise plans.
If an observation rules out every live rule (the true rule is outside the
hypothesis set), all hypothesis rules become live again: surprise makes the
agent uncertain again, but cannot make it right.

Every agent draws randomness only from a per-episode PCG64 stream derived
from the episode's cell seed, which hashes the agent's name; there is no
separate agent seed. An episode transcript is a pure function of (task,
config, seed). Only the planners (``PLANNER_KINDS``) draw from numpy's
generator; the others draw the same streams in pure Python, without numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

# info_gain_entropy and posterior_update are not called here; perfbench/tracer.py looks them up in this module.
from .belief import Belief, info_gain_entropy, info_gain_sweep, live_after, posterior_update, uniform_entropy  # noqa: F401
from .ca import Tape, as_words, step_bits
from .env import Action, TaskSpec, action_flips, match_fraction
from .errors import ConfigError
from .seeding import make_rng, make_scalar_rng

__all__ = [
    "Agent",
    "AgentConfig",
    "AGENT_KINDS",
    "BeliefMpcAgent",
    "FallbackMpcAgent",
    "OracleMpcAgent",
    "PLANNER_KINDS",
    "RandomAgent",
    "TabularQAgent",
    "make_agent",
    "max_ig_action",
    "plan_mpc",
]

MAX_Q_LENGTH = 12  # tabular state index is the packed tape; beyond this the table leaves desk scale
EXACT_MIXTURE_LIMIT = 16
PLANNER_KINDS = ("oracle_mpc", "belief_mpc", "belief_mpc_ig", "fallback_mpc")  # the agents that draw arrays


@dataclass(frozen=True)
class AgentConfig:
    """Construction parameters for one agent; part of the experiment config schema."""

    kind: str
    name: str | None = None
    plan_horizon: int = 8
    rollout_budget: int = 256
    ig_weight: float = 0.0
    entropy_threshold: float = 1.0
    q_learning_rate: float = 0.1
    q_discount: float = 0.9
    q_exploration: float = 0.1
    exact_mixture: bool = False
    mixture_rules: int = 8
    bridge_command: tuple[str, ...] | None = None
    bridge_deadline: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in AGENT_KINDS:
            raise ConfigError(f"agent kind must be one of {AGENT_KINDS}, got {self.kind!r}")
        if self.name is None:
            object.__setattr__(self, "name", self.kind)
        if self.plan_horizon < 1:
            raise ConfigError("plan_horizon must be >= 1")
        if self.rollout_budget < 1:
            raise ConfigError("rollout_budget must be >= 1")
        if self.ig_weight < 0:
            raise ConfigError("ig_weight must be >= 0")
        if not 0.0 < self.q_learning_rate <= 1.0:
            raise ConfigError("q_learning_rate must be in (0, 1]")
        if not 0.0 <= self.q_discount < 1.0:
            raise ConfigError("q_discount must be in [0, 1)")
        if not 0.0 <= self.q_exploration <= 1.0:
            raise ConfigError("q_exploration must be in [0, 1]")
        if self.mixture_rules < 1:
            raise ConfigError("mixture_rules must be >= 1")
        if self.kind == "bridge" and not self.bridge_command:
            raise ConfigError("bridge agents need a bridge_command")
        if self.bridge_deadline <= 0:
            raise ConfigError("bridge_deadline must be positive")


class Agent:
    """Episode-confined decision maker driven by ``run_episode``."""

    def __init__(self, name: str):
        self.name = name

    def begin_episode(self, task: TaskSpec, obs: Tape, seed: int) -> None:
        raise NotImplementedError

    def act(self, obs: Tape) -> Action:
        raise NotImplementedError

    def observe(self, state: Tape, action: Action, reward: float, next_state: Tape, done: bool) -> None:
        pass

    def close(self) -> None:
        pass


class _BuiltinAgent(Agent):
    """An agent built from its config; each episode stores its task and draws from its own stream."""

    def __init__(self, cfg: AgentConfig):
        super().__init__(cfg.name)
        self.cfg = cfg

    def begin_episode(self, task: TaskSpec, obs: Tape, seed: int) -> None:
        self.task = task
        stream = make_rng if self.cfg.kind in PLANNER_KINDS else make_scalar_rng
        self._rng = stream(seed, 0)  # the derivation every pinned log was recorded with


def plan_mpc(
    rules,
    weights,
    state: Tape,
    target: Tape,
    cfg: AgentConfig,
    rng: np.random.Generator,
    first_action_bonus: list[float] | None = None,
) -> Action:
    """Random-shooting MPC over a weighted rule set; returns the best first action.

    ``first_action_bonus`` lists an additive score bonus per action order-index
    (used for the information-gain variant). Rollouts are evaluated under all
    positive-weight rules when there are at most ``mixture_rules`` of them (or
    ``exact_mixture`` is set and the support is small); otherwise under a
    without-replacement weighted sample of ``mixture_rules`` rules, with the
    sampled weights renormalized. One call steps sequences x evaluated rules x
    horizon rollouts, all (rule, sequence) pairs at once per horizon step.
    A sequence scores the weighted sum over rules of its per-step match
    fractions; the best score wins, ties to the lowest first action.
    """
    import numpy as np
    length = state.length
    n_actions = length + 1
    rules = tuple(rules)
    weights = np.asarray(weights, dtype=float)

    positive = [i for i in range(len(rules)) if weights[i] > 0.0]
    use_all = len(positive) <= cfg.mixture_rules or (cfg.exact_mixture and len(positive) <= EXACT_MIXTURE_LIMIT)
    if use_all:
        chosen = positive
    else:
        p = weights[positive] / weights[positive].sum()
        picked = rng.choice(len(positive), size=cfg.mixture_rules, replace=False, p=p)
        chosen = [positive[int(i)] for i in picked]
    eval_rules = as_words([rules[i] for i in chosen])
    eval_weights = weights[chosen] / weights[chosen].sum()

    total_sequences = n_actions**cfg.plan_horizon
    if cfg.rollout_budget >= total_sequences:
        sequences = np.array(list(itertools.product(range(n_actions), repeat=cfg.plan_horizon)))
    else:
        sequences = rng.integers(0, n_actions, size=(cfg.rollout_budget, cfg.plan_horizon))

    flips = as_words(action_flips(length))
    bits = np.full((len(eval_rules), len(sequences)), state.bits, dtype=np.uint64)
    acc = np.zeros(bits.shape)
    for t in range(cfg.plan_horizon):
        bits = step_bits(bits ^ flips[sequences[:, t]], length, eval_rules[:, None])
        acc += match_fraction(bits, target.bits, length)
    score = np.zeros(len(sequences))
    for w, rule_acc in zip(eval_weights, acc):  # rule by rule, the summation order of one rollout at a time
        score += w * rule_acc
    first = sequences[:, 0]
    if first_action_bonus is not None:
        score += np.array(first_action_bonus)[first]
    best_first = int(first[score == score.max()].min())
    return Action.from_order_index(best_first, length)


def max_ig_action(live, state: Tape) -> Action:
    """The one-step action with maximal information gain over the live rules; ties to the lowest index."""
    gains = info_gain_sweep(live, state)
    return Action.from_order_index(gains.index(max(gains)), state.length)


class RandomAgent(_BuiltinAgent):
    """Uniform over the ``L + 1`` actions; the floor baseline."""

    def act(self, obs: Tape) -> Action:
        return Action.from_order_index(int(self._rng.integers(0, self.task.length + 1)), self.task.length)


class OracleMpcAgent(_BuiltinAgent):
    """MPC planner given the task's true rule; isolates model error from planning error."""

    def act(self, obs: Tape) -> Action:
        return plan_mpc((self.task.rule,), (1.0,), obs, self.task.target, self.cfg, self._rng)


class BeliefMpcAgent(_BuiltinAgent):
    """MPC under the exact posterior over a fixed hypothesis rule set: uniform over the live rules.

    ``hypothesis_rules`` is the agent's world model: rules outside it cannot
    be represented, which is exactly what makes heldout-rule tasks hard. The
    rules are checked once; every episode starts with all of them live, and
    every reset makes them all live again.
    """

    def __init__(self, cfg: AgentConfig, hypothesis_rules):
        super().__init__(cfg)
        self.rules = tuple(hypothesis_rules)
        if not self.rules:
            raise ConfigError("belief agents need a non-empty hypothesis rule set")
        Belief.uniform(self.rules)  # refuses duplicates and rules outside [0, 255]

    def begin_episode(self, task: TaskSpec, obs: Tape, seed: int) -> None:
        super().begin_episode(task, obs, seed)
        self.live = self.rules

    def act(self, obs: Tape) -> Action:
        bonus = None
        if self.cfg.kind == "belief_mpc_ig" and self.cfg.ig_weight > 0.0:
            bonus = [self.cfg.ig_weight * gain for gain in info_gain_sweep(self.live, obs)]
        weights = [1.0 / len(self.live)] * len(self.live)
        return plan_mpc(self.live, weights, obs, self.task.target, self.cfg, self._rng, bonus)

    def observe(self, state: Tape, action: Action, reward: float, next_state: Tape, done: bool) -> None:
        self.live = live_after(self.live, state, action, next_state) or self.rules


class FallbackMpcAgent(BeliefMpcAgent):
    """Explore for information while uncertain, plan once the belief is sharp.

    While the live rules' entropy exceeds ``entropy_threshold`` (bits) the
    agent takes the max-information-gain action; below it, it defers to the
    belief planner. ``last_mode`` records which branch the latest decision took.
    """

    last_mode: str | None = None

    def begin_episode(self, task: TaskSpec, obs: Tape, seed: int) -> None:
        super().begin_episode(task, obs, seed)
        self.last_mode = None

    def act(self, obs: Tape) -> Action:
        if uniform_entropy(len(self.live)) > self.cfg.entropy_threshold:
            self.last_mode = "explore"
            return max_ig_action(self.live, obs)
        self.last_mode = "plan"
        return super().act(obs)


class TabularQAgent(_BuiltinAgent):
    """One-step Q-learning over packed-tape states with an epsilon-greedy policy.

    The Q table persists across this instance's episodes (its training run),
    keyed by (length, state bits); unseen rows start at zero and greedy ties
    break to the lowest action index.
    """

    def __init__(self, cfg: AgentConfig):
        super().__init__(cfg)
        self.q: dict[tuple[int, int], list[float]] = {}

    def begin_episode(self, task: TaskSpec, obs: Tape, seed: int) -> None:
        if task.length > MAX_Q_LENGTH:
            raise ConfigError(f"tabular_q supports lengths up to {MAX_Q_LENGTH}, got {task.length}")
        super().begin_episode(task, obs, seed)

    def _row(self, bits: int) -> list[float]:
        return self.q.setdefault((self.task.length, bits), [0.0] * (self.task.length + 1))

    def act(self, obs: Tape) -> Action:
        if self._rng.random() < self.cfg.q_exploration:
            i = int(self._rng.integers(0, self.task.length + 1))
        else:
            row = self._row(obs.bits)
            i = row.index(max(row))
        return Action.from_order_index(i, self.task.length)

    def observe(self, state: Tape, action: Action, reward: float, next_state: Tape, done: bool) -> None:
        row = self._row(state.bits)
        i = action.order_index(self.task.length)
        bootstrap = max(self._row(next_state.bits))
        row[i] += self.cfg.q_learning_rate * (reward + self.cfg.q_discount * bootstrap - row[i])


_CLASSES = {"random": RandomAgent, "oracle_mpc": OracleMpcAgent, "belief_mpc": BeliefMpcAgent,
            "belief_mpc_ig": BeliefMpcAgent, "fallback_mpc": FallbackMpcAgent, "tabular_q": TabularQAgent}
AGENT_KINDS = (*_CLASSES, "bridge")


def make_agent(cfg: AgentConfig, hypothesis_rules=()) -> Agent:
    """Instantiate an agent; belief-family agents hypothesize over ``hypothesis_rules``."""
    if cfg.kind == "bridge":
        from .bridge import BridgeAgent  # avoid a module cycle
        return BridgeAgent(cfg)
    cls = _CLASSES[cfg.kind]
    return cls(cfg, hypothesis_rules) if issubclass(cls, BeliefMpcAgent) else cls(cfg)
