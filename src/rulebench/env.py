"""Episodic environment: intervene on the tape, then apply the latent rule.

A task fixes a latent rule, a tape length, a step budget, and a goal tape.
Each step the agent either flips one cell or does nothing; the rule then
updates the whole tape. Reward is the fraction of cells matching the goal
after the update; an episode succeeds when the updated tape equals the goal
exactly. The rule is never part of the observation — the full tape is.
An action does not depend on the tape length: ``ACTIONS`` holds each once.

Episodes are deterministic functions of ``(task, agent, episode_seed)``:
the initial tape comes from a PCG64 stream seeded by
``derive_seed(task_seed, episode_seed, "reset")`` and agents receive
``derive_seed(episode_seed, "agent")``; no global randomness is consulted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from . import ca
from .ca import Tape
from .codec import to_json
from .errors import AgentError, DomainError
from .seeding import derive_seed, make_scalar_rng

__all__ = [
    "ACTIONS",
    "Action",
    "EpisodeResult",
    "TaskSpec",
    "Transition",
    "action_flips",
    "env_step",
    "intervene",
    "make_target",
    "match_fraction",
    "reset",
    "run_episode",
]

TARGET_SETTLE_STEPS = 8  # goal tapes are settled under the task's own rule


@dataclass(frozen=True)
class Action:
    """Either ``flip`` one cell or ``no_op``."""

    kind: str
    index: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "flip":
            if not isinstance(self.index, int) or self.index < 0:
                raise DomainError(f"flip requires a nonnegative index, got {self.index!r}")
        elif self.kind == "no_op":
            if self.index is not None:
                raise DomainError("no_op takes no index")
        else:
            raise DomainError(f"unknown action kind {self.kind!r}")

    @classmethod
    def flip(cls, index: int) -> "Action":
        return cls("flip", index)

    @classmethod
    def no_op(cls) -> "Action":
        return cls("no_op")

    def order_index(self, length: int) -> int:
        """Canonical ordering used for tie-breaks: flip(0) < ... < flip(L-1) < no_op."""
        return length if self.kind == "no_op" else self.index

    @classmethod
    def from_order_index(cls, i: int, length: int) -> "Action":
        """The action of order index ``i``: for an ``int`` ``0 <= i <= length <= ca.MAX_LENGTH``, the
        shared instance in :data:`ACTIONS`, so that an agent's decision builds no action."""
        if type(i) is int and 0 <= i <= length <= ca.MAX_LENGTH:
            return ACTIONS[-1] if i == length else ACTIONS[i]
        return cls.no_op() if i == length else cls.flip(i)


# Every action on a tape of any length, one instance each: flip(0) ... flip(MAX_LENGTH - 1), no_op.
ACTIONS = (*map(Action.flip, range(ca.MAX_LENGTH)), Action.no_op())


@dataclass(frozen=True)
class TaskSpec:
    """One task: latent rule plus episode parameters."""

    rule: int
    length: int
    horizon: int
    target: Tape
    task_seed: int

    def __post_init__(self) -> None:
        ca.decode_rule(self.rule)  # range check
        if self.target.length != self.length:
            raise DomainError(f"target length {self.target.length} != task length {self.length}")
        if self.horizon < 1:
            raise DomainError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True)
class Transition:
    state: Tape
    action: Action
    next_state: Tape

    def __post_init__(self) -> None:
        if self.state.length != self.next_state.length:
            raise DomainError("transition states must have equal length")


@dataclass(frozen=True)
class EpisodeResult:
    """Everything recorded about one episode; one log record per instance."""

    task: TaskSpec
    agent_id: str = field(metadata={"key": "agent"})
    success: float
    ret: float = field(metadata={"key": "return"})
    steps_used: int
    transitions: tuple[Transition, ...] = field(repr=False)
    episode_seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.success <= 1.0:
            raise DomainError(f"success must be in [0, 1], got {self.success}")
        if self.steps_used > self.task.horizon:
            raise DomainError("steps_used exceeds horizon")

    def to_record(self) -> dict[str, Any]:
        return to_json(self)


def intervene(state: Tape, action: Action) -> Tape:
    """Apply the agent's edit before the rule update."""
    if action.kind == "no_op":
        return state
    return state.with_flip(action.index)


def action_flips(length: int) -> list[int]:
    """The cells each action flips, as a bit word, by action order index (``no_op`` flips none)."""
    return [1 << i for i in range(length)] + [0]


def match_fraction(bits_a, bits_b, length: int):
    """Fraction of cells on which two tapes agree.

    Takes Python ints, or :func:`ca.as_words` arrays (elementwise).
    """
    diff = bits_a ^ bits_b
    if isinstance(diff, int):
        return (length - diff.bit_count()) / length
    import numpy as np  # the array path
    return (length - np.bitwise_count(diff)) / length


def env_step(state: Tape, action: Action, task: TaskSpec, steps_used: int = 0):
    """One transition: edit, update under the latent rule, score against the goal.

    Returns ``(next_state, reward, done)``; ``done`` is set on exact goal match
    or when this step exhausts the budget (``steps_used`` counts prior steps).
    """
    if state.length != task.length:
        raise DomainError(f"state length {state.length} != task length {task.length}")
    next_state = ca.step(intervene(state, action), task.rule)
    reward = match_fraction(next_state.bits, task.target.bits, task.length)
    done = next_state == task.target or steps_used + 1 >= task.horizon
    return next_state, reward, done


def make_target(rule: int, length: int, task_seed: int) -> Tape:
    """Default goal generator: settle a random tape under the task's own rule.

    A settled goal is the rule's image of a tape, so some tape steps to it. If
    the orbit collapses to the all-zero tape the goal degenerates, so a uniform
    nonzero tape is drawn instead. That tape need not be the image of any tape,
    and then no episode can reach it (ROADMAP item 15).
    """
    rng = make_scalar_rng(task_seed, "target")
    bits = _draw_bits(rng, length)
    for _ in range(TARGET_SETTLE_STEPS):
        bits = ca.step_bits(bits, length, rule)
    while bits == 0:
        bits = _draw_bits(rng, length)
    return Tape(bits, length)


def _draw_bits(rng, length: int) -> int:
    return sum(c << i for i, c in enumerate(rng.integers(0, 2, size=length)))


def reset(task: TaskSpec, episode_seed: int) -> Tape:
    """Initial tape: uniform over tapes of the task's length, never the goal itself."""
    rng = make_scalar_rng(task.task_seed, episode_seed, "reset")
    bits = _draw_bits(rng, task.length)
    while bits == task.target.bits:
        bits = _draw_bits(rng, task.length)
    return Tape(bits, task.length)


def run_episode(task: TaskSpec, agent, episode_seed: int) -> EpisodeResult:
    """Play one episode to success or budget exhaustion and record every transition.

    Success is binary: 1.0 iff the goal is reached within the horizon. The
    per-step match-fraction rewards are accumulated separately as the return.
    Agent exceptions are re-raised as :class:`AgentError` with episode context.
    """
    state = reset(task, episode_seed)
    try:
        agent.begin_episode(task, state, derive_seed(episode_seed, "agent"))
    except Exception as exc:
        raise AgentError(f"agent {agent.name!r} failed to start episode "
                         f"(rule={task.rule}, seed={episode_seed}): {exc}") from exc

    transitions: list[Transition] = []
    ret = 0.0
    for step_i in range(task.horizon):
        try:
            action = agent.act(state)
            next_state, reward, done = env_step(state, action, task, steps_used=step_i)
            agent.observe(state, action, reward, next_state, done)
        except AgentError:
            raise
        except Exception as exc:
            raise AgentError(f"agent {agent.name!r} failed at step {step_i} "
                             f"(rule={task.rule}, seed={episode_seed}): {exc}") from exc
        transitions.append(Transition(state, action, next_state))
        ret += reward
        state = next_state
        if done:
            break

    return EpisodeResult(
        task=task,
        agent_id=agent.name,
        success=float(state == task.target),  # an episode that reaches the goal ends there
        ret=ret,
        steps_used=len(transitions),
        transitions=tuple(transitions),
        episode_seed=episode_seed,
    )
