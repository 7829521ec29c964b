"""Exact Bayesian inference over candidate rules, and information gain.

The dynamics are deterministic given the rule, so the likelihood of a
transition is a 0/1 indicator and every posterior and expectation below is
computed by exact enumeration over the finite support — no sampling, no
tolerance beyond float64 arithmetic.

Information gain of a candidate ``(state, action)`` is computed three ways
that are mathematically identical:

* ``info_gain_entropy`` — prior entropy minus expected posterior entropy,
* ``info_gain_mi`` — mutual information between rule and next state, taken
  from the joint distribution as marginal minus conditional entropy,
* ``info_gain_kl`` — expected KL divergence from posterior to prior.

Their agreement (to float noise) is a machine-checkable identity; the
``verify-theory`` harness entry point runs that check at scale.

Entropies and divergences are reported in bits. Beliefs are immutable;
updates return new values, so an agent builds its prior once and returns
to that same value at every episode start and every reset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ca
from .ca import Tape
from .env import Action, Transition, action_flips, intervene
from .errors import DomainError, InconsistentObservationError

__all__ = [
    "Belief",
    "entropy",
    "info_gain_entropy",
    "info_gain_kl",
    "info_gain_mi",
    "info_gain_sweep",
    "posterior_update",
]

PROB_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Belief:
    """Probability vector over an ordered set of candidate rules."""

    support: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        if not self.support:
            raise DomainError("belief support must be non-empty")
        if len(set(self.support)) != len(self.support):
            raise DomainError("belief support must not contain duplicates")
        for rule in self.support:
            ca.decode_rule(rule)
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (len(self.support),):
            raise DomainError("probs must align with support")
        if (probs < 0).any():
            raise DomainError("probs must be non-negative")
        if abs(float(probs.sum()) - 1.0) > PROB_TOL:
            raise DomainError(f"probs must sum to 1, got {probs.sum()!r}")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, support) -> "Belief":
        support = tuple(support)
        if not support:
            raise DomainError("belief support must be non-empty")
        return cls(support, np.full(len(support), 1.0 / len(support)))

    @classmethod
    def from_weights(cls, support, weights) -> "Belief":
        weights = np.asarray(weights, dtype=float)
        total = float(weights.sum())
        if total <= 0:
            raise DomainError("weights must have positive total mass")
        return cls(tuple(support), weights / total)

    def prob_of(self, rule: int) -> float:
        return float(self.probs[self.support.index(rule)])


def _prediction_bits(state: Tape, action: Action, rule: int) -> int:
    return ca.step_bits(intervene(state, action).bits, state.length, rule)


def _predict(rules, inputs, length: int) -> np.ndarray:
    """Next tapes of every rule (rows) from every input tape (columns), in one kernel call."""
    return ca.step_bits(ca.as_words(inputs)[None, :], length, ca.as_words(rules)[:, None])


def posterior_update(belief: Belief, t: Transition) -> Belief:
    """Condition on one observed transition; support order is preserved.

    Raises :class:`InconsistentObservationError` when no supported rule
    predicts the observed next state.
    """
    predicted = _predict(belief.support, [intervene(t.state, t.action).bits], t.state.length)[:, 0]
    likelihood = (predicted == t.next_state.bits).astype(float)
    unnormalized = belief.probs * likelihood
    total = float(unnormalized.sum())
    if total <= 0.0:
        raise InconsistentObservationError(
            f"transition {t.state}-{t.action.kind}->{t.next_state} has zero likelihood "
            f"under all {len(belief.support)} supported rules; hypothesis set is misspecified"
        )
    return Belief(belief.support, unnormalized / total)


def entropy(belief: Belief) -> float:
    """Shannon entropy of the belief, in bits; 0*log(0) = 0."""
    return _entropy_bits(belief.probs)


def _entropy_bits(probs: np.ndarray) -> float:
    return float(-sum(p * math.log2(p) for p in probs if p > 0.0))


def _outcome_posteriors(belief: Belief, s: Tape, a: Action):
    """For each possible next tape: its predictive mass and the posterior it induces."""
    groups: dict[int, list[int]] = {}
    order: list[int] = []
    for idx, (z, p) in enumerate(zip(belief.support, belief.probs)):
        if p <= 0.0:
            continue
        bits = _prediction_bits(s, a, z)
        if bits not in groups:
            groups[bits] = []
            order.append(bits)
        groups[bits].append(idx)
    for bits in order:
        idxs = groups[bits]
        mass = float(belief.probs[idxs].sum())
        posterior = np.zeros(len(belief.support))
        posterior[idxs] = belief.probs[idxs] / mass
        yield mass, posterior


def info_gain_entropy(belief: Belief, s: Tape, a: Action) -> float:
    """Expected reduction in belief entropy from observing the next state."""
    expected_posterior_entropy = sum(
        mass * _entropy_bits(post) for mass, post in _outcome_posteriors(belief, s, a)
    )
    return entropy(belief) - expected_posterior_entropy


def info_gain_sweep(belief: Belief, s: Tape) -> list[float]:
    """Information gain of every action at ``s``, indexed by action order.

    One kernel call predicts every (rule, action) pair; each value then
    repeats :func:`info_gain_entropy`'s grouping and summation order, so it
    is equal to that function's result, not merely close to it. There, an
    outcome only one rule predicts has a delta posterior and adds exactly
    ``mass * -0.0``, which leaves the sum unchanged; the sweep skips it.
    """
    length = s.length
    alive = np.flatnonzero(belief.probs > 0.0).tolist()
    inputs = [s.bits ^ flip for flip in action_flips(length)]
    predicted = _predict([belief.support[i] for i in alive], inputs, length)
    prior_entropy = entropy(belief)
    gains = []
    for column in predicted.T.tolist():
        groups: dict[int, list[int]] = {}
        for idx, bits in zip(alive, column):
            groups.setdefault(bits, []).append(idx)
        expected_posterior_entropy = 0
        for idxs in groups.values():
            if len(idxs) == 1:
                continue
            mass = float(belief.probs[idxs].sum())
            expected_posterior_entropy += mass * _entropy_bits((belief.probs[idxs] / mass).tolist())
        gains.append(prior_entropy - expected_posterior_entropy)
    return gains


def info_gain_mi(belief: Belief, s: Tape, a: Action) -> float:
    """Mutual information between rule and next state, from the joint distribution.

    Joint mass is ``p(z) * 1[rule z predicts s']``; the value is the marginal
    next-state entropy minus the belief-weighted conditional entropies (which
    are identically zero here because the dynamics are deterministic).
    """
    marginal: dict[int, float] = {}
    conditional = 0.0
    for z, p in zip(belief.support, belief.probs):
        if p <= 0.0:
            continue
        row = {_prediction_bits(s, a, z): 1.0}  # p(s' | z)
        conditional += p * -sum(q * math.log2(q) for q in row.values() if q > 0.0)
        for bits, q in row.items():
            marginal[bits] = marginal.get(bits, 0.0) + float(p) * q
    marginal_entropy = -sum(q * math.log2(q) for q in marginal.values() if q > 0.0)
    return float(marginal_entropy - conditional)


def info_gain_kl(belief: Belief, s: Tape, a: Action) -> float:
    """Expected KL divergence from the updated belief back to the current one.

    Accumulated as a difference of logs so extreme weight ratios stay exact;
    outcomes with zero predictive mass cannot be observed and contribute nothing.
    """
    total = 0.0
    prior = belief.probs
    for mass, post in _outcome_posteriors(belief, s, a):
        kl = sum(q * (math.log2(q) - math.log2(prior[i])) for i, q in enumerate(post) if q > 0.0)
        total += mass * kl
    return float(total)
