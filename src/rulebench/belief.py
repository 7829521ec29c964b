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

From a uniform prior, 0/1 likelihoods keep the posterior uniform over the
rules still consistent with what was seen (a version space): belief agents
keep just those live rules, and ``info_gain_sweep`` scores actions over them.

Entropies and divergences are reported in bits. Beliefs are immutable;
updates return new values.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
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
    "uniform_entropy",
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


@functools.cache
def uniform_entropy(m: int) -> float:
    """Entropy of the uniform belief over ``m`` rules, in bits, exactly as :func:`entropy` computes it."""
    return _entropy_bits(np.full(m, 1.0 / m))


@functools.cache
def _outcome_term(m: int, n: int) -> float:
    """``mass * H(posterior)`` of an outcome ``n`` of ``m`` equally likely rules predict, as in ``info_gain_entropy``."""
    p = np.full(n, 1.0 / m)
    mass = float(p.sum())
    return mass * _entropy_bits(p / mass)


def info_gain_sweep(live, s: Tape) -> list[float]:
    """Information gain of every action at ``s`` under the uniform belief over ``live``, by action order.

    One kernel call predicts every (rule, action) pair. Each value sums terms
    tabulated by (live count, outcome group size) in the order of
    :func:`info_gain_entropy`, so it equals that function's result on
    ``Belief.uniform(live)``. There, an outcome only one rule predicts adds
    exactly ``mass * -0.0``, which leaves the sum unchanged; the sweep skips it.
    """
    m = len(live)
    predicted = _predict(live, [s.bits ^ flip for flip in action_flips(s.length)], s.length)
    gains = []
    for column in predicted.T.tolist():
        expected_posterior_entropy = sum(_outcome_term(m, n) for n in Counter(column).values() if n > 1)
        gains.append(uniform_entropy(m) - expected_posterior_entropy)
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
