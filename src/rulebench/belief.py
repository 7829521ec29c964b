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

Their agreement (to float noise) is a machine-checkable identity:
:func:`verify_theory`, which ``rulebench verify-theory`` runs, checks it on
random instances at scale.

From a uniform prior, 0/1 likelihoods keep the posterior uniform over the
rules still consistent with what was seen (a version space): ``live_after``
conditions rules on a transition, belief agents keep the live rules it
returns, and ``info_gain_sweep`` scores actions over them.

Entropies and divergences are reported in bits. Beliefs are immutable;
updates return new values. Each function that uses numpy imports it itself.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

from . import ca
from .ca import Tape
from .env import Action, Transition, action_flips, intervene
from .errors import ConfigError, DomainError, InconsistentObservationError
from .seeding import make_rng

__all__ = [
    "Belief",
    "TheoryReport",
    "entropy",
    "info_gain_entropy",
    "info_gain_kl",
    "info_gain_mi",
    "info_gain_sweep",
    "live_after",
    "posterior_update",
    "uniform_entropy",
    "verify_theory",
]

PROB_TOL = 1e-12
THEORY_TOLERANCE = 1e-9


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
        import numpy as np
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
        return cls(support, [1.0 / len(support)] * len(support))

    @classmethod
    def from_weights(cls, support, weights) -> "Belief":
        import numpy as np
        weights = np.asarray(weights, dtype=float)
        total = float(weights.sum())
        if total <= 0:
            raise DomainError("weights must have positive total mass")
        return cls(tuple(support), weights / total)

    def prob_of(self, rule: int) -> float:
        return float(self.probs[self.support.index(rule)])


def _predict(rules, inputs, length: int) -> np.ndarray:
    """Next tapes of every rule (rows) from every input tape (columns), in one kernel call."""
    return ca.step_bits(ca.as_words(inputs)[None, :], length, ca.as_words(rules)[:, None])


def live_after(rules, state: Tape, action: Action, next_state: Tape) -> tuple[int, ...]:
    """The rules, in order, that step ``action`` at ``state`` to ``next_state``."""
    predicted = _predict(rules, [intervene(state, action).bits], state.length)[:, 0].tolist()
    return tuple(rule for rule, bits in zip(rules, predicted) if bits == next_state.bits)


def posterior_update(belief: Belief, t: Transition) -> Belief:
    """Condition on one observed transition; support order is preserved.

    Raises :class:`InconsistentObservationError` when no supported rule
    predicts the observed next state.
    """
    import numpy as np
    live = set(live_after(belief.support, t.state, t.action, t.next_state))
    unnormalized = belief.probs * np.array([rule in live for rule in belief.support], dtype=float)
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
    import numpy as np
    groups: dict[int, list[int]] = {}  # predicted next tape -> its rules' indices, in first-prediction order
    predicted = _predict(belief.support, [intervene(s, a).bits], s.length)[:, 0].tolist()
    for idx, (bits, p) in enumerate(zip(predicted, belief.probs)):
        if p <= 0.0:
            continue
        groups.setdefault(bits, []).append(idx)
    for idxs in groups.values():
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
    return entropy(Belief.uniform(range(m)))


@functools.cache
def _outcome_term(m: int, n: int) -> float:
    """``mass * H(posterior)`` of an outcome ``n`` of ``m`` equally likely rules predict, as in ``info_gain_entropy``."""
    import numpy as np
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
    predicted = _predict(belief.support, [intervene(s, a).bits], s.length)[:, 0].tolist()
    for next_bits, p in zip(predicted, belief.probs):
        if p <= 0.0:
            continue
        row = {next_bits: 1.0}  # p(s' | z) of the rule z that predicts next_bits
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


# --- identity verification ---------------------------------------------------

@dataclass
class TheoryReport:
    """Outcome of the randomized information-gain identity suite."""

    trials: int
    max_deviation: float
    violations: int
    passed: bool

    def to_text(self) -> str:
        if self.trials == 0:
            return f"verify-theory: 0 trials (vacuous pass), tolerance={THEORY_TOLERANCE:g}"
        status = "PASS" if self.passed else "FAIL"
        return (
            f"verify-theory: trials={self.trials} max_deviation={self.max_deviation:.3e} "
            f"tolerance={THEORY_TOLERANCE:g} violations={self.violations} {status}"
        )


def verify_theory(trials: int, seed: int = 0) -> TheoryReport:
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
        if dev > THEORY_TOLERANCE:
            violations += 1
        if ig_e < -1e-12 or ig_e > entropy(belief) + 1e-12:
            violations += 1
    return TheoryReport(trials, max_dev, violations, passed=violations == 0)
