"""Independent brute-force oracles used to compute expected test values.

Everything here is deliberately written against plain lists and dicts with
no imports from the package under test, so that agreement between these
functions and the package is a real two-implementation check. Keep it slow
and obvious.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def brute_decode(rule: int) -> list[int]:
    assert 0 <= rule <= 255
    return [(rule >> k) & 1 for k in range(8)]


def brute_step(cells: list[int], rule: int) -> list[int]:
    """One update of a periodic tape, cell by cell."""
    table = brute_decode(rule)
    n = len(cells)
    out = []
    for i in range(n):
        left = cells[(i - 1) % n]
        right = cells[(i + 1) % n]
        out.append(table[4 * left + 2 * cells[i] + right])
    return out


def cells_from_string(text: str) -> list[int]:
    return [int(c) for c in text]


def string_from_cells(cells: list[int]) -> str:
    return "".join(str(c) for c in cells)


def brute_intervene(cells: list[int], action_index: int) -> list[int]:
    """Action encoded as an order index: 0..L-1 flips that cell, L is no-op."""
    out = list(cells)
    if action_index < len(cells):
        out[action_index] = 1 - out[action_index]
    return out


def brute_entropy(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def brute_info_gain(support, probs, cells, action_index) -> float:
    """Prior entropy minus expected posterior entropy, by direct enumeration."""
    groups: dict[str, list[float]] = {}
    for rule, p in zip(support, probs):
        if p <= 0.0:
            continue
        nxt = string_from_cells(brute_step(brute_intervene(cells, action_index), rule))
        groups.setdefault(nxt, []).append(p)
    expected_posterior_entropy = 0.0
    for masses in groups.values():
        total = sum(masses)
        expected_posterior_entropy += total * brute_entropy([m / total for m in masses])
    return brute_entropy(probs) - expected_posterior_entropy


def brute_consistent_rules(support, trajectory) -> set[int]:
    """Rules that explain every (cells, action_index, next_cells) in the trajectory."""
    consistent = set()
    for rule in support:
        if all(brute_step(brute_intervene(s, a), rule) == nxt for s, a, nxt in trajectory):
            consistent.add(rule)
    return consistent


def brute_expected_reward(support, probs, cells, action_index, target_cells) -> float:
    """One-step expected match fraction under the weighted rule set."""
    total = 0.0
    n = len(cells)
    for rule, p in zip(support, probs):
        if p <= 0.0:
            continue
        nxt = brute_step(brute_intervene(cells, action_index), rule)
        matches = sum(1 for a, b in zip(nxt, target_cells) if a == b)
        total += p * matches / n
    return total


def reference_plan(rules, weights, cells, target_cells, rng, plan_horizon, rollout_budget,
                   mixture_rules=8, exact_mixture=False, bonus=None, exact_mixture_limit=16) -> int:
    """Random-shooting MPC one rollout step at a time; returns the first action's order index.

    The planner's scalar reference: it draws from ``rng`` with the same calls
    and shapes as ``rulebench.agents.plan_mpc``, adds each step's match
    fraction in rollout order, weights rules in evaluation order, and breaks
    score ties to the lowest first action (``len(cells)`` is no-op).
    """
    n = len(cells)
    n_actions = n + 1
    weights = np.asarray(weights, dtype=float)
    positive = [i for i in range(len(rules)) if weights[i] > 0.0]
    if len(positive) <= mixture_rules or (exact_mixture and len(positive) <= exact_mixture_limit):
        chosen = positive
    else:
        p = weights[positive] / weights[positive].sum()
        picked = rng.choice(len(positive), size=mixture_rules, replace=False, p=p)
        chosen = [positive[int(i)] for i in picked]
    chosen_weights = weights[chosen] / weights[chosen].sum()
    if rollout_budget >= n_actions**plan_horizon:
        sequences = itertools.product(range(n_actions), repeat=plan_horizon)
    else:
        sequences = rng.integers(0, n_actions, size=(rollout_budget, plan_horizon)).tolist()

    best_score, best_first = -math.inf, n_actions
    for seq in sequences:
        score = 0.0
        for i, w in zip(chosen, chosen_weights):
            state, acc = list(cells), 0.0
            for a in seq:
                state = brute_step(brute_intervene(state, a), rules[i])
                acc += sum(1 for x, y in zip(state, target_cells) if x == y) / n
            score += w * acc
        if bonus is not None:
            score += bonus[seq[0]]
        if score > best_score or (score == best_score and seq[0] < best_first):
            best_score, best_first = score, seq[0]
    return best_first
