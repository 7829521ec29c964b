"""Statistical reporting: normal CIs, difference CIs, t-tests, bootstrap, tables.

Conventions, fixed so that reported tables are reproducible to the digit:

* 95% normal intervals use z = 1.96 exactly (other levels invert the normal
  CDF numerically); success-rate intervals may be clipped to [0, 1] but
  difference intervals never are.
* Sample standard deviations use the n-1 denominator; a group of size 1
  reports std 0.
* The Student-t CDF is computed in-house via the regularized incomplete beta
  function (continued-fraction evaluation, |error| well under 1e-10), so no
  numerical library is required at runtime.
* Degenerate tests follow explicit conventions: identical constant samples
  give p = 1; disjoint constant samples give an unbounded statistic reported
  as p = 0 (below any printable threshold).
* Bootstrap intervals are percentile intervals of the resampled mean with
  numpy's linear-interpolation quantiles, deterministic given the seed.
* Table cells round to 3 decimals, round-half-even.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import DomainError
from .seeding import make_rng

__all__ = [
    "Interval",
    "SummaryStats",
    "TestResult",
    "bootstrap_ci",
    "ci_normal",
    "drop_ci",
    "format_gap_table",
    "format_summary_table",
    "paired_t",
    "regularized_incomplete_beta",
    "student_t_cdf",
    "summarize",
    "welch_t",
]

Z_95 = 1.96  # fixed two-sided 95% normal multiplier used throughout reporting


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    std: float
    n: int

    def __post_init__(self) -> None:
        if self.std < 0:
            raise DomainError(f"std must be >= 0, got {self.std}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    level: float
    clipped: bool = False

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise DomainError(f"interval bounds out of order: [{self.lo}, {self.hi}]")
        if not 0.0 < self.level < 1.0:
            raise DomainError(f"level must be in (0, 1), got {self.level}")
        if self.clipped and (self.lo < 0.0 or self.hi > 1.0):
            raise DomainError("clipped intervals must lie in [0, 1]")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    dof: float
    p_value: float
    kind: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise DomainError(f"p_value must be in [0, 1], got {self.p_value}")


# --- internal numerics -----------------------------------------------------

def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iters = 500
    eps = 3e-16
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iters + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise DomainError("incomplete beta requires a, b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _t_two_sided_p(t: float, dof: float) -> float:
    """P(|T_dof| >= |t|), computed directly to stay accurate for tiny p."""
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(dof / 2.0, 0.5, dof / (dof + t * t))


def student_t_cdf(t: float, dof: float) -> float:
    if dof <= 0:
        raise DomainError(f"dof must be positive, got {dof}")
    half_p = 0.5 * _t_two_sided_p(t, dof)
    return 1.0 - half_p if t >= 0 else half_p


def _normal_quantile(p: float) -> float:
    """Inverse standard normal CDF by bisection on math.erf (used for levels != 0.95)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile probability must be in (0, 1), got {p}")
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _z_for_level(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    if abs(level - 0.95) < 1e-12:
        return Z_95
    return _normal_quantile(0.5 * (1.0 + level))


# --- intervals -------------------------------------------------------------

def ci_normal(stats: SummaryStats, level: float = 0.95, clip: bool = False) -> Interval:
    """Normal-approximation interval ``mean +/- z * std / sqrt(n)``."""
    half = _z_for_level(level) * stats.std / math.sqrt(stats.n)
    lo, hi = stats.mean - half, stats.mean + half
    if clip:
        lo, hi = max(0.0, lo), min(1.0, hi)
    return Interval(lo, hi, level, clipped=clip)


def drop_ci(id_stats: SummaryStats, ood_stats: SummaryStats, level: float = 0.95) -> tuple[float, Interval]:
    """Difference of means with an independent-estimates interval; never clipped."""
    drop = id_stats.mean - ood_stats.mean
    half = _z_for_level(level) * math.sqrt(
        id_stats.std**2 / id_stats.n + ood_stats.std**2 / ood_stats.n
    )
    return drop, Interval(drop - half, drop + half, level, clipped=False)


def bootstrap_ci(samples: Sequence[float], resamples: int = 10000, level: float = 0.95, seed: int = 0) -> Interval:
    """Percentile bootstrap interval for the mean; deterministic given ``seed``."""
    x = np.asarray(list(samples), dtype=float)
    if x.size < 1:
        raise DomainError("bootstrap requires at least one sample")
    if resamples < 1:
        raise DomainError("resamples must be >= 1")
    rng = make_rng(seed, "bootstrap")
    idx = rng.integers(0, x.size, size=(resamples, x.size))
    means = x[idx].mean(axis=1)
    alpha = 1.0 - level
    lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return Interval(float(lo), float(hi), level, clipped=False)


# --- hypothesis tests ------------------------------------------------------

def _sample_moments(xs: np.ndarray) -> tuple[float, float]:
    return float(xs.mean()), float(xs.var(ddof=1))


def welch_t(sample_a: Sequence[float], sample_b: Sequence[float]) -> TestResult:
    """Two-sample t-test without the equal-variance assumption."""
    a = np.asarray(list(sample_a), dtype=float)
    b = np.asarray(list(sample_b), dtype=float)
    if a.size < 2 or b.size < 2:
        raise DomainError("welch_t requires at least 2 observations per sample")
    mean_a, var_a = _sample_moments(a)
    mean_b, var_b = _sample_moments(b)
    if var_a == 0.0 and var_b == 0.0:
        dof = float(a.size + b.size - 2)
        if mean_a == mean_b:
            return TestResult(0.0, dof, 1.0, "welch")
        statistic = math.inf if mean_a > mean_b else -math.inf
        return TestResult(statistic, dof, 0.0, "welch")
    sea, seb = var_a / a.size, var_b / b.size
    statistic = (mean_a - mean_b) / math.sqrt(sea + seb)
    dof = (sea + seb) ** 2 / (sea**2 / (a.size - 1) + seb**2 / (b.size - 1))
    return TestResult(statistic, dof, _t_two_sided_p(statistic, dof), "welch")


def paired_t(diff_pairs: Sequence[tuple[float, float]]) -> TestResult:
    """One-sample t-test on paired differences ``a - b``, two-sided."""
    pairs = list(diff_pairs)
    if len(pairs) < 2:
        raise DomainError("paired_t requires at least 2 pairs")
    diffs = np.asarray([a - b for a, b in pairs], dtype=float)
    dof = float(diffs.size - 1)
    mean_d, var_d = _sample_moments(diffs)
    if var_d == 0.0:
        if mean_d == 0.0:
            return TestResult(0.0, dof, 1.0, "paired")
        statistic = math.inf if mean_d > 0 else -math.inf
        return TestResult(statistic, dof, 0.0, "paired")
    statistic = mean_d / math.sqrt(var_d / diffs.size)
    return TestResult(statistic, dof, _t_two_sided_p(statistic, dof), "paired")


# --- grouping and tables ---------------------------------------------------

def summarize(records: Iterable[dict[str, Any]], group_by: tuple[str, ...] = ("agent",)) -> list[tuple[Any, SummaryStats]]:
    """Group the ``success`` values of episode-log records and reduce each group to (mean, sample std, n).

    Each record needs ``agent``, ``success`` and ``task_index`` (what
    ``harness.load_run`` guarantees). ``group_by`` is ``("agent",)`` or
    ``("agent", "task")``; a task is its ``task_index``. Groups are ordered
    by descending mean (ties by group key) to match the report layout.
    """
    if group_by not in (("agent",), ("agent", "task")):
        raise DomainError(f"group_by must be ('agent',) or ('agent', 'task'), got {group_by!r}")
    groups: dict[Any, list[float]] = {}
    for record in records:
        key = record["agent"] if group_by == ("agent",) else (record["agent"], record["task_index"])
        groups.setdefault(key, []).append(float(record["success"]))
    rows = []
    for key, values in groups.items():
        xs = np.asarray(values, dtype=float)
        std = float(xs.std(ddof=1)) if xs.size > 1 else 0.0
        rows.append((key, SummaryStats(float(xs.mean()), std, int(xs.size))))
    rows.sort(key=lambda row: (-row[1].mean, str(row[0])))
    return rows


def _fmt(x: float) -> str:
    return f"{x:.3f}"  # round-half-even on the stored double


def format_summary_table(rows: Sequence[tuple[str, SummaryStats, Interval]], fmt: str = "text") -> str:
    """Render (agent, stats, interval) rows as aligned text or CSV."""
    cells = [(name, _fmt(stats.mean), _fmt(stats.std), str(stats.n), ci) for name, stats, ci in rows]
    return _table(("agent", "mean", "std", "n"), "95% CI", cells, fmt)


def format_gap_table(rows: Sequence[tuple[str, float, float, float, Interval]], fmt: str = "text") -> str:
    """Render (agent, id mean, ood mean, drop, interval) rows."""
    cells = [(name, _fmt(id_mean), _fmt(ood_mean), _fmt(drop), ci) for name, id_mean, ood_mean, drop, ci in rows]
    return _table(("agent", "id_mean", "ood_mean", "drop"), "95% CI (drop)", cells, fmt)


def _table(columns: tuple[str, ...], ci_label: str, rows: list[tuple], fmt: str) -> str:
    """Rows of cell strings ending in an interval, under ``columns``.

    CSV gives the interval two columns, ``ci_lo`` and ``ci_hi``. Text gives it
    one ``[lo, hi]`` column headed ``ci_label``, left-aligns the first column
    and right-aligns the rest.
    """
    if fmt == "csv":
        lines = [columns + ("ci_lo", "ci_hi")] + [(*cells, _fmt(ci.lo), _fmt(ci.hi)) for *cells, ci in rows]
        return "\n".join(",".join(line) for line in lines)
    if fmt != "text":
        raise DomainError(f"fmt must be 'text' or 'csv', got {fmt!r}")
    lines = [columns + (ci_label,)] + [(*cells, f"[{_fmt(ci.lo)}, {_fmt(ci.hi)}]") for *cells, ci in rows]
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "\n".join(
        "  ".join(cell.ljust(w) if i == 0 else cell.rjust(w) for i, (cell, w) in enumerate(zip(line, widths))).rstrip()
        for line in lines
    )
