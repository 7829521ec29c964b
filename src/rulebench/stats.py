"""Statistical reporting: normal CIs, difference CIs, t-tests, bootstrap, tables.

Conventions, fixed so that reported tables are reproducible to the digit:

* Every interval is 95%. Normal intervals use z = 1.96 exactly; success-rate
  intervals may be clipped to [0, 1] but difference intervals never are.
* Means and sample variances are two ``math.fsum`` passes: the mean is the
  correctly rounded sum over n, the variance the correctly rounded sum of
  squared deviations from that mean over n-1, so neither depends on the
  order of the values. A group of size 1 reports std 0.
* The Student-t CDF is computed in-house via the regularized incomplete beta
  function (continued-fraction evaluation, |error| well under 1e-10), so
  summaries, intervals, t-tests and tables need only the standard library.
  Only :func:`bootstrap_ci` imports numpy, in its body, so a report does not
  load it.
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

from .errors import DomainError

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

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise DomainError(f"interval bounds out of order: [{self.lo}, {self.hi}]")


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
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),  # the even, then the odd half-step
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < fpmin:
                d = fpmin
            c = 1.0 + aa / c
            if abs(c) < fpmin:
                c = fpmin
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:  # converged at the odd half-step
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


# --- intervals -------------------------------------------------------------

def ci_normal(stats: SummaryStats, clip: bool = False) -> Interval:
    """Normal-approximation interval ``mean +/- 1.96 * std / sqrt(n)``."""
    half = Z_95 * stats.std / math.sqrt(stats.n)
    lo, hi = stats.mean - half, stats.mean + half
    if clip:
        lo, hi = max(0.0, lo), min(1.0, hi)
    return Interval(lo, hi)


def drop_ci(id_stats: SummaryStats, ood_stats: SummaryStats) -> tuple[float, Interval]:
    """Difference of means with an independent-estimates interval; never clipped."""
    drop = id_stats.mean - ood_stats.mean
    half = Z_95 * math.sqrt(
        id_stats.std**2 / id_stats.n + ood_stats.std**2 / ood_stats.n
    )
    return drop, Interval(drop - half, drop + half)


def bootstrap_ci(samples: Sequence[float], resamples: int = 10000, seed: int = 0) -> Interval:
    """Percentile bootstrap interval for the mean; deterministic given ``seed``."""
    import numpy as np

    from .seeding import make_rng

    x = np.asarray(list(samples), dtype=float)
    if x.size < 1:
        raise DomainError("bootstrap requires at least one sample")
    if resamples < 1:
        raise DomainError("resamples must be >= 1")
    rng = make_rng(seed, "bootstrap")
    idx = rng.integers(0, x.size, size=(resamples, x.size))
    means = x[idx].mean(axis=1)
    alpha = 1.0 - 0.95
    lo, hi = np.quantile(means, [alpha / 2.0, 1.0 - alpha / 2.0])
    return Interval(float(lo), float(hi))


# --- hypothesis tests ------------------------------------------------------

def _sample_moments(xs: Sequence[float]) -> tuple[float, float]:
    """Mean and n-1 sample variance of ``xs`` (at least 2 values), each one ``math.fsum`` pass."""
    mean = math.fsum(xs) / len(xs)
    return mean, math.fsum((x - mean) ** 2 for x in xs) / (len(xs) - 1)


def _t_test(diff: float, se2: float, dof: float, kind: str) -> TestResult:
    """Two-sided t-test of a mean difference ``diff`` whose squared standard error is ``se2``."""
    if se2 == 0.0:  # constant samples: equal ones give statistic 0 and p 1, unequal ones +-inf and p 0
        statistic = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    else:
        statistic = diff / math.sqrt(se2)
    return TestResult(statistic, dof, _t_two_sided_p(statistic, dof), kind)


def welch_t(sample_a: Sequence[float], sample_b: Sequence[float]) -> TestResult:
    """Two-sample t-test without the equal-variance assumption."""
    a = [float(x) for x in sample_a]
    b = [float(x) for x in sample_b]
    if len(a) < 2 or len(b) < 2:
        raise DomainError("welch_t requires at least 2 observations per sample")
    mean_a, var_a = _sample_moments(a)
    mean_b, var_b = _sample_moments(b)
    sea, seb = var_a / len(a), var_b / len(b)
    se2 = sea + seb
    dof = se2**2 / (sea**2 / (len(a) - 1) + seb**2 / (len(b) - 1)) if se2 else float(len(a) + len(b) - 2)
    return _t_test(mean_a - mean_b, se2, dof, "welch")


def paired_t(diff_pairs: Sequence[tuple[float, float]]) -> TestResult:
    """One-sample t-test on paired differences ``a - b``, two-sided."""
    pairs = list(diff_pairs)
    if len(pairs) < 2:
        raise DomainError("paired_t requires at least 2 pairs")
    diffs = [float(a - b) for a, b in pairs]
    dof = float(len(diffs) - 1)
    mean_d, var_d = _sample_moments(diffs)
    return _t_test(mean_d, var_d / len(diffs), dof, "paired")


# --- grouping and tables ---------------------------------------------------

def summarize(records: Iterable[dict[str, Any]], group_by: tuple[str, ...] = ("agent",)) -> list[tuple[Any, SummaryStats]]:
    """Group the ``success`` values of episode-log records and reduce each group to (mean, sample std, n).

    Each record needs ``agent``, ``success`` and ``task_index`` (what
    ``report.load_run`` guarantees). ``group_by`` is ``("agent",)`` or
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
        mean, var = _sample_moments(values) if len(values) > 1 else (values[0], 0.0)
        rows.append((key, SummaryStats(mean, math.sqrt(var), len(values))))
    rows.sort(key=lambda row: (-row[1].mean, str(row[0])))
    return rows


def _fmt(x: float) -> str:
    return f"{x:.3f}"  # round-half-even on the stored double


def format_summary_table(rows: Sequence[tuple[str, SummaryStats, int, Interval]], fmt: str = "text") -> str:
    """Render (agent, stats, failed cells, interval) rows as aligned text or CSV."""
    cells = [(name, _fmt(stats.mean), _fmt(stats.std), str(stats.n), str(failed), ci)
             for name, stats, failed, ci in rows]
    return _table(("agent", "mean", "std", "n", "failed"), "95% CI", cells, fmt)


def format_gap_table(rows: Sequence[tuple[str, float, float, float, Interval]], fmt: str = "text") -> str:
    """Render (agent, id mean, ood mean, drop, interval) rows."""
    cells = [(name, _fmt(id_mean), _fmt(ood_mean), _fmt(drop), ci) for name, id_mean, ood_mean, drop, ci in rows]
    return _table(("agent", "id_mean", "ood_mean", "drop"), "95% CI (drop)", cells, fmt)


def _table(columns: tuple[str, ...], ci_label: str, rows: list[tuple], fmt: str) -> str:
    """Rows of cell strings ending in an interval, under ``columns``.

    CSV gives the interval two columns, ``ci_lo`` and ``ci_hi``, and quotes a
    cell that holds a comma, quote or newline. Text gives the interval one
    ``[lo, hi]`` column headed ``ci_label``, left-aligns the first column and
    right-aligns the rest.
    """
    if fmt == "csv":
        import csv  # here, not at import: text reports do not need it
        import io

        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(
            [columns + ("ci_lo", "ci_hi")] + [(*cells, _fmt(ci.lo), _fmt(ci.hi)) for *cells, ci in rows])
        return out.getvalue()[:-1]
    if fmt != "text":
        raise DomainError(f"fmt must be 'text' or 'csv', got {fmt!r}")
    lines = [columns + (ci_label,)] + [(*cells, f"[{_fmt(ci.lo)}, {_fmt(ci.hi)}]") for *cells, ci in rows]
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "\n".join(
        "  ".join(cell.ljust(w) if i == 0 else cell.rjust(w) for i, (cell, w) in enumerate(zip(line, widths))).rstrip()
        for line in lines
    )
