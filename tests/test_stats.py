import math

import numpy as np
import pytest
from scipy import special as sp_special
from scipy import stats as sp_stats

from rulebench import (
    DomainError,
    Interval,
    SummaryStats,
    bootstrap_ci,
    ci_normal,
    drop_ci,
    paired_t,
    summarize,
    welch_t,
)
from rulebench.stats import (
    format_gap_table,
    format_summary_table,
    regularized_incomplete_beta,
    student_t_cdf,
)


def rounded(interval):
    return round(interval.lo, 3), round(interval.hi, 3)


class TestCiNormal:
    def test_reference_row_large_n(self):
        ci = ci_normal(SummaryStats(0.798, 0.333, 195), clip=True)
        assert rounded(ci) == (0.751, 0.845)

    def test_reference_row_small_n(self):
        ci = ci_normal(SummaryStats(0.307, 0.328, 5), clip=True)
        assert rounded(ci) == (0.019, 0.595)

    def test_zero_std_collapses_to_point(self):
        ci = ci_normal(SummaryStats(0.4, 0.0, 17))
        assert (ci.lo, ci.hi) == (0.4, 0.4)

    def test_clip_bounds_to_unit_interval(self):
        ci = ci_normal(SummaryStats(0.05, 0.4, 5), clip=True)
        assert ci.lo == 0.0 and ci.clipped
        unclipped = ci_normal(SummaryStats(0.05, 0.4, 5), clip=False)
        assert unclipped.lo < 0.0 and not unclipped.clipped

    def test_width_non_increasing_in_n(self):
        widths = [ci_normal(SummaryStats(0.5, 0.2, n)).hi - ci_normal(SummaryStats(0.5, 0.2, n)).lo
                  for n in (1, 2, 5, 10, 100, 1000)]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_exact_196_multiplier_at_95(self):
        ci = ci_normal(SummaryStats(0.0, 1.0, 1))
        assert ci.hi == 1.96

    def test_other_levels_use_normal_quantile(self):
        ci = ci_normal(SummaryStats(0.0, 1.0, 1), level=0.99)
        assert ci.hi == pytest.approx(sp_stats.norm.ppf(0.995), abs=1e-9)


class TestDropCi:
    def test_reference_row_planner(self):
        drop, ci = drop_ci(SummaryStats(0.794, 0.336, 195), SummaryStats(0.133, 0.135, 5))
        assert round(drop, 3) == 0.661
        assert rounded(ci) == (0.534, 0.788)

    def test_reference_row_negative_bound_not_clipped(self):
        drop, ci = drop_ci(SummaryStats(0.546, 0.408, 195), SummaryStats(0.307, 0.328, 5))
        assert round(drop, 3) == 0.239
        assert rounded(ci) == (-0.054, 0.532)
        assert not ci.clipped

    def test_identical_inputs_give_symmetric_zero(self):
        stats = SummaryStats(0.42, 0.2, 30)
        drop, ci = drop_ci(stats, stats)
        assert drop == 0.0
        assert ci.lo == -ci.hi


class TestWelch:
    def test_identical_samples(self):
        result = welch_t([0.2, 0.4, 0.6], [0.2, 0.4, 0.6])
        assert result.statistic == 0.0 and result.p_value == 1.0 and result.kind == "welch"

    def test_disjoint_constants_report_vanishing_p(self):
        result = welch_t([0, 0, 0, 0], [1, 1, 1, 1])
        assert math.isinf(result.statistic) and result.statistic < 0
        assert result.p_value < 1e-12

    def test_worked_example(self):
        result = welch_t([0.1, 0.2, 0.3, 0.4], [0.3, 0.4, 0.5, 0.6])
        assert round(result.statistic, 3) == -2.191
        assert result.dof == pytest.approx(6.0, abs=1e-9)
        assert result.p_value == pytest.approx(0.0711, abs=2e-4)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(DomainError):
            welch_t([1.0], [0.0, 1.0])

    def test_matches_scipy_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.normal(0, 1, size=int(rng.integers(2, 40)))
            b = rng.normal(0.3, 2, size=int(rng.integers(2, 40)))
            ours = welch_t(a, b)
            ref = sp_stats.ttest_ind(a, b, equal_var=False)
            assert ours.statistic == pytest.approx(ref.statistic, abs=1e-10)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_reduces_to_pooled_t_with_equal_variances_and_sizes(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = rng.normal(0, 1, size=12)
            b = rng.permutation(a) + rng.normal()  # same sample variance exactly
            ours = welch_t(a, b)
            pooled_var = (np.var(a, ddof=1) + np.var(b, ddof=1)) / 2
            pooled_stat = (a.mean() - b.mean()) / math.sqrt(pooled_var * (2 / 12))
            pooled_p = 2 * (1 - student_t_cdf(abs(pooled_stat), 22))
            assert ours.statistic == pytest.approx(pooled_stat, abs=1e-9)
            assert ours.dof == pytest.approx(22.0, abs=1e-9)
            assert ours.p_value == pytest.approx(pooled_p, abs=1e-9)


class TestPaired:
    def test_zero_differences(self):
        result = paired_t([(0.3, 0.3), (0.7, 0.7), (0.1, 0.1)])
        assert result.statistic == 0.0 and result.p_value == 1.0 and result.kind == "paired"

    def test_constant_nonzero_difference_hits_guard(self):
        result = paired_t([(1, 0), (1, 0), (1, 0)])
        assert math.isinf(result.statistic) and result.p_value < 1e-12

    def test_worked_example(self):
        pairs = [(0.1, 0.0), (0.2, 0.0), (0.3, 0.0), (0.2, 0.0)]
        result = paired_t(pairs)
        assert round(result.statistic, 3) == 4.899
        assert result.dof == 3.0
        assert result.p_value == pytest.approx(0.0163, abs=5e-5)

    def test_matches_scipy_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            a, b = rng.normal(0, 1, size=n), rng.normal(0.1, 1, size=n)
            ours = paired_t(list(zip(a, b)))
            ref = sp_stats.ttest_rel(a, b)
            assert ours.statistic == pytest.approx(ref.statistic, abs=1e-10)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_too_few_pairs_rejected(self):
        with pytest.raises(DomainError):
            paired_t([(1.0, 0.5)])


class TestBootstrap:
    def test_constant_samples_collapse(self):
        ci = bootstrap_ci([0.7] * 10, resamples=500, seed=1)
        assert (ci.lo, ci.hi) == (0.7, 0.7)

    def test_deterministic_given_seed(self):
        samples = [0.1, 0.4, 0.9, 0.3, 0.6]
        a = bootstrap_ci(samples, resamples=2000, seed=5)
        b = bootstrap_ci(samples, resamples=2000, seed=5)
        assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_interval_contains_sample_mean_on_binary_fixture(self):
        successes = [1.0] * 11 + [0.0] * 189  # the random-agent success fixture profile
        ci = bootstrap_ci(successes, resamples=4000, seed=7)
        assert ci.lo <= np.mean(successes) <= ci.hi

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            bootstrap_ci([])


class TestSummarize:
    def make_record(self, agent, success, task_index=0):
        return {"agent": agent, "success": success, "task_index": task_index}

    def test_constant_group(self):
        rows = summarize([self.make_record("a", 1.0) for _ in range(5)])
        assert rows == [("a", SummaryStats(1.0, 0.0, 5))]

    def test_two_point_group(self):
        ((_, stats),) = summarize([self.make_record("a", 1.0), self.make_record("a", 0.0)])
        assert stats.mean == 0.5
        assert stats.std == pytest.approx(math.sqrt(0.5), abs=1e-12)  # n-1 denominator

    def test_round_trip_of_prescribed_moments(self):
        rng = np.random.default_rng(12)
        records = []
        expected = {}
        for agent in ("fast", "slow", "wild"):
            values = rng.random(17)
            expected[agent] = (values.mean(), values.std(ddof=1), 17)
            records.extend(self.make_record(agent, float(v)) for v in values)
        for agent, stats in summarize(records):
            mean, std, n = expected[agent]
            assert stats.mean == pytest.approx(mean) and stats.std == pytest.approx(std) and stats.n == n

    def test_sorted_by_descending_mean(self):
        records = [self.make_record("low", 0.1), self.make_record("high", 0.9), self.make_record("mid", 0.5)]
        assert [name for name, _ in summarize(records)] == ["high", "mid", "low"]

    def test_group_by_agent_and_task(self):
        records = [self.make_record("a", 1.0, task_index=0), self.make_record("a", 0.0, task_index=1)]
        rows = summarize(records, group_by=("agent", "task"))
        assert {key: stats.n for key, stats in rows} == {("a", 0): 1, ("a", 1): 1}
        assert all(stats.std == 0.0 for _, stats in rows)  # singleton convention

    def test_empty_input_gives_empty_table(self):
        assert summarize([]) == []


class TestSummarizeAgainstNumpy:
    """numpy's mean and n-1 std are the oracle; ``summarize`` sums with ``math.fsum``, so the last bits may differ."""

    @pytest.mark.parametrize("kind", ["binary", "uniform"])
    def test_moments_and_rendered_rows_match_numpy(self, kind):
        rng = np.random.default_rng(18)
        records, expected = [], []
        for g in range(200):
            n = int(rng.integers(2, 1200))
            values = rng.integers(0, 2, n).astype(float) if kind == "binary" else rng.random(n)
            records += [{"agent": f"g{g}", "success": float(v), "task_index": 0} for v in values]
            expected.append((f"g{g}", SummaryStats(float(values.mean()), float(values.std(ddof=1)), n)))
        got = dict(summarize(records))
        for agent, stats in expected:
            assert got[agent].n == stats.n
            assert got[agent].mean == pytest.approx(stats.mean, rel=1e-12)
            assert got[agent].std == pytest.approx(stats.std, rel=1e-12)

        def table(rows):
            return format_summary_table([(agent, stats, 0, ci_normal(stats, clip=True)) for agent, stats in rows])
        assert table((agent, got[agent]) for agent, _ in expected) == table(expected)


class TestNumericsOracle:
    def test_incomplete_beta_matches_scipy(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            a = float(rng.uniform(0.1, 60))
            b = float(rng.uniform(0.1, 60))
            x = float(rng.uniform(0, 1))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                float(sp_special.betainc(a, b, x)), abs=1e-12
            )

    def test_t_cdf_matches_scipy(self):
        for dof in (1, 2, 3.5, 6, 30, 194.7):
            for t in (-50, -6, -2.19, -0.3, 0.0, 0.7, 3.1, 12, 80):
                assert student_t_cdf(t, dof) == pytest.approx(
                    float(sp_stats.t.cdf(t, dof)), abs=1e-12
                )


class TestTypesAndFormatting:
    def test_invariant_validation(self):
        with pytest.raises(DomainError):
            SummaryStats(0.5, -0.1, 3)
        with pytest.raises(DomainError):
            SummaryStats(0.5, 0.1, 0)
        with pytest.raises(DomainError):
            Interval(0.5, 0.4, 0.95)
        with pytest.raises(DomainError):
            Interval(-0.1, 0.5, 0.95, clipped=True)

    def test_summary_table_text_layout(self):
        rows = [("steady", SummaryStats(0.798, 0.333, 195), 3, ci_normal(SummaryStats(0.798, 0.333, 195), clip=True))]
        text = format_summary_table(rows)
        assert text.splitlines()[0].split() == ["agent", "mean", "std", "n", "failed", "95%", "CI"]
        assert "steady  0.798  0.333  195       3  [0.751, 0.845]" in text

    def test_summary_table_csv(self):
        stats = SummaryStats(0.25, 0.5, 4)
        text = format_summary_table([("a", stats, 1, ci_normal(stats, clip=True))], fmt="csv")
        assert text.splitlines() == ["agent,mean,std,n,failed,ci_lo,ci_hi", "a,0.250,0.500,4,1,0.000,0.740"]

    def test_gap_table_csv(self):
        drop, ci = drop_ci(SummaryStats(0.794, 0.336, 195), SummaryStats(0.133, 0.135, 5))
        text = format_gap_table([("planner", 0.794, 0.133, drop, ci)], fmt="csv")
        assert text.splitlines()[1] == "planner,0.794,0.133,0.661,0.534,0.788"

    def test_three_decimal_round_half_even(self):
        stats = SummaryStats(0.0625, 0.0, 1)  # exactly representable half case: 0.0625 -> 0.062
        text = format_summary_table([("x", stats, 0, ci_normal(stats))], fmt="csv")
        assert ",0.062," in text.splitlines()[1]
