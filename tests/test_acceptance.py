"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Criterion 3 is expected to fail; its assertion message carries the
full analysis (8 of the 14 reference drop intervals are not derivable from
their own (mean, std, n) inputs, while all 14 drops and the other 6 intervals
reproduce exactly).
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from rulebench import (
    AgentConfig,
    Belief,
    ConfigError,
    ExperimentConfig,
    InconsistentObservationError,
    SplitSpec,
    SummaryStats,
    Tape,
    Transition,
    bootstrap_ci,
    ci_normal,
    drop_ci,
    make_split,
    paired_t,
    posterior_update,
    run_experiment,
    verify_split,
    verify_theory,
    welch_t,
)
from rulebench.ca import step_bits
from rulebench.cli import main as cli_main
from rulebench.codec import to_json
from rulebench.env import Action
from rulebench.harness import load_run
from rulebench.seeding import make_rng
from rulebench.splits import Split, save_split_manifest
from rulebench.stats import student_t_cdf

from oracles import brute_consistent_rules, brute_step
from reference_tables import DROP_ROWS, ID_ROWS, OOD_ROWS


def conclude(criterion: int, ok: bool, detail: str, started: float, budget_s: float) -> float:
    elapsed = time.monotonic() - started
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[criterion {criterion:2d}] {status} — {detail} ({elapsed:.2f}s / budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {criterion} exceeded its {budget_s}s runtime budget"
    return elapsed


def interval_deviation(stats: SummaryStats, lo_ref: float, hi_ref: float) -> float:
    ci = ci_normal(stats, clip=True)
    return max(abs(ci.lo - lo_ref), abs(ci.hi - hi_ref))


class TestAcceptance:
    def test_criterion_01_id_interval_reproduction(self):
        started = time.monotonic()
        deviations = {
            name: interval_deviation(SummaryStats(mean, std, n), lo, hi)
            for name, mean, std, n, lo, hi in ID_ROWS
        }
        worst = max(deviations.values())
        ok = len(deviations) == 14 and worst <= 0.001
        conclude(1, ok, f"14 ID interval rows, max endpoint deviation {worst:.4f}", started, 1.0)
        assert ok, deviations

    def test_criterion_02_ood_interval_reproduction(self):
        started = time.monotonic()
        deviations = {
            name: interval_deviation(SummaryStats(mean, std, n), lo, hi)
            for name, mean, std, n, lo, hi in OOD_ROWS
        }
        worst = max(deviations.values())
        ok = len(deviations) == 14 and worst <= 0.001
        conclude(2, ok, f"14 OOD interval rows, max endpoint deviation {worst:.4f}", started, 1.0)
        assert ok, deviations

    def test_criterion_03_drop_table_reproduction(self):
        started = time.monotonic()
        id_stats = {name: SummaryStats(mean, std, n) for name, mean, std, n, _, _ in ID_ROWS}
        ood_stats = {name: SummaryStats(mean, std, n) for name, mean, std, n, _, _ in OOD_ROWS}
        drop_failures, interval_failures = [], []
        for name, drop_ref, lo_ref, hi_ref in DROP_ROWS:
            drop, ci = drop_ci(id_stats[name], ood_stats[name])
            if abs(drop - drop_ref) > 0.001:
                drop_failures.append(f"{name}: drop {drop:.3f} vs reference {drop_ref:.3f}")
            if max(abs(ci.lo - lo_ref), abs(ci.hi - hi_ref)) > 0.001:
                interval_failures.append(
                    f"{name}: computed [{ci.lo:.3f}, {ci.hi:.3f}] vs reference [{lo_ref:.3f}, {hi_ref:.3f}]"
                )
        ok = not drop_failures and not interval_failures
        conclude(3, ok,
                 f"all 14 drops reproduce: {not drop_failures}; "
                 f"{14 - len(interval_failures)}/14 difference intervals reproduce",
                 started, 1.0)
        assert not drop_failures, drop_failures
        assert not interval_failures, (
            "these reference drop intervals are not consistent with their own (mean, std, n) rows "
            "under the documented half-width 1.96*sqrt(sa^2/na + sb^2/nb). No alternative constant "
            "multiplier reproduces them either (the implied per-row multipliers range from ~1.46 to "
            "~2.55, in both directions), and the implied OOD standard deviations match no reference "
            "column, so the intervals cannot be derived from the published inputs. The drop values "
            "themselves and the remaining 6 intervals reproduce to within 0.001.\n  - "
            + "\n  - ".join(interval_failures)
        )

    def test_criterion_04_information_gain_identities(self):
        started = time.monotonic()
        report = verify_theory(trials=1000, seed=20240)
        ok = report.passed and report.trials == 1000 and report.max_deviation <= 1e-9
        conclude(4, ok, f"1000 trials, max pairwise deviation {report.max_deviation:.3e}", started, 30.0)
        assert ok, report

    def test_criterion_05_exhaustive_ca_oracle(self):
        started = time.monotonic()
        checked = 0
        for length in range(3, 9):
            for rule in range(256):
                for bits in range(1 << length):
                    cells = [(bits >> i) & 1 for i in range(length)]
                    expected = brute_step(cells, rule)
                    got = step_bits(bits, length, rule)
                    assert [(got >> i) & 1 for i in range(length)] == expected, (rule, length, bits)
                    checked += 1
        ok = checked == 256 * sum(1 << length for length in range(3, 9))
        conclude(5, ok, f"{checked} exhaustive rule/tape updates agree with the brute-force oracle", started, 60.0)
        assert ok

    def test_criterion_06_posterior_soundness(self):
        started = time.monotonic()
        rng = make_rng(606)
        fired, survived = 0, 0
        collapsed = 0
        for _ in range(100):
            length = int(rng.integers(3, 9))
            k = int(rng.integers(3, 13))
            support = tuple(int(r) for r in rng.choice(256, size=k, replace=False))
            true_rule = int(support[int(rng.integers(0, k))])
            cells = [int(b) for b in rng.integers(0, 2, size=length)]
            trajectory = []
            for _ in range(int(rng.integers(2, 9))):
                a = int(rng.integers(0, length + 1))
                edited = [1 - c if i == a else c for i, c in enumerate(cells)] if a < length else list(cells)
                nxt = brute_step(edited, true_rule)
                trajectory.append((list(cells), a, nxt))
                cells = nxt

            def transitions():
                for s, a, nxt in trajectory:
                    yield Transition(Tape.from_cells(s), Action.from_order_index(a, length), Tape.from_cells(nxt))

            belief = Belief.uniform(support)
            for t in transitions():
                belief = posterior_update(belief, t)  # must never raise with the true rule present
            assert belief.prob_of(true_rule) > 0.0
            consistent = brute_consistent_rules(support, trajectory)
            if consistent == {true_rule}:
                collapsed += 1
                assert belief.prob_of(true_rule) == pytest.approx(1.0, abs=1e-12)

            reduced = tuple(r for r in support if r != true_rule)
            should_fire = not (consistent - {true_rule})
            try:
                belief = Belief.uniform(reduced)
                for t in transitions():
                    belief = posterior_update(belief, t)
                survived += 1
                assert not should_fire, "update should have raised: no remaining rule explains the data"
            except InconsistentObservationError:
                fired += 1
                assert should_fire, "update raised although a consistent rule remained"
        ok = fired > 0 and survived > 0 and collapsed > 0
        conclude(6, ok,
                 f"100 fixtures: {collapsed} distinguishing trajectories collapsed to the true rule; "
                 f"after removing it the error fired {fired}x and was rightly absent {survived}x",
                 started, 30.0)
        assert ok

    def test_criterion_07_split_validity_and_corruption_refusal(self, tmp_path):
        started = time.monotonic()
        rng = make_rng(707)
        for trial in range(100):
            k = int(rng.integers(4, 40))
            candidates = tuple(int(r) for r in rng.choice(256, size=k, replace=False))
            spec = SplitSpec(protocol="holdout_rule", candidate_rules=candidates,
                             split_seed=int(rng.integers(0, 2**32)),
                             n_train_tasks=3, n_test_tasks=3, train_lengths=(6,), test_lengths=(6,),
                             horizon=8, train_fraction=float(rng.uniform(0.2, 0.8)))
            split = make_split(spec)
            assert not set(split.train_rules) & set(split.test_rules)
            assert verify_split(split.train_tasks, split.test_tasks, spec).ok

        config = ExperimentConfig(
            name="refusal",
            split=SplitSpec(protocol="holdout_rule", candidate_rules=(0, 30, 90, 204), split_seed=1,
                            n_train_tasks=2, n_test_tasks=2, train_lengths=(6,), test_lengths=(6,), horizon=8),
            agents=(AgentConfig(kind="random"),),
            episodes_per_task=1,
            base_seed=1,
            output_dir=str(tmp_path / "run"),
        )
        split = make_split(config.split)
        corrupted = dataclasses.replace(split, test_tasks=split.test_tasks[:-1] + (split.train_tasks[0],))
        with pytest.raises(ConfigError):
            run_experiment(config, split=corrupted)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(to_json(config)))
        manifest_path = tmp_path / "corrupt-split.json"
        save_split_manifest(corrupted, manifest_path)
        refused = cli_main(["run", str(config_path), "--split-manifest", str(manifest_path)]) == 1
        no_logs = not (tmp_path / "run" / "episodes.jsonl").exists()
        ok = refused and no_logs
        conclude(7, ok, "100/100 holdout splits disjoint and verified; corrupted manifest refused", started, 5.0)
        assert ok

    def test_criterion_08_directional_generalization_gap(self, tmp_path):
        started = time.monotonic()
        candidates = (30, 54, 60, 90, 105, 110, 122, 126, 150, 182, 204, 225, 240)
        agents = (
            AgentConfig(kind="belief_mpc", plan_horizon=4, rollout_budget=64, exact_mixture=True),
            AgentConfig(kind="oracle_mpc", plan_horizon=4, rollout_budget=64),
        )
        ood_spec = SplitSpec(protocol="holdout_rule", candidate_rules=candidates, split_seed=3,
                             n_train_tasks=8, n_test_tasks=5, train_lengths=(8,), test_lengths=(8,),
                             horizon=16, train_fraction=8 / 13)
        ood_split = make_split(ood_spec)
        assert len(ood_split.train_rules) == 8 and len(ood_split.test_rules) == 5
        id_spec = SplitSpec(protocol="id", candidate_rules=ood_split.train_rules, split_seed=3,
                            n_train_tasks=8, n_test_tasks=5, train_lengths=(8,), test_lengths=(8,), horizon=16)

        run_experiment(ExperimentConfig(name="ood", split=ood_spec, agents=agents, episodes_per_task=30,
                                        base_seed=2024, output_dir=str(tmp_path / "ood"), parallelism=4))
        run_experiment(ExperimentConfig(name="id", split=id_spec, agents=agents, episodes_per_task=30,
                                        base_seed=2024, output_dir=str(tmp_path / "id"), parallelism=4))

        def successes(run_dir, agent):
            _, records = load_run(run_dir)
            return {(r["task_index"], r["episode_index"]): r["success"] for r in records if r["agent"] == agent}

        id_success = successes(tmp_path / "id", "belief_mpc")
        ood_success = successes(tmp_path / "ood", "belief_mpc")
        pairs = [(id_success[key], ood_success[key]) for key in sorted(id_success)]
        id_mean = float(np.mean([a for a, _ in pairs]))
        ood_mean = float(np.mean([b for _, b in pairs]))
        gap_test = paired_t(pairs)
        belief_gap = id_mean > ood_mean and gap_test.p_value < 0.05

        # the same heldout TaskSpecs presented inside an id-protocol split: the
        # oracle's per-task results must not depend on the split context at all
        matched_spec = SplitSpec(protocol="id", candidate_rules=candidates, split_seed=3,
                                 n_train_tasks=13, n_test_tasks=5, train_lengths=(8,), test_lengths=(8,),
                                 horizon=16)
        matched = Split(spec=matched_spec, train_rules=candidates, test_rules=candidates,
                        train_tasks=ood_split.train_tasks + ood_split.test_tasks,
                        test_tasks=ood_split.test_tasks)
        run_experiment(ExperimentConfig(name="matched", split=matched_spec, agents=agents[1:],
                                        episodes_per_task=30, base_seed=2024,
                                        output_dir=str(tmp_path / "matched"), parallelism=4),
                       split=matched)
        _, ood_records = load_run(tmp_path / "ood")
        _, matched_records = load_run(tmp_path / "matched")
        oracle_ood = [json.dumps(r, sort_keys=True) for r in ood_records if r["agent"] == "oracle_mpc"]
        oracle_matched = [json.dumps(r, sort_keys=True) for r in matched_records]
        oracle_invariant = oracle_ood == oracle_matched and len(oracle_ood) == 150

        ok = belief_gap and oracle_invariant
        conclude(8, ok,
                 f"belief planner: ID {id_mean:.3f} vs OOD {ood_mean:.3f} over {len(pairs)} pairs "
                 f"(paired p={gap_test.p_value:.2e}); oracle bit-identical on matched tasks: {oracle_invariant}",
                 started, 600.0)
        assert ok

    def test_criterion_09_parallelism_determinism(self, tmp_path):
        started = time.monotonic()
        base = ExperimentConfig(
            name="determinism",
            split=SplitSpec(protocol="holdout_rule", candidate_rules=(0, 30, 90, 110, 204, 232),
                            split_seed=9, n_train_tasks=3, n_test_tasks=3,
                            train_lengths=(6,), test_lengths=(6,), horizon=8),
            agents=(AgentConfig(kind="random"),
                    AgentConfig(kind="belief_mpc", plan_horizon=2, rollout_budget=16),
                    AgentConfig(kind="tabular_q")),
            episodes_per_task=4,
            base_seed=31,
            output_dir=str(tmp_path / "p1"),
            parallelism=1,
        )
        run_experiment(base)
        logs = [(tmp_path / "p1" / "episodes.jsonl").read_bytes()]
        for workers in (2, 8):
            cfg = dataclasses.replace(base, parallelism=workers, output_dir=str(tmp_path / f"p{workers}"))
            run_experiment(cfg)
            logs.append((tmp_path / f"p{workers}" / "episodes.jsonl").read_bytes())
        ok = logs[0] == logs[1] == logs[2] and len(logs[0]) > 0
        conclude(9, ok, "episode logs byte-identical at parallelism 1, 2, and 8", started, 120.0)
        assert ok

    def test_criterion_10_statistical_self_tests(self):
        started = time.monotonic()
        # Welch collapses to the pooled test under equal sizes and variances
        rng = make_rng(1010)
        max_gap = 0.0
        for _ in range(50):
            a = rng.normal(0, 1, size=10)
            b = rng.permutation(a) + rng.normal()
            ours = welch_t(a, b)
            pooled_var = (np.var(a, ddof=1) + np.var(b, ddof=1)) / 2
            pooled_stat = float((a.mean() - b.mean()) / np.sqrt(pooled_var / 5))
            pooled_p = 2 * (1 - student_t_cdf(abs(pooled_stat), 18))
            max_gap = max(max_gap, abs(ours.statistic - pooled_stat), abs(ours.dof - 18.0), abs(ours.p_value - pooled_p))
        welch_ok = max_gap <= 1e-9

        hits = 0
        trials = 1000
        data_rng = make_rng(2718, "coverage")
        for trial in range(trials):
            x = data_rng.normal(0.0, 1.0, size=30)
            ci = bootstrap_ci(x, resamples=2000, seed=trial)
            hits += ci.lo <= 0.0 <= ci.hi
        coverage = hits / trials
        coverage_ok = 0.91 <= coverage <= 0.98

        degenerate_ok = (
            paired_t([(0.5, 0.5)] * 4).p_value == 1.0
            and paired_t([(1.0, 0.0)] * 3).p_value < 1e-12
            and welch_t([1.0, 1.0], [1.0, 1.0]).p_value == 1.0
            and welch_t([0.0] * 4, [1.0] * 4).p_value < 1e-12
        )

        ok = welch_ok and coverage_ok and degenerate_ok
        conclude(10, ok,
                 f"Welch reduction gap {max_gap:.1e}; bootstrap coverage {coverage:.3f}; "
                 f"degenerate-case conventions hold: {degenerate_ok}",
                 started, 120.0)
        assert ok
