"""Golden transcripts: pinned SHA-256 digests of ``episodes.jsonl``.

A refactor or optimization that claims to keep behaviour must keep these
digests. A deliberate change to the log schema or to an agent's decisions
re-pins them in the same change and says why. At parallelism 2 desk plays
in a process pool whatever the host's CPU count, so the digests also pin
the pool's output order. The short runs cover few decisions, so desk and
default are also pinned at full size, where one changed tie among
thousands of decisions shows. Full default, the slowest test of the suite,
runs at parallelism 2 only. The bulk benchmark workload's shape (``id``
protocol, 12-cell tapes, ``random``, ``tabular_q`` and a bridge serving
``random`` from a child process) is pinned at a few episodes per task, as
the only golden run of the bridge and of ``tabular_q`` on 12-cell tapes.
Every line of every golden run is also checked, where it is written, to
equal ``json.dumps`` over its record dict, which the log line writer does
not build.

The report of the desk run and the theory check's largest deviation are
pinned too, so that a change to reporting or to the belief layer shows in
the bytes it moves. So are the Student-t numerics that every reported
interval and p-value rests on: the ``repr`` of the incomplete beta, the t
CDF and both t-tests at fixed inputs, where the scipy comparisons in
``test_stats.py`` hold only within a tolerance. The interval bounds get
the same pins: a bootstrap interval at a fixed seed, both reference drop
rows, and a normal interval with and without clipping.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from rulebench import harness, run_experiment
from rulebench.belief import verify_theory
from rulebench.codec import from_json
from rulebench.harness import ExperimentConfig, load_config
from rulebench.report import render_report
from rulebench.stats import (SummaryStats, bootstrap_ci, ci_normal, drop_ci, paired_t, regularized_incomplete_beta,
                             student_t_cdf, welch_t)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# perfbench/workloads.py's bulk config at its pinned seed, with 3 episodes per task instead of 32
BULK = {
    "name": "bulk",
    "split": {"protocol": "id", "candidate_rules": [30, 54, 60, 90, 105, 110, 122, 126], "split_seed": 3,
              "n_train_tasks": 8, "n_test_tasks": 8, "train_lengths": [12], "test_lengths": [12], "horizon": 32},
    "agents": [{"kind": "random"}, {"kind": "tabular_q"},
               {"kind": "bridge", "bridge_command": [sys.executable, "-m", "rulebench.cli", "bridge-serve", "random"]}],
    "episodes_per_task": 3,
    "base_seed": 2024,
    "output_dir": "",
}

# name -> (config file or config, field overrides, digest of episodes.jsonl, parallelisms)
GOLDEN = {
    "smoke": ("smoke.json", {}, "0b88bc4f00e0dfd73d4b114ac1be171cb5f94448b46ec0a3deb9c695c6c4e8a7", (1, 2)),
    # desk at 5 episodes per task: the shape and digest the desk benchmark workload pins
    "desk": ("desk.json", {"episodes_per_task": 5},
             "0a792dac059076f79ce496cb63e7bccafbef1037cb1374252d4465a7e0bd954f", (1, 2)),
    # default at 1 episode per task: the only golden run on L=16 tapes at both parallelisms
    "default": ("default.json", {"episodes_per_task": 1},
                "d04cac0a64a168345b0d9c9d4ea8009ccca564c68fec664819058d8467939cdd", (1, 2)),
    "desk-full": ("desk.json", {}, "0d586b30faa3c83f4a369311e7021b5cf8febfec94232af88d0e392d2364722e", (1, 2)),
    "default-full": ("default.json", {}, "50b6a7f39d05509a16f4d904595d8783bf12abab490741feacdb5a2d47ed269c", (2,)),
    "bulk": (BULK, {}, "fed22b3cdf2a70ed9ef136424541010306dd41c563b92a08fd31c9366b5fae77", (1, 2)),
}
# fmt -> digest of render_report(<the desk golden run>, "ood", fmt)'s text
REPORT_DIGESTS = {
    "text": "f40cb5440869c97296aad568cddf79566804c8e0b4445189f73971649e6cdfde",
    "csv": "bb55e8249eeb6f569e0ecefdbda4a7b47172acc028b887d79b0c02fe57559c8a",
}
THEORY_MAX_DEVIATION = "1.3322676295501878e-15"  # repr of verify_theory(500, seed=0).max_deviation
# (a, b, x) crossing small and large a and b, with x on both sides of the continued fraction's switch at (a+1)/(a+b+2)
BETA_GRID = [(a, b, x) for a in (0.5, 1.0, 2.5, 30.0, 400.0) for b in (0.5, 3.0, 150.0)
             for x in (0.001, 0.2, 0.5, 0.8, 0.999)]
BETA_GRID_DIGEST = "42a8805f92f72773ccff4ae8eb64998538b8f0a7e93e99e2af8458b922db6653"  # of the newline-joined reprs
# (t, dof) -> repr of student_t_cdf(t, dof), at integer and fractional dof
T_CDF = {
    (-3.5, 1): "0.08858553278290468",
    (-1.0, 2): "0.2113248654051873",
    (0.0, 7): "0.5",
    (0.4, 30): "0.6540047417429029",
    (2.1, 2.5): "0.9277487776225781",
    (12.0, 11.37): "0.9999999581652058",
    (1.96, 1000): "0.9748634075221222",
    (-0.7, 0.6): "0.3322690360992685",
}
SAMPLE_A = [0.61, 0.55, 0.72, 0.48, 0.66, 0.59, 0.7]
SAMPLE_B = [0.41, 0.52, 0.38, 0.47, 0.35]
SAMPLE_C = [0.58, 0.5, 0.69, 0.51, 0.6, 0.62, 0.64]  # paired with SAMPLE_A
WELCH_T = "(4.264962425483891, 9.752130053178993, 0.001746453473533712)"  # (statistic, dof, p_value)
PAIRED_T = "(1.6434520313776277, 6.0, 0.15139471965785625)"
BOOTSTRAP_CI = "(0.5557142857142857, 0.6714285714285715)"  # (lo, hi) of SAMPLE_A, 2000 resamples, seed 7
# ((id mean, std, n), (ood mean, std, n)) -> repr of (drop, lo, hi): the reference rows of test_stats.py
DROP_CI = {
    ((0.794, 0.336, 195), (0.133, 0.135, 5)): "(0.661, 0.5336157737575621, 0.788384226242438)",
    ((0.546, 0.408, 195), (0.307, 0.328, 5)): "(0.23900000000000005, -0.05415246041292887, 0.532152460412929)",
}
# clip -> repr of (lo, hi) of ci_normal(SummaryStats(0.05, 0.4, 5), clip=clip)
CI_NORMAL = {False: "(-0.30061545887196706, 0.40061545887196703)", True: "(0.0, 0.40061545887196703)"}
CASES = sorted((name, parallelism) for name, golden in GOLDEN.items() for parallelism in golden[3])


def golden_config(name: str, output_dir, parallelism: int) -> ExperimentConfig:
    source, overrides, _, _ = GOLDEN[name]
    config = load_config(CONFIGS / source) if isinstance(source, str) else from_json(ExperimentConfig, source)
    return dataclasses.replace(config, output_dir=str(output_dir), parallelism=parallelism, **overrides)


@pytest.mark.parametrize("name,parallelism", CASES)
def test_episode_log_digest(name, parallelism, tmp_path, pools, monkeypatch):
    checked, log_line = [], harness._log_line

    def checked_log_line(result, task_text, task_index, episode_index):  # runs in the pool's workers too
        line = log_line(result, task_text, task_index, episode_index)
        record = dict(result.to_record(), task_index=task_index, episode_index=episode_index)
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        checked.append(line)
        return line

    monkeypatch.setattr(harness, "_log_line", checked_log_line)
    config = golden_config(name, tmp_path, parallelism)
    run_experiment(config)
    log = (tmp_path / "episodes.jsonl").read_bytes()
    assert hashlib.sha256(log).hexdigest() == GOLDEN[name][2]
    workers = min(parallelism, len(config.agents))  # smoke has one agent, desk six, default five, bulk three
    assert pools == ([workers] if workers > 1 else [])
    if workers == 1:  # a worker's list stays in the worker
        assert "".join(checked).encode() == log


def test_report_digests(tmp_path):
    run_experiment(golden_config("desk", tmp_path, 1))
    assert hashlib.sha256((tmp_path / "episodes.jsonl").read_bytes()).hexdigest() == GOLDEN["desk"][2]
    for fmt, report_digest in REPORT_DIGESTS.items():
        text, warnings = render_report(tmp_path, "ood", fmt)
        assert warnings == []
        assert hashlib.sha256(text.encode()).hexdigest() == report_digest, fmt


def test_theory_max_deviation():
    assert repr(verify_theory(500, seed=0).max_deviation) == THEORY_MAX_DEVIATION


def test_incomplete_beta_grid_digest():
    assert {x < (a + 1.0) / (a + b + 2.0) for a, b, x in BETA_GRID} == {True, False}  # both branches
    text = "\n".join(repr(regularized_incomplete_beta(a, b, x)) for a, b, x in BETA_GRID)
    assert hashlib.sha256(text.encode()).hexdigest() == BETA_GRID_DIGEST


def test_student_t_cdf_pins():
    assert {key: repr(student_t_cdf(*key)) for key in T_CDF} == T_CDF


def test_t_test_pins():
    welch = welch_t(SAMPLE_A, SAMPLE_B)
    paired = paired_t(zip(SAMPLE_A, SAMPLE_C))
    assert repr((welch.statistic, welch.dof, welch.p_value)) == WELCH_T
    assert repr((paired.statistic, paired.dof, paired.p_value)) == PAIRED_T


def test_interval_pins():
    ci = bootstrap_ci(SAMPLE_A, resamples=2000, seed=7)
    assert repr((ci.lo, ci.hi)) == BOOTSTRAP_CI
    drops = {}
    for id_row, ood_row in DROP_CI:
        drop, ci = drop_ci(SummaryStats(*id_row), SummaryStats(*ood_row))
        drops[id_row, ood_row] = repr((drop, ci.lo, ci.hi))
    assert drops == DROP_CI
    cis = {clip: ci_normal(SummaryStats(0.05, 0.4, 5), clip=clip) for clip in CI_NORMAL}
    assert {clip: repr((ci.lo, ci.hi)) for clip, ci in cis.items()} == CI_NORMAL
