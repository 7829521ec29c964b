"""rulebench benchmark: end-to-end runs and a traced per-layer breakdown.

  python3 perfbench/run.py --workload {desk,bulk} [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; rulebench is imported from its ``src/``.
Every timed repetition is a fresh process, because the kernel's cache and
the import cost belong to the process and users pay them on every run.

``--trace 0`` measures, for ``--seconds`` seconds, rounds of fresh processes:
one ``rulebench run`` of the workload, then set-up probes alternating with
``rulebench report`` runs of its logs. It reports the median of each
end-to-end metric in BENCHMARK.json.

``--trace 1`` runs the workload twice untraced and twice traced (see
tracer.py), plus fresh set-up, report and microbenchmark probes, and reports
every per-layer metric in BENCHMARK.json. The two traced runs must agree
exactly on the counts in ``EXACT_COUNTS``.

Every run's logs are checked: all repetitions must be byte-identical, every
transition must replay under an independent rule table (replay.py), and at
the default seed the log must match its pinned SHA-256 (workloads.py).

Outputs go to a temporary directory under ``.perfbench-out/`` that is removed
after the run; the run record (host, source digest, every raw sample, median
and quartiles) is kept there as JSON. Every metric is printed with its unit,
and the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import replay  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170  # the whole run, children included, ends before this
MIN_ROUNDS = 3
PROBES_PER_ROUND = 3
TRACED_RUNS = 2
EXACT_COUNTS = (
    "ca.step_calls",
    "agents.plan_mpc.rollout_steps",
    "agents.plan_mpc.calls",
    "agents.act.calls",
    "belief.posterior_update.calls",
    "belief.info_gain.calls",
    "belief.inconsistent_obs",
    "bridge.round_trips",
    "env.episodes",
    "env.steps",
    "harness.log_bytes",
)


class ChildFailed(RuntimeError):
    pass


class Session:
    """Fresh child processes, run one at a time, inside one temporary directory."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.started = time.perf_counter()
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, *argv) -> tuple[float, os.struct_rusage]:
        """Run ``python3 argv...`` to completion; returns (wall seconds, its resource usage)."""
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise ChildFailed("out of time before starting " + " ".join(map(str, argv)))
        errors = self.tmp / "stderr.txt"
        with open(errors, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *map(str, argv)], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = errors.read_text()[-2000:]
            raise ChildFailed(f"{' '.join(map(str, argv))} exited with {proc.returncode}:\n{tail}")
        return wall, usage

    def run(self, config: Path, out_dir: Path) -> tuple[float, os.struct_rusage]:
        return self.child("-m", "rulebench.cli", "run", config, "--output-dir", out_dir)

    def probe(self, mode: str, target: Path) -> tuple[float, dict]:
        out = self.tmp / "probe.json"
        wall, _ = self.child(HERE / "probe.py", mode, target, out)
        return wall, json.loads(out.read_text())


class OutputCheck:
    """Checks every run's episode log; counts cells attempted and failed."""

    def __init__(self, config: dict, pinned: str | None):
        self.cells = {
            (agent.get("name", agent["kind"]), task, episode)
            for agent in config["agents"]
            for task in range(config["split"]["n_test_tasks"])
            for episode in range(config["episodes_per_task"])
        }
        self.pinned = pinned
        self.replayed: dict[str, tuple[list[str], int]] = {}
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, run_dir: Path) -> tuple[int, int]:
        """Check one run; returns (episodes logged, transitions logged)."""
        log = run_dir / "episodes.jsonl"
        digest = hashlib.sha256(log.read_bytes()).hexdigest()
        if digest not in self.replayed:
            self.replayed[digest] = replay.check_log(log, self.cells)
        problems, steps = self.replayed[digest]
        self.digests.append(digest)
        self.attempted += len(self.cells)
        self.failed += len(problems)
        return len(self.cells) - len(problems), steps

    def problems(self) -> list[str]:
        found = [p for problems, _ in self.replayed.values() for p in problems[:5]]
        if len(set(self.digests)) > 1:
            found.append(f"runs of one config wrote different logs: {sorted(set(self.digests))}")
        if self.pinned and self.digests and self.digests[0] != self.pinned:
            found.append(f"log digest {self.digests[0]} != pinned {self.pinned}")
        return found


def summary(samples: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def measure(session: Session, workload: str, config_path: Path, check: OutputCheck, seconds: float) -> tuple[dict, dict]:
    """End-to-end rounds until ``seconds`` are used; returns (metric values, raw samples).

    A round is one ``rulebench run`` followed by ``PROBES_PER_ROUND`` set-up
    probes alternating with as many ``rulebench report`` runs of its logs.
    Set-up and report last a fraction of a second, mostly interpreter start
    and imports, so they get several samples a round. One untimed round
    first warms the page cache and byte-compiles a fresh checkout.
    """
    names = ("wall_s", "episodes_per_s", "steps_per_s", "setup_s", "report_s", "peak_rss_mb", "run_cpu_s")
    samples: dict[str, list[float]] = {k: [] for k in names}
    mode = workloads.REPORT_MODE[workload]

    def one_round(run_dir: Path) -> dict[str, list[float]]:
        wall, usage = session.run(config_path, run_dir)
        episodes, steps = check(run_dir)
        got = {
            "wall_s": [wall],
            "episodes_per_s": [episodes / wall],
            "steps_per_s": [steps / wall],
            "peak_rss_mb": [usage.ru_maxrss / 1024.0],
            "run_cpu_s": [usage.ru_utime + usage.ru_stime],  # for the record: wall minus this is waiting
            "setup_s": [],
            "report_s": [],
        }
        for _ in range(PROBES_PER_ROUND):
            got["setup_s"].append(session.probe("setup", config_path)[0])
            got["report_s"].append(session.child("-m", "rulebench.cli", "report", run_dir, "--mode", mode)[0])
        shutil.rmtree(run_dir)
        return got

    one_round(session.tmp / "warmup")
    start = session.elapsed()
    rounds = 0
    while rounds < MIN_ROUNDS or session.elapsed() + (session.elapsed() - start) / rounds <= start + seconds:
        for k, v in one_round(session.tmp / f"run{rounds}").items():
            samples[k].extend(v)
        rounds += 1
    return {k: statistics.median(v) for k, v in samples.items()}, samples


def trace(session: Session, workload: str, config_path: Path, check: OutputCheck, seed: int) -> tuple[dict, dict, dict]:
    """Untraced and traced runs plus probes; returns (metrics, raw samples, extra record)."""
    samples: dict[str, list[float]] = {}

    def add(values: dict):
        for k, v in values.items():
            samples.setdefault(k, []).append(v)

    session.probe("setup", config_path)  # warm-up, as in measure()
    for _ in range(3):
        add({k: v for k, v in session.probe("setup", config_path)[1].items()
             if k in ("cli.import_s", "splits.make_split_ms")})

    tails, counts, untraced, traced = {}, [], [], []
    for i in range(TRACED_RUNS):  # untraced and traced runs alternate, so drift hits both alike
        run_dir = session.tmp / f"untraced{i}"
        wall, _ = session.run(config_path, run_dir)
        check(run_dir)
        untraced.append(wall)
        if i == 0:
            manifest = json.loads((run_dir / "manifest.json").read_text())
            add({k: v for k, v in session.probe("report", run_dir)[1].items()
                 if k in ("harness.load_run_s", "stats.summary_s")})
        shutil.rmtree(run_dir)

        run_dir = session.tmp / f"traced{i}"
        spans = session.tmp / "spans.json"
        wall, _ = session.child(HERE / "tracer.py", config_path, run_dir, spans)
        check(run_dir)
        layers, tails = tracer.layer_metrics(spans)
        layers["harness.log_bytes"] = (run_dir / "episodes.jsonl").stat().st_size
        shutil.rmtree(run_dir)
        spans.unlink()
        add(layers)
        counts.append({k: layers[k] for k in EXACT_COUNTS})
        traced.append(wall)
    add({"trace.overhead_fraction": statistics.median(traced) / statistics.median(untraced) - 1.0})
    add({"harness.cells_failed": sum(1 for e in manifest["seed_table"] if e["status"] != "ok")})

    micro_out = session.tmp / "micro.json"
    session.child(HERE / "micro.py", seed, micro_out)
    micro = json.loads(micro_out.read_text())
    add({k: v["value"] for k, v in micro.items()})

    values = {k: statistics.median(v) for k, v in samples.items()}
    values.update(counts[0])  # whole numbers, equal in every traced run when exact_counts_agree
    extra = {
        "exact_counts": counts,
        "exact_counts_agree": all(c == counts[0] for c in counts),
        "tails": tails,
        "micro": micro,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
    }
    return values, samples, extra


def host_note() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() if done.returncode == 0 else None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "rulebench" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no rulebench checkout at {ROOT} (need src/rulebench and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        session = Session(tmp)
        config = workloads.make_config(args.workload, args.seed, str(tmp / "unused"))
        config_path = tmp / "config.json"
        config_path.write_text(json.dumps(config, indent=2))
        pinned = workloads.PINNED_DIGESTS[args.workload] if args.seed == workloads.DEFAULT_SEED else None
        check = OutputCheck(config, pinned)
        if args.trace:
            values, samples, extra = trace(session, args.workload, config_path, check, args.seed)
        else:
            values, samples = measure(session, args.workload, config_path, check, args.seconds)
            extra = {}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json names metrics this run did not produce: {missing}", file=sys.stderr)
        return 1
    problems = check.problems()
    if args.trace and not extra["exact_counts_agree"]:
        problems.append(f"traced runs disagree on exact counts: {extra['exact_counts']}")
    correct = not problems and check.failed == 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_note(),
        **source_identity(),
        "config": config,
        "log_sha256": sorted(set(check.digests)),
        "correct": correct,
        "problems": problems,
        "metrics": {m["name"]: {"unit": m["unit"], **summary(samples[m["name"]]), "samples": samples[m["name"]]}
                    for m in wanted},
        "other_samples": {k: {**summary(v), "samples": v} for k, v in samples.items()
                          if k not in {m["name"] for m in wanted}},
        **extra,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    width = max(len(m["name"]) for m in wanted)
    for m in wanted:
        s = record["metrics"][m["name"]]
        print(f"{m['name']:<{width}}  {values[m['name']]:>14.6g} {m['unit']:<6} "
              f"(median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
