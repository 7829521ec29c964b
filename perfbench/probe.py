"""Fresh-process probes of rulebench's set-up and reporting paths.

  python3 probe.py setup  <config.json> <out.json>
      import the CLI, then load_config, make_split and verify_split
  python3 probe.py report <run_dir> <out.json>
      import the CLI, then load_run and summary_report

Writes the time of each step to ``out.json``. The caller times the whole
process from outside; these inner times split it by layer.
"""

from __future__ import annotations

import json
import sys
import time


def main(mode: str, target: str, out: str) -> int:
    t0 = time.perf_counter()
    import rulebench.cli  # noqa: F401  (the import users pay for)
    from rulebench import harness, splits

    times = {"cli.import_s": time.perf_counter() - t0}
    if mode == "setup":
        t = time.perf_counter()
        config = harness.load_config(target)
        times["harness.load_config_s"] = time.perf_counter() - t
        t = time.perf_counter()
        split = splits.make_split(config.split)
        times["splits.make_split_ms"] = (time.perf_counter() - t) * 1e3
        t = time.perf_counter()
        report = splits.verify_split(split.train_tasks, split.test_tasks, split.spec)
        times["splits.verify_split_ms"] = (time.perf_counter() - t) * 1e3
        if not report.ok:
            print("split verification failed: " + "; ".join(report.violations), file=sys.stderr)
            return 1
    elif mode == "report":
        t = time.perf_counter()
        _, records = harness.load_run(target)
        times["harness.load_run_s"] = time.perf_counter() - t
        t = time.perf_counter()
        harness.summary_report(records)
        times["stats.summary_s"] = time.perf_counter() - t
    else:
        print(f"unknown probe mode {mode!r}", file=sys.stderr)
        return 2
    with open(out, "w") as fh:
        json.dump(times, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
