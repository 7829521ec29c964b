"""Command-line entry point.

Subcommands::

  rulebench run <config.json> [--output-dir DIR] [--split-manifest FILE] [--force]
  rulebench report <log_dir> --mode {id,ood,gap} [--fmt {text,csv}]
  rulebench verify-theory [--trials N] [--seed S]
  rulebench verify-split <manifest.json>    (a split manifest or a run's manifest.json)
  rulebench bridge-serve <kind> [--rules CSV] [--agent-config FILE]

Exit codes: 0 success, 1 validation failure (a bad config, manifest or
command line), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .agents import AgentConfig, make_agent
from .codec import from_json
from .errors import ConfigError, DomainError
from .harness import EPISODE_LOG, MANIFEST_FILE, load_config, render_report, run_experiment, verify_theory
from .splits import load_split_manifest, verify_split

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rulebench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--output-dir", type=Path, default=None)
    run_p.add_argument("--split-manifest", type=Path, default=None,
                       help="run against a previously generated split manifest instead of regenerating")
    run_p.add_argument("--force", action="store_true", help="replace the run already in the output directory")

    report_p = sub.add_parser("report", help="render tables from run logs")
    report_p.add_argument("log_dir", type=Path)
    report_p.add_argument("--mode", choices=("id", "ood", "gap"), required=True)
    report_p.add_argument("--fmt", choices=("text", "csv"), default="text")

    theory_p = sub.add_parser("verify-theory", help="check the information-gain identities")
    theory_p.add_argument("--trials", type=int, default=1000)
    theory_p.add_argument("--seed", type=int, default=0)

    split_p = sub.add_parser("verify-split", help="validate a split manifest")
    split_p.add_argument("manifest", type=Path)

    bridge_p = sub.add_parser("bridge-serve", help="serve a built-in agent over stdin/stdout")
    bridge_p.add_argument("kind")
    bridge_p.add_argument("--rules", default=None, help="comma-separated hypothesis rules for belief agents")
    bridge_p.add_argument("--agent-config", type=Path, default=None, help="JSON file of agent config fields")

    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.output_dir is not None:
        config = dataclasses.replace(config, output_dir=str(args.output_dir))
    for name in (EPISODE_LOG, MANIFEST_FILE):
        path = Path(config.output_dir) / name
        if path.exists() and not args.force:
            raise ConfigError(f"{path} already exists; pass --force to replace the run")
    split = load_split_manifest(args.split_manifest) if args.split_manifest is not None else None
    manifest = run_experiment(config, split=split)
    ok = sum(1 for e in manifest.seed_table if e["status"] == "ok")
    failed = len(manifest.seed_table) - ok
    print(f"run {config.name!r}: {ok} episodes ok, {failed} failed -> {config.output_dir}")
    return EXIT_OK


def _cmd_report(args) -> int:
    text, warnings = render_report(args.log_dir, args.mode, args.fmt)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(text)
    return EXIT_OK


def _cmd_verify_theory(args) -> int:
    report = verify_theory(args.trials, args.seed)
    print(report.to_text())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_verify_split(args) -> int:
    try:
        split = load_split_manifest(args.manifest)
    except ConfigError as exc:  # a manifest its own spec does not generate
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report = verify_split(split.train_tasks, split.test_tasks, split.spec)
    if report.ok:
        print(f"split manifest {args.manifest} is valid "
              f"({len(split.train_tasks)} train / {len(split.test_tasks)} test tasks)")
        return EXIT_OK
    for violation in report.violations:
        print(f"violation: {violation}", file=sys.stderr)
    return EXIT_VALIDATION


def _cmd_bridge_serve(args) -> int:
    from .bridge import serve

    fields = {}
    if args.agent_config is not None:
        fields = from_json(dict, json.loads(args.agent_config.read_text()), "agent")
    try:
        rules = tuple(int(r) for r in args.rules.split(",")) if args.rules else tuple(range(256))
    except ValueError:
        raise ConfigError(f"--rules must be comma-separated integers, got {args.rules!r}") from None
    agent = make_agent(from_json(AgentConfig, dict(fields, kind=args.kind), "agent"), rules)
    serve(agent)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the problem; exit code 2 is its usage error
        return EXIT_VALIDATION if exc.code == 2 else exc.code
    handlers = {
        "run": _cmd_run,
        "report": _cmd_report,
        "verify-theory": _cmd_verify_theory,
        "verify-split": _cmd_verify_split,
        "bridge-serve": _cmd_bridge_serve,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, DomainError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failure distinct from bad input
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
