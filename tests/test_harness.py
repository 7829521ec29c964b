import dataclasses
import itertools
import json
import re
import time
from pathlib import Path

import pytest

from rulebench import (
    AgentConfig,
    ConfigError,
    ExperimentConfig,
    SplitSpec,
    make_split,
    run_experiment,
    verify_theory,
)
from rulebench import harness
from rulebench.agents import Agent, make_agent
from rulebench.cli import main as cli_main
from rulebench.codec import from_json, to_json
from rulebench.harness import cell_seed, load_config, load_run, render_report
from rulebench.splits import save_split_manifest


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_config(output_dir, parallelism=1, agents=None) -> ExperimentConfig:
    return ExperimentConfig(
        name="small",
        split=SplitSpec(protocol="holdout_rule", candidate_rules=(0, 30, 90, 110, 204, 232),
                        split_seed=2, n_train_tasks=3, n_test_tasks=3,
                        train_lengths=(6,), test_lengths=(6,), horizon=8),
        agents=agents or (AgentConfig(kind="random"),
                          AgentConfig(kind="belief_mpc", plan_horizon=2, rollout_budget=16)),
        episodes_per_task=3,
        base_seed=77,
        output_dir=str(output_dir),
        parallelism=parallelism,
    )


class TestRunExperiment:
    def test_parallelism_does_not_change_logs(self, tmp_path, pools):
        agents = (AgentConfig(kind="random"), AgentConfig(kind="tabular_q"),
                  AgentConfig(kind="belief_mpc", plan_horizon=2, rollout_budget=16))
        cfg1 = small_config(tmp_path / "p1", parallelism=1, agents=agents)
        cfg8 = dataclasses.replace(cfg1, parallelism=8, output_dir=str(tmp_path / "p8"))
        serial = run_experiment(cfg1)
        pooled = run_experiment(cfg8)
        assert pools == [3]  # capped by the agent configs
        assert pooled.seed_table == serial.seed_table
        log1 = (tmp_path / "p1" / "episodes.jsonl").read_bytes()
        log8 = (tmp_path / "p8" / "episodes.jsonl").read_bytes()
        assert log1 == log8

    def test_one_agent_starts_no_pool(self, tmp_path, pools):
        run_experiment(small_config(tmp_path / "run", parallelism=4, agents=(AgentConfig(kind="random"),)))
        assert pools == []
        assert (tmp_path / "run" / "episodes.jsonl").exists()

    def test_failed_bridge_cells_are_the_same_in_the_pool(self, tmp_path, pools):
        agents = (AgentConfig(kind="random"),
                  AgentConfig(kind="bridge", name="absent", bridge_command=(str(tmp_path / "no-such-agent"),)))
        serial = run_experiment(small_config(tmp_path / "p1", agents=agents))
        pooled = run_experiment(small_config(tmp_path / "p2", parallelism=2, agents=agents))
        assert pools == [2]
        assert pooled.seed_table == serial.seed_table
        statuses = {e["agent"]: e["status"] for e in pooled.seed_table}
        assert statuses["random"] == "ok" and statuses["absent"].startswith("failed: agent 'absent' failed to start")

    def test_rerun_reproduces_seed_table(self, tmp_path):
        cfg = small_config(tmp_path / "a")
        first = run_experiment(cfg)
        second = run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / "b")))
        assert first.seed_table == second.seed_table

    def test_seed_table_covers_exactly_the_cells(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        manifest = run_experiment(cfg)
        expected = {(a.name, ti, ei)
                    for a in cfg.agents for ti in range(3) for ei in range(cfg.episodes_per_task)}
        entries = {(e["agent"], e["task_index"], e["episode_index"]) for e in manifest.seed_table}
        assert entries == expected
        for entry in manifest.seed_table:
            assert entry["seed"] == cell_seed(77, entry["agent"], entry["task_index"], entry["episode_index"])

    def test_ok_entries_match_log_lines(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        manifest = run_experiment(cfg)
        _, records = load_run(tmp_path / "run")
        logged = {(r["agent"], r["task_index"], r["episode_index"]) for r in records}
        ok = {(e["agent"], e["task_index"], e["episode_index"])
              for e in manifest.seed_table if e["status"] == "ok"}
        assert logged == ok

    def test_outputs_are_in_agent_task_episode_order(self, tmp_path):
        by_name = (AgentConfig(kind="belief_mpc", plan_horizon=2, rollout_budget=16),
                   AgentConfig(kind="random"), AgentConfig(kind="tabular_q"))
        listed_reversed = small_config(tmp_path / "reversed", agents=by_name[::-1])
        manifest = run_experiment(listed_reversed)
        run_experiment(dataclasses.replace(listed_reversed, agents=by_name, output_dir=str(tmp_path / "sorted")))
        cells = [(e["agent"], e["task_index"], e["episode_index"]) for e in manifest.seed_table]
        assert cells == sorted(cells) and len(cells) == 3 * 3 * 3
        log = (tmp_path / "reversed" / "episodes.jsonl").read_bytes()
        assert log == (tmp_path / "sorted" / "episodes.jsonl").read_bytes()
        _, records = load_run(tmp_path / "reversed")
        assert [(r["agent"], r["task_index"], r["episode_index"]) for r in records] == cells

    def test_given_split_is_recorded_as_the_configs(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        split = make_split(dataclasses.replace(cfg.split, split_seed=99))
        manifest = run_experiment(cfg, split=split)
        assert manifest.config["split"] == manifest.split["spec"]
        written = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert written["config"]["split"]["split_seed"] == written["split"]["spec"]["split_seed"] == 99

    def test_adding_an_agent_leaves_other_seeds_alone(self):
        assert cell_seed(77, "random", 1, 2) == cell_seed(77, "random", 1, 2)
        assert cell_seed(77, "random", 1, 2) != cell_seed(77, "belief_mpc", 1, 2)

    def test_crash_isolation(self, tmp_path, monkeypatch):
        class CrashingAgent(Agent):
            def begin_episode(self, task, obs, seed):
                pass

            def act(self, obs):
                raise RuntimeError("synthetic agent fault")

        real_make_agent = make_agent

        def patched(cfg, rules=()):
            if cfg.name == "crashy":
                return CrashingAgent("crashy")
            return real_make_agent(cfg, rules)

        monkeypatch.setattr("rulebench.harness.make_agent", patched)
        cfg = small_config(tmp_path / "run",
                           agents=(AgentConfig(kind="random"), AgentConfig(kind="random", name="crashy")))
        manifest = run_experiment(cfg)
        statuses = {e["agent"]: set() for e in manifest.seed_table}
        for e in manifest.seed_table:
            statuses[e["agent"]].add(e["status"].split(":")[0])
        assert statuses["crashy"] == {"failed"}
        assert statuses["random"] == {"ok"}
        _, records = load_run(tmp_path / "run")
        assert {r["agent"] for r in records} == {"random"}
        assert len(records) == 9

    def test_corrupted_split_aborts_before_any_episode(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        split = make_split(cfg.split)
        corrupted = dataclasses.replace(split, test_tasks=split.test_tasks[:-1] + (split.train_tasks[0],))
        with pytest.raises(ConfigError, match="split verification failed"):
            run_experiment(cfg, split=corrupted)
        assert not (tmp_path / "run" / "episodes.jsonl").exists()

    def test_failed_write_keeps_previous_outputs(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path / "run")
        run_experiment(cfg)
        before = {name: (tmp_path / "run" / name).read_bytes() for name in ("episodes.jsonl", "manifest.json")}

        calls = itertools.count()
        real_dumps = json.dumps
        open_files = []

        def failing_dumps(obj, **kwargs):
            if next(calls) == 3:  # partway through the episode log
                open_files.extend(sorted(p.name for p in (tmp_path / "run").iterdir()))
                raise OSError("simulated write failure")
            return real_dumps(obj, **kwargs)

        monkeypatch.setattr(harness.json, "dumps", failing_dumps)
        with pytest.raises(OSError, match="simulated"):
            run_experiment(dataclasses.replace(cfg, base_seed=78))
        monkeypatch.undo()
        assert open_files == ["episodes.jsonl", "episodes.jsonl.tmp", "manifest.json"]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["episodes.jsonl", "manifest.json"]
        for name, content in before.items():
            assert (tmp_path / "run" / name).read_bytes() == content

    def test_failed_manifest_write_keeps_previous_log(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path / "run")
        run_experiment(cfg)
        before = {name: (tmp_path / "run" / name).read_bytes() for name in ("episodes.jsonl", "manifest.json")}

        real_open = Path.open
        seen = []

        def failing_open(self, *args, **kwargs):
            if self.name == "manifest.json.tmp":  # after the whole new log is written
                seen.extend(sorted(p.name for p in self.parent.iterdir()))
                raise OSError(28, "simulated: no space left on device")
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", failing_open)
        with pytest.raises(OSError, match="no space"):
            run_experiment(dataclasses.replace(cfg, base_seed=78))
        monkeypatch.undo()
        assert seen == ["episodes.jsonl", "episodes.jsonl.tmp", "manifest.json"]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["episodes.jsonl", "manifest.json"]
        for name, content in before.items():
            assert (tmp_path / "run" / name).read_bytes() == content

    def test_failed_first_write_leaves_no_log(self, tmp_path, monkeypatch):
        def failing_dumps(obj, **kwargs):
            raise OSError("simulated write failure")

        monkeypatch.setattr(harness.json, "dumps", failing_dumps)
        with pytest.raises(OSError):
            run_experiment(small_config(tmp_path / "run"))
        monkeypatch.undo()
        assert list((tmp_path / "run").iterdir()) == []

    def test_play_returns_each_episode_as_its_final_line(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path / "run")
        results = []
        real_run_episode = harness.run_episode
        monkeypatch.setattr(harness, "run_episode", lambda *args: results.append(real_run_episode(*args)) or results[-1])
        lines, entries = harness._play(cfg.agents[1], make_split(cfg.split), cfg.base_seed, cfg.episodes_per_task)
        assert len(lines) == len(results) == len(entries) == 9
        for line, result, entry in zip(lines, results, entries):
            record = dict(result.to_record(), task_index=entry["task_index"], episode_index=entry["episode_index"])
            assert type(line) is str
            assert line == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

    def test_each_agents_lines_are_written_before_the_next_agent_plays(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path / "run")
        first, second = sorted(cfg.agents, key=lambda a: a.name)
        expected, _ = harness._play(first, make_split(cfg.split), cfg.base_seed, cfg.episodes_per_task)
        on_disk = []
        real_run_episode = harness.run_episode

        def watching(task, agent, seed):
            if agent.name == second.name and not on_disk:
                on_disk.append((tmp_path / "run" / "episodes.jsonl.tmp").read_bytes())
            return real_run_episode(task, agent, seed)

        monkeypatch.setattr(harness, "run_episode", watching)
        run_experiment(cfg)
        assert on_disk == ["".join(expected).encode()]
        assert (tmp_path / "run" / "episodes.jsonl").read_bytes().startswith(on_disk[0])

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_abort_after_lines_were_written_keeps_previous_outputs(self, tmp_path, monkeypatch, pools, parallelism):
        agents = (AgentConfig(kind="random"), AgentConfig(kind="tabular_q"))
        cfg = small_config(tmp_path / "run", agents=agents)
        run_experiment(cfg)
        before = {name: (tmp_path / "run" / name).read_bytes() for name in ("episodes.jsonl", "manifest.json")}

        faulty = dataclasses.replace(cfg, base_seed=78, parallelism=parallelism,
                                     agents=agents + (AgentConfig(kind="random", name="zz-last"),))
        split = make_split(cfg.split)
        written = "".join(line for a in agents for line in harness._play(a, split, 78, cfg.episodes_per_task)[0])
        real_run_episode = harness.run_episode

        def broken_last(task, agent, seed):
            if agent.name == "zz-last":
                raise KeyError("synthetic fault in the last agent")
            return real_run_episode(task, agent, seed)

        removed = {}
        real_unlink = Path.unlink

        def recording_unlink(self, *args, **kwargs):
            if self.suffix == ".tmp" and self.exists():
                removed[self.name] = self.read_text()
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(harness, "run_episode", broken_last)
        monkeypatch.setattr(Path, "unlink", recording_unlink)
        with pytest.raises(KeyError, match="synthetic fault"):
            run_experiment(faulty)
        monkeypatch.undo()
        assert pools == ([2] if parallelism == 2 else [])
        assert removed == {"episodes.jsonl.tmp": written}  # the earlier agents' lines had been written
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["episodes.jsonl", "manifest.json"]
        for name, content in before.items():
            assert (tmp_path / "run" / name).read_bytes() == content

    def test_smoke_config_under_five_seconds(self, tmp_path):
        cfg = ExperimentConfig(
            name="smoke",
            split=SplitSpec(protocol="holdout_rule", candidate_rules=(90, 204), split_seed=1,
                            n_train_tasks=1, n_test_tasks=1, train_lengths=(6,), test_lengths=(6,), horizon=8),
            agents=(AgentConfig(kind="random"),),
            episodes_per_task=2,
            base_seed=5,
            output_dir=str(tmp_path / "smoke"),
        )
        started = time.monotonic()
        run_experiment(cfg)
        assert time.monotonic() - started < 5.0


def write_synthetic_run(run_dir: Path, protocol: str, agent_successes: dict[str, list[float]]) -> None:
    """A minimal on-disk run: enough manifest to classify, one record per success."""
    run_dir.mkdir(parents=True)
    manifest = {
        "name": run_dir.name,
        "config": {},
        "split": {"spec": {"protocol": protocol}},
        "seed_table": [],
        "artifact_version": "0",
        "started_at": "",
        "finished_at": "",
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    with (run_dir / "episodes.jsonl").open("w") as fh:
        for agent, successes in agent_successes.items():
            for i, s in enumerate(successes):
                fh.write(json.dumps({"agent": agent, "success": s, "task_index": 0, "episode_index": i}) + "\n")


class TestReports:
    def test_engineered_row_reproduces_reference_line(self, tmp_path):
        # 134 wins, 21 losses, 40 partial scores solving mean = 0.798 exactly;
        # the sample std then lands on 0.333 at 3 decimals.
        partial = (0.798 * 195 - 134.0) / 40.0
        successes = [1.0] * 134 + [0.0] * 21 + [partial] * 40
        write_synthetic_run(tmp_path / "run", "id", {"steady-planner": successes})
        text, warnings = render_report(tmp_path / "run", "id")
        assert warnings == []
        assert "steady-planner  0.798  0.333  195  [0.751, 0.845]" in text

    def test_gap_report_pairs_runs_and_warns_on_missing_agents(self, tmp_path):
        write_synthetic_run(tmp_path / "id_run", "id", {"shared": [1.0, 1.0, 0.0, 1.0], "only-id": [1.0, 0.0]})
        write_synthetic_run(tmp_path / "ood_run", "holdout_rule", {"shared": [0.0, 0.0, 1.0, 0.0], "only-ood": [0.0, 1.0]})
        text, warnings = render_report(tmp_path, "gap")
        lines = text.splitlines()
        assert len(lines) == 2  # header plus exactly one shared agent
        assert lines[1].startswith("shared")
        assert "0.750" in lines[1] and "0.250" in lines[1] and "0.500" in lines[1]
        assert warnings == ["agent 'only-id' missing from the ood logs; omitted from the gap table",
                            "agent 'only-ood' missing from the id logs; omitted from the gap table"]

    def test_empty_directory_gives_empty_table_and_warnings(self, tmp_path):
        text, warnings = render_report(tmp_path, "id")
        assert text.splitlines() == ["agent  mean  std  n  95% CI"]
        assert len(warnings) > 0
        with pytest.raises(ConfigError):
            render_report(tmp_path / "missing", "id")

    def test_protocol_mismatch_warns(self, tmp_path):
        write_synthetic_run(tmp_path / "run", "holdout_rule", {"a": [1.0, 0.0]})
        _, warnings = render_report(tmp_path / "run", "id")
        assert len(warnings) == 1 and "protocol" in warnings[0]

    def test_csv_format(self, tmp_path):
        write_synthetic_run(tmp_path / "run", "id", {"a": [1.0, 0.0, 1.0, 0.0]})
        text, _ = render_report(tmp_path / "run", "id", fmt="csv")
        assert text.splitlines()[0] == "agent,mean,std,n,ci_lo,ci_hi"
        assert text.splitlines()[1].startswith("a,0.500,")


class TestVerifyTheory:
    def test_small_run_passes(self):
        report = verify_theory(200, seed=3)
        assert report.passed and report.max_deviation <= 1e-9 and report.violations == 0

    def test_zero_trials_is_marked_vacuous(self):
        report = verify_theory(0, seed=0)
        assert report.passed
        assert "0 trials" in report.to_text()

    def test_fixed_seed_reproducible(self):
        assert verify_theory(150, seed=11) == verify_theory(150, seed=11)

    def test_negative_trials_rejected(self):
        with pytest.raises(ConfigError):
            verify_theory(-1)


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(to_json(cfg), indent=2))
        assert load_config(path) == cfg

    def test_duplicate_agent_names_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unique"):
            small_config(tmp_path, agents=(AgentConfig(kind="random"), AgentConfig(kind="random")))

    def test_unknown_agent_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key agent.temperature"):
            from_json(AgentConfig, {"kind": "random", "temperature": 0.7}, "agent")

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.update(paralellism=2), "unknown config key paralellism"),
        (lambda d: d["split"].update(horizn=8), "unknown config key split.horizn"),
        (lambda d: d.pop("base_seed"), "missing config key base_seed"),
        (lambda d: d["split"].pop("split_seed"), "missing config key split.split_seed"),
        (lambda d: d.pop("split"), "missing config key split$"),
        (lambda d: d["agents"][1].update(rollout_budgett=8), r"unknown config key agents\[1\]\.rollout_budgett"),
        (lambda d: d["agents"][0].pop("kind"), r"missing config key agents\[0\]\.kind"),
        (lambda d: d["agents"][1].update(exact_mixture="false"),
         r"config key agents\[1\]\.exact_mixture must be a boolean, got a string"),
        (lambda d: d["agents"][0].update(agent_seed="3"),
         r"config key agents\[0\]\.agent_seed must be an integer, got a string"),
        (lambda d: d["agents"][1].update(plan_horizon=2.0),
         r"config key agents\[1\]\.plan_horizon must be an integer, got a number"),
        (lambda d: d.update(episodes_per_task="2"), "config key episodes_per_task must be an integer, got a string"),
        (lambda d: d.update(episodes_per_task=2.5), "config key episodes_per_task must be an integer, got a number"),
        (lambda d: d.update(base_seed=1.5), "config key base_seed must be an integer, got a number"),
        (lambda d: d.update(parallelism=True), "config key parallelism must be an integer, got a boolean"),
        (lambda d: d.update(name=5), "config key name must be a string, got an integer"),
        (lambda d: d["split"].update(train_lengths=6), "config key split.train_lengths must be an array, got an integer"),
        (lambda d: d["split"].update(candidate_rules="90"),
         "config key split.candidate_rules must be an array, got a string"),
        (lambda d: d.update(agents=d["agents"][0]), "config key agents must be an array, got an object"),
    ])
    def test_unknown_and_missing_keys_name_their_path(self, tmp_path, edit, message):
        data = to_json(small_config(tmp_path / "out"))
        edit(data)
        with pytest.raises(ConfigError, match=message):
            from_json(ExperimentConfig, data)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_configs_round_trip(self, path):
        cfg = load_config(path)
        assert from_json(ExperimentConfig, to_json(cfg)) == cfg

    def test_float_key_accepts_an_integer(self, tmp_path):
        data = to_json(small_config(tmp_path / "out"))
        data["agents"][1]["ig_weight"] = 1
        assert from_json(ExperimentConfig, data).agents[1].ig_weight == 1.0

    @pytest.mark.parametrize("value,spelled", [(float("nan"), "NaN"), (float("inf"), "Infinity"),
                                               (float("-inf"), "-Infinity")])
    def test_float_key_refuses_a_non_finite_number(self, tmp_path, value, spelled):
        data = to_json(small_config(tmp_path / "out"))
        data["agents"][1]["ig_weight"] = value
        message = rf"^config key agents\[1\]\.ig_weight must be a finite number, got {spelled}$"
        with pytest.raises(ConfigError, match=message):
            from_json(ExperimentConfig, data)
        with pytest.raises(ConfigError, match=rf"^config must be a finite number, got {spelled}$"):
            from_json(float, value)

    def test_optional_keys_take_their_defaults(self, tmp_path):
        data = to_json(small_config(tmp_path / "out"))
        del data["parallelism"]
        del data["split"]["candidate_rules"]
        cfg = from_json(ExperimentConfig, data)
        assert cfg.parallelism == 1 and cfg.split.candidate_rules == tuple(range(256))


class TestCli:
    def write_config(self, tmp_path) -> Path:
        cfg = small_config(tmp_path / "out")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(to_json(cfg), indent=2))
        return path

    def test_run_and_report(self, tmp_path, capsys):
        config_path = self.write_config(tmp_path)
        assert cli_main(["run", str(config_path)]) == 0
        assert "episodes ok" in capsys.readouterr().out
        assert cli_main(["report", str(tmp_path / "out"), "--mode", "ood"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("agent")

    def test_verify_theory_exit_codes(self, capsys):
        assert cli_main(["verify-theory", "--trials", "50", "--seed", "2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_split_accepts_valid_and_rejects_corrupt(self, tmp_path, capsys):
        cfg = small_config(tmp_path / "out")
        split = make_split(cfg.split)
        good = tmp_path / "split.json"
        save_split_manifest(split, good)
        assert cli_main(["verify-split", str(good)]) == 0

        corrupted = dataclasses.replace(split, test_tasks=split.test_tasks[:-1] + (split.train_tasks[0],))
        bad = tmp_path / "corrupt.json"
        save_split_manifest(corrupted, bad)
        assert cli_main(["verify-split", str(bad)]) == 1
        assert "violation" in capsys.readouterr().err

    def test_run_refuses_corrupted_split_manifest(self, tmp_path, capsys):
        config_path = self.write_config(tmp_path)
        cfg = load_config(config_path)
        split = make_split(cfg.split)
        corrupted = dataclasses.replace(split, test_tasks=split.test_tasks[:-1] + (split.train_tasks[0],))
        manifest_path = tmp_path / "corrupt.json"
        save_split_manifest(corrupted, manifest_path)
        assert cli_main(["run", str(config_path), "--split-manifest", str(manifest_path)]) == 1
        assert "split verification failed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "episodes.jsonl").exists()

    @pytest.mark.parametrize("argv,message", [
        (["report", "."], "the following arguments are required: --mode"),
        (["verify-theory", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
        (["bridge-serve", "random", "--rules", "30,x"], "--rules must be comma-separated integers, got '30,x'"),
    ])
    def test_bad_command_line_is_validation_failure(self, capsys, argv, message):
        assert cli_main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("rules,message", [
        ("30,300", "rule must be in [0, 255], got 300"),
        ("30,30", "belief support must not contain duplicates"),
    ])
    def test_bad_belief_rules_refused_before_serving(self, monkeypatch, capsys, rules, message):
        served = []
        monkeypatch.setattr("rulebench.bridge.serve", served.append)
        assert cli_main(["bridge-serve", "belief_mpc", "--rules", rules]) == 1
        assert message in capsys.readouterr().err
        assert served == []

    def test_unmakeable_output_dir_refused_before_any_episode(self, tmp_path, monkeypatch, capsys):
        config_path = self.write_config(tmp_path)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        episodes = []
        real_run_episode = harness.run_episode
        monkeypatch.setattr(harness, "run_episode", lambda *args: episodes.append(args) or real_run_episode(*args))
        assert cli_main(["run", str(config_path), "--output-dir", str(blocker / "run")]) == 1
        assert f"cannot create output directory {blocker / 'run'}" in capsys.readouterr().err
        assert episodes == []

    @pytest.mark.parametrize("name", ["episodes.jsonl", "manifest.json"])
    def test_run_refuses_a_directory_holding_a_run(self, tmp_path, monkeypatch, capsys, name):
        config_path = self.write_config(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / name).write_text("previous\n")
        episodes = []
        monkeypatch.setattr(harness, "run_episode", lambda *args: episodes.append(args))
        assert cli_main(["run", str(config_path)]) == 1
        assert f"{tmp_path / 'out' / name} already exists; pass --force" in capsys.readouterr().err
        assert episodes == []
        assert (tmp_path / "out" / name).read_text() == "previous\n"

    def test_force_replaces_a_run_and_an_empty_directory_is_used(self, tmp_path, capsys):
        config_path = self.write_config(tmp_path)
        (tmp_path / "out").mkdir()
        assert cli_main(["run", str(config_path)]) == 0
        log = (tmp_path / "out" / "episodes.jsonl").read_bytes()
        (tmp_path / "out" / "episodes.jsonl").write_text("")
        assert cli_main(["run", str(config_path), "--force"]) == 0
        assert (tmp_path / "out" / "episodes.jsonl").read_bytes() == log

    def test_fault_in_a_worker_is_runtime_failure_with_no_outputs(self, tmp_path, monkeypatch, capsys, pools):
        def broken(task, agent, seed):
            raise KeyError(f"synthetic fault in {agent.name}")

        monkeypatch.setattr(harness, "run_episode", broken)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(to_json(small_config(tmp_path / "out", parallelism=2))))
        assert cli_main(["run", str(config_path)]) == 2
        assert "runtime failure: 'synthetic fault in belief_mpc'" in capsys.readouterr().err
        assert pools == [2]
        assert list((tmp_path / "out").iterdir()) == []

    def test_agent_config_file_must_hold_an_object(self, tmp_path, capsys):
        path = tmp_path / "agent.json"
        path.write_text("[1]")
        assert cli_main(["bridge-serve", "random", "--agent-config", str(path)]) == 1
        assert "config key agent must be an object, got an array" in capsys.readouterr().err

    def test_missing_config_is_validation_failure(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "nope.json")]) == 1

    def test_misspelled_config_key_is_validation_failure(self, tmp_path, capsys):
        config_path = self.write_config(tmp_path)
        data = json.loads(config_path.read_text())
        data["split"]["horizn"] = data["split"].pop("horizon")
        config_path.write_text(json.dumps(data))
        assert cli_main(["run", str(config_path)]) == 1
        assert "split.horizn" in capsys.readouterr().err

    @pytest.mark.parametrize("name,edit,message", [
        ("manifest.json", lambda d: d.pop("split"), "missing config key manifest.split$"),
        ("manifest.json", lambda d: d["split"].pop("spec"), "missing config key manifest.split.spec"),
        ("manifest.json", lambda d: d["split"]["spec"].pop("protocol"),
         "missing config key manifest.split.spec.protocol"),
        ("episodes.jsonl", lambda d: d.pop("success"), "missing key success in .*episodes.jsonl line 1"),
    ])
    def test_report_on_malformed_run_is_validation_failure(self, tmp_path, capsys, name, edit, message):
        assert cli_main(["run", str(self.write_config(tmp_path))]) == 0
        path = tmp_path / "out" / name
        lines = path.read_text().splitlines()
        data = json.loads(lines[0] if name == "episodes.jsonl" else "\n".join(lines))
        edit(data)
        path.write_text(json.dumps(data) + "\n" + "\n".join(lines[1:] if name == "episodes.jsonl" else []))
        capsys.readouterr()
        assert cli_main(["report", str(tmp_path / "out"), "--mode", "ood"]) == 1
        assert re.search(message, capsys.readouterr().err)

    def test_runtime_key_error_is_runtime_failure(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr("rulebench.cli.run_experiment", broken)
        assert cli_main(["run", str(self.write_config(tmp_path))]) == 2
        assert "runtime failure" in capsys.readouterr().err

    def test_run_refuses_manifest_leaking_test_rules(self, tmp_path, capsys):
        config_path = self.write_config(tmp_path)
        split = make_split(load_config(config_path).split)
        leaky = dataclasses.replace(split, train_rules=split.train_rules + split.test_rules)
        manifest_path = tmp_path / "leaky.json"
        save_split_manifest(leaky, manifest_path)
        assert cli_main(["run", str(config_path), "--split-manifest", str(manifest_path)]) == 1
        assert "'train_rules'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "episodes.jsonl").exists()

    def test_run_refuses_tabular_q_on_a_manifest_of_longer_tapes(self, tmp_path, capsys):
        config = json.loads((CONFIGS / "smoke.json").read_text())
        config["agents"].append({"kind": "tabular_q"})
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        manifest_path = tmp_path / "split.json"
        save_split_manifest(make_split(dataclasses.replace(load_config(config_path).split, test_lengths=(13,))),
                            manifest_path)
        out = tmp_path / "out"
        argv = ["run", str(config_path), "--split-manifest", str(manifest_path), "--output-dir", str(out)]
        assert cli_main(argv) == 1
        assert "agents[1]: tabular_q supports lengths up to 12, got 13 in split.test_lengths" in capsys.readouterr().err
        assert not out.exists()

    def smoke_run(self, tmp_path) -> Path:
        """The run directory of ``configs/smoke.json``, run through the CLI."""
        assert cli_main(["run", str(CONFIGS / "smoke.json"), "--output-dir", str(tmp_path / "smoke")]) == 0
        return tmp_path / "smoke"

    def test_verify_split_reads_a_runs_manifest(self, tmp_path, capsys):
        manifest_path = self.smoke_run(tmp_path) / "manifest.json"
        assert cli_main(["verify-split", str(manifest_path)]) == 0

        manifest = json.loads(manifest_path.read_text())
        manifest["split"]["train_rules"].append(manifest["split"]["test_rules"][0])
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli_main(["verify-split", str(manifest_path)]) == 1
        assert "'train_rules'" in capsys.readouterr().err

    def test_split_manifest_run_records_the_spec_it_ran(self, tmp_path):
        manifest_path = self.smoke_run(tmp_path) / "manifest.json"
        config = json.loads((CONFIGS / "smoke.json").read_text())
        config["split"]["split_seed"] = 99
        config_path = tmp_path / "reseeded.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "rerun"
        argv = ["run", str(config_path), "--split-manifest", str(manifest_path), "--output-dir", str(out)]
        assert cli_main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["split"] == manifest["split"]["spec"]
        assert manifest["split"]["spec"]["split_seed"] == 1

    @pytest.mark.parametrize("edit,message", [
        (lambda c: c["agents"].append({"kind": "belief_mpc", "plan_horizon": 0}),
         "agents[1]: plan_horizon must be >= 1"),
        (lambda c: c["split"].update(candidate_rules=[90, 300]), "split: rule must be in [0, 255], got 300"),
        (lambda c: c["agents"].append({"kind": "tabular_q", "q_learning_rate": -5.0}),
         "agents[1]: q_learning_rate must be in (0, 1]"),
        (lambda c: c["split"].update(train_lengths=[65]),
         "split: train_lengths must be non-empty, each in [3, 64], got (65,)"),
        (lambda c: c["split"].update(test_lengths=[6, 65]),
         "split: test_lengths must be non-empty, each in [3, 64], got (6, 65)"),
        (lambda c: c["split"].update(test_lengths=[2]), "split: test_lengths must be non-empty, each in [3, 64], got (2,)"),
        (lambda c: (c["split"].update(test_lengths=[13]), c["agents"].append({"kind": "tabular_q"})),
         "agents[1]: tabular_q supports lengths up to 12, got 13 in split.test_lengths"),
        # Python's json writes and reads NaN and Infinity; the config refuses them, naming the key.
        (lambda c: c["agents"][0].update(bridge_deadline=float("nan")),
         "config key agents[0].bridge_deadline must be a finite number, got NaN"),
        (lambda c: c["agents"][0].update(bridge_deadline=float("inf")),
         "config key agents[0].bridge_deadline must be a finite number, got Infinity"),
    ])
    def test_range_error_names_its_object(self, tmp_path, capsys, edit, message):
        config = json.loads((CONFIGS / "smoke.json").read_text())
        edit(config)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert cli_main(["run", str(config_path), "--output-dir", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
