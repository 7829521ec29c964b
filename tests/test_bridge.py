import io
import json
import subprocess
import sys
import time

import pytest

from rulebench import AgentConfig, AgentError, ExperimentConfig, SplitSpec, TaskSpec, run_experiment
from rulebench.agents import Agent, make_agent
from rulebench.bridge import PROTOCOL_VERSION, BridgeAgent, serve
from rulebench.codec import to_json
from rulebench.env import Action, Tape, make_target, run_episode
from rulebench.harness import load_run

SERVE_RANDOM = (sys.executable, "-m", "rulebench.cli", "bridge-serve", "random")

SLOW_SCRIPT = "import sys, time\nfor line in sys.stdin:\n    time.sleep(5)\n"
FUTURE_VERSION_SCRIPT = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    print(json.dumps({'v': 2, 'type': 'hello', 'agent': 'future'}))\n"
    "    sys.stdout.flush()\n"
)
FLIP_TRUE_SCRIPT = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    kind = json.loads(line)['type']\n"
    "    action = {'kind': 'flip', 'index': True}\n"
    "    print(json.dumps({'v': 1, 'type': 'hello'} if kind == 'hello' else {'v': 1, 'type': 'act', 'action': action}))\n"
    "    sys.stdout.flush()\n"
)
GARBAGE_SCRIPT = "import sys\nfor line in sys.stdin:\n    print('{not-json')\n    sys.stdout.flush()\n"
# Answers every request with a no-op; after a done step it leaves half a line unread and exits.
EXIT_AFTER_EPISODE_SCRIPT = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    message = json.loads(line)\n"
    "    reply = {'v': 1, 'type': 'act', 'action': {'kind': 'no_op'}}\n"
    "    if message['type'] == 'hello':\n"
    "        reply = {'v': 1, 'type': 'hello'}\n"
    "    sys.stdout.write(json.dumps(reply) + '\\n' + ('{left-over' if message.get('done') else ''))\n"
    "    sys.stdout.flush()\n"
    "    if message.get('done'):\n"
    "        break\n"
)
# Writes each reply in two flushed halves, 0.1 s apart.
SPLIT_REPLY_SCRIPT = (
    "import sys, json, time\n"
    "for line in sys.stdin:\n"
    "    kind = json.loads(line)['type']\n"
    "    reply = json.dumps({'v': 1, 'type': 'hello'} if kind == 'hello' else\n"
    "                       {'v': 1, 'type': 'act', 'action': {'kind': 'flip', 'index': 2}}) + '\\n'\n"
    "    for half in (reply[:len(reply) // 2], reply[len(reply) // 2:]):\n"
    "        sys.stdout.write(half)\n"
    "        sys.stdout.flush()\n"
    "        time.sleep(0.1)\n"
)
HALF_LINE_SCRIPT = "import sys, time\nsys.stdout.write('{\"v\": 1, ')\nsys.stdout.flush()\ntime.sleep(30)\n"


def script_command(body: str) -> tuple[str, ...]:
    return (sys.executable, "-c", body)


def recorded_processes(monkeypatch) -> list[subprocess.Popen]:
    """Every process the bridge starts from now on, for checks after the bridge let go of it."""
    started = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return started


def demo_task(rule=110, length=6, horizon=8, seed=5) -> TaskSpec:
    return TaskSpec(rule, length, horizon, make_target(rule, length, seed), seed)


class TestBridgeFidelity:
    def test_served_random_agent_reproduces_in_process_transcript(self):
        task = demo_task()
        bridged = BridgeAgent(AgentConfig(kind="bridge", name="random", bridge_command=SERVE_RANDOM,
                                          bridge_deadline=30.0))
        try:
            via_bridge = run_episode(task, bridged, episode_seed=9).to_record()
        finally:
            bridged.close()
        in_process = run_episode(task, make_agent(AgentConfig(kind="random")), episode_seed=9).to_record()
        assert via_bridge == in_process

    def test_reply_written_in_halves_is_read_as_one(self):
        agent = BridgeAgent(AgentConfig(kind="bridge", name="halves", bridge_command=script_command(SPLIT_REPLY_SCRIPT),
                                        bridge_deadline=5.0))
        try:
            agent.begin_episode(demo_task(), Tape.from_string("010101"), seed=0)
            assert agent.act(Tape.from_string("010101")) == Action.flip(2)
        finally:
            agent.close()

    def test_exited_process_is_closed_before_the_next_starts(self, monkeypatch):
        started = recorded_processes(monkeypatch)
        agent = BridgeAgent(AgentConfig(kind="bridge", name="one-shot",
                                        bridge_command=script_command(EXIT_AFTER_EPISODE_SCRIPT), bridge_deadline=5.0))
        try:
            run_episode(demo_task(), agent, episode_seed=1)
            started[0].wait(timeout=5)
            # The half line the first process left is not read as the second one's reply.
            run_episode(demo_task(), agent, episode_seed=2)
        finally:
            agent.close()
        first_proc, second_proc = started
        assert first_proc.stdin.closed and first_proc.stdout.closed

    def test_process_reused_across_episodes(self):
        task = demo_task()
        bridged = BridgeAgent(AgentConfig(kind="bridge", name="random", bridge_command=SERVE_RANDOM,
                                          bridge_deadline=30.0))
        try:
            run_episode(task, bridged, episode_seed=1)
            proc = bridged._proc
            run_episode(task, bridged, episode_seed=2)
            assert bridged._proc is proc
        finally:
            bridged.close()


class TestBridgeFailures:
    def test_timeout_raises_agent_error(self):
        cfg = AgentConfig(kind="bridge", name="slowpoke", bridge_command=script_command(SLOW_SCRIPT),
                          bridge_deadline=0.3)
        agent = BridgeAgent(cfg)
        with pytest.raises(AgentError, match="deadline"):
            agent.begin_episode(demo_task(), Tape.from_string("010101"), seed=0)

    def test_half_line_then_stall_fails_at_the_deadline(self):
        agent = BridgeAgent(AgentConfig(kind="bridge", name="stalled", bridge_command=script_command(HALF_LINE_SCRIPT),
                                        bridge_deadline=1.0))
        begun = time.monotonic()
        with pytest.raises(AgentError, match="deadline"):
            agent.begin_episode(demo_task(), Tape.from_string("010101"), seed=0)
        # the deadline, then at most 0.5 s waiting for the process to exit before it is killed
        assert time.monotonic() - begun < 1.0 + 0.5 + 1.0

    def test_version_mismatch_rejected_at_handshake(self):
        cfg = AgentConfig(kind="bridge", name="future", bridge_command=script_command(FUTURE_VERSION_SCRIPT),
                          bridge_deadline=5.0)
        agent = BridgeAgent(cfg)
        with pytest.raises(AgentError, match="version"):
            agent.begin_episode(demo_task(), Tape.from_string("010101"), seed=0)

    def test_malformed_response_aborts_episode(self):
        cfg = AgentConfig(kind="bridge", name="garbled", bridge_command=script_command(GARBAGE_SCRIPT),
                          bridge_deadline=5.0)
        agent = BridgeAgent(cfg)
        with pytest.raises(AgentError, match="malformed"):
            agent.begin_episode(demo_task(), Tape.from_string("010101"), seed=0)

    def test_wrong_typed_action_fails_the_cell_naming_the_field(self):
        agent = BridgeAgent(AgentConfig(kind="bridge", name="sloppy", bridge_command=script_command(FLIP_TRUE_SCRIPT),
                                        bridge_deadline=5.0))
        try:
            with pytest.raises(AgentError, match=r"config key action\.index must be an integer, got a boolean"):
                run_episode(demo_task(), agent, episode_seed=0)
        finally:
            agent.close()

    def test_close_releases_both_pipes(self, monkeypatch):
        started = recorded_processes(monkeypatch)
        agent = BridgeAgent(AgentConfig(kind="bridge", name="random", bridge_command=SERVE_RANDOM,
                                        bridge_deadline=30.0))
        run_episode(demo_task(), agent, episode_seed=1)
        agent.close()
        (proc,) = started
        assert proc.stdin.closed and proc.stdout.closed and proc.returncode is not None

    def test_protocol_failure_releases_both_pipes(self, monkeypatch):
        started = recorded_processes(monkeypatch)
        agent = BridgeAgent(AgentConfig(kind="bridge", name="garbled", bridge_command=script_command(GARBAGE_SCRIPT),
                                        bridge_deadline=5.0))
        with pytest.raises(AgentError, match="malformed"):
            agent.begin_episode(demo_task(), Tape.from_string("010101"), seed=0)
        (proc,) = started
        assert proc.stdin.closed and proc.stdout.closed and proc.returncode is not None

    def test_failed_cells_recorded_in_manifest_without_blocking_others(self, tmp_path):
        cfg = ExperimentConfig(
            name="bridge-fail",
            split=SplitSpec(protocol="holdout_rule", candidate_rules=(90, 204), split_seed=4,
                            n_train_tasks=1, n_test_tasks=1, train_lengths=(6,), test_lengths=(6,), horizon=6),
            agents=(AgentConfig(kind="random"),
                    AgentConfig(kind="bridge", name="slowpoke",
                                bridge_command=script_command(SLOW_SCRIPT), bridge_deadline=0.2)),
            episodes_per_task=2,
            base_seed=6,
            output_dir=str(tmp_path / "run"),
        )
        manifest = run_experiment(cfg)
        by_agent = {}
        for entry in manifest.seed_table:
            by_agent.setdefault(entry["agent"], []).append(entry["status"])
        assert all(s == "ok" for s in by_agent["random"])
        assert all(s.startswith("failed:") for s in by_agent["slowpoke"])
        _, records = load_run(tmp_path / "run")
        assert {r["agent"] for r in records} == {"random"}


class _ScriptedAgent(Agent):
    """Always flips cell 0; counts protocol callbacks for cadence checks."""

    def __init__(self):
        super().__init__("scripted")
        self.observed = []

    def begin_episode(self, task, obs, seed):
        self.seed = seed

    def act(self, obs):
        return Action.flip(0)

    def observe(self, state, action, reward, next_state, done):
        self.observed.append((str(state), to_json(action), reward, str(next_state), done))


def drive_serve(agent, requests: list[dict]) -> list[dict]:
    stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
    stdout = io.StringIO()
    serve(agent, stdin, stdout)
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


class TestServeLoop:
    def task_fields(self):
        return to_json(demo_task(rule=204, length=4, seed=2))

    def test_hello_reset_step_cadence(self):
        agent = _ScriptedAgent()
        replies = drive_serve(agent, [
            {"v": 1, "type": "hello"},
            {"v": 1, "type": "reset", "task": self.task_fields(), "obs": "0101", "seed": 3},
            {"v": 1, "type": "step", "obs": "1101", "reward": 0.5, "done": False},
            {"v": 1, "type": "step", "obs": "0101", "reward": 1.0, "done": True},
        ])
        assert [r["type"] for r in replies] == ["hello", "act", "act", "act"]
        assert all(r["v"] == PROTOCOL_VERSION for r in replies)
        assert replies[0]["agent"] == "scripted"
        assert replies[1]["action"] == {"kind": "flip", "index": 0}
        # observe gets the transition the driver reported, including the done step
        assert agent.observed[0] == ("0101", {"kind": "flip", "index": 0}, 0.5, "1101", False)
        assert agent.observed[1][4] is True

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m["task"].pop("rule"), "missing config key task.rule"),
        (lambda m: m.update(seed="3"), "config key seed must be an integer, got a string"),
        (lambda m: m.update(obs=101), "config key obs must be a string, got an integer"),
        (lambda m: m.pop("seed"), "missing config key seed"),
    ])
    def test_bad_reset_field_answered_with_error_naming_it(self, edit, message):
        reset = {"v": 1, "type": "reset", "task": self.task_fields(), "obs": "0101", "seed": 3}
        edit(reset)
        replies = drive_serve(_ScriptedAgent(), [reset])
        assert replies[0]["type"] == "error" and message in replies[0]["message"]

    def test_version_mismatch_answered_with_error(self):
        replies = drive_serve(_ScriptedAgent(), [{"v": 99, "type": "hello"}])
        assert replies[0]["type"] == "error"
        assert "version" in replies[0]["message"]

    def test_malformed_line_answered_with_error(self):
        stdin = io.StringIO("this is not json\n")
        stdout = io.StringIO()
        serve(_ScriptedAgent(), stdin, stdout)
        reply = json.loads(stdout.getvalue())
        assert reply["type"] == "error" and "malformed" in reply["message"]

    def test_step_before_reset_is_an_error(self):
        replies = drive_serve(_ScriptedAgent(), [
            {"v": 1, "type": "step", "obs": "0101", "reward": 0.0, "done": False},
        ])
        assert replies[0]["type"] == "error" and "reset" in replies[0]["message"]

    def test_malformed_line_aborts_episode_in_progress(self):
        agent = _ScriptedAgent()
        stdin_text = (
            json.dumps({"v": 1, "type": "reset", "task": self.task_fields(), "obs": "0101", "seed": 3}) + "\n"
            + "garbage\n"
            + json.dumps({"v": 1, "type": "step", "obs": "1101", "reward": 0.5, "done": False}) + "\n"
        )
        stdout = io.StringIO()
        serve(agent, io.StringIO(stdin_text), stdout)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [r["type"] for r in replies] == ["act", "error", "error"]
        assert "reset" in replies[2]["message"]  # episode state was dropped
