import gc
import io
import json
import subprocess
import sys
import time
import warnings

import pytest

from rulebench import AgentConfig, AgentError, ExperimentConfig, SplitSpec, TaskSpec, run_experiment
from rulebench.agents import Agent, make_agent
from rulebench import bridge
from rulebench.bridge import PROTOCOL_VERSION, BridgeAgent, _act_table, _decode, _line, _parse, serve
from rulebench.codec import to_json
from rulebench.env import Action, Tape, make_target, run_episode
from rulebench.harness import load_run
from rulebench.seeding import derive_seed

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
# Answers every request with a no-op; the code appended to it keeps it running after its input closes.
LINGERING_SCRIPT = (
    "import sys, json, time\n"
    "for line in sys.stdin:\n"
    "    hello = json.loads(line)['type'] == 'hello'\n"
    "    print(json.dumps({'v': 1, 'type': 'hello'} if hello else\n"
    "                     {'v': 1, 'type': 'act', 'action': {'kind': 'no_op'}}), flush=True)\n"
)


def script_command(body: str) -> tuple[str, ...]:
    return (sys.executable, "-c", body)


def replying(*lines: str) -> tuple[str, ...]:
    """A peer that answers hello in kind and every other request with the next of ``lines``, cycling."""
    return script_command(
        "import itertools, json, sys\n"
        f"replies = itertools.cycle({list(lines)!r})\n"
        "for line in sys.stdin:\n"
        "    hello = json.loads(line)['type'] == 'hello'\n"
        "    print(json.dumps({'v': 1, 'type': 'hello'}) if hello else next(replies), flush=True)\n"
    )


def count_parses(monkeypatch) -> list[bytes]:
    """Every line the bridge parses from now on."""
    parsed, parse = [], bridge._parse
    monkeypatch.setattr(bridge, "_parse", lambda line, what: parsed.append(line) or parse(line, what))
    return parsed


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

    def test_undecodable_action_closes_the_peer(self, monkeypatch):
        started = recorded_processes(monkeypatch)
        agent = BridgeAgent(AgentConfig(kind="bridge", name="sloppy", bridge_command=script_command(FLIP_TRUE_SCRIPT),
                                        bridge_deadline=5.0))
        try:
            with pytest.raises(AgentError, match=r"action\.index"):
                run_episode(demo_task(), agent, episode_seed=0)
            assert agent._proc is None
            (first,) = started
            assert first.returncode is not None and first.stdin.closed and first.stdout.closed
            with pytest.raises(AgentError, match=r"action\.index"):
                run_episode(demo_task(), agent, episode_seed=1)
            assert len(started) == 2  # the next episode started a fresh process
        finally:
            agent.close()

    def test_close_releases_both_pipes(self, monkeypatch):
        started = recorded_processes(monkeypatch)
        agent = BridgeAgent(AgentConfig(kind="bridge", name="random", bridge_command=SERVE_RANDOM,
                                        bridge_deadline=30.0))
        run_episode(demo_task(), agent, episode_seed=1)
        agent.close()
        (proc,) = started
        assert proc.stdin.closed and proc.stdout.closed
        assert proc.returncode == 0  # it exited on end of input, unkilled

    @pytest.mark.parametrize("after", ["time.sleep(30)", "while True:\n    sys.stdout.write('x' * (1 << 20))"],
                             ids=["sleeping", "writing"])
    def test_close_kills_a_peer_that_outlives_its_input(self, monkeypatch, after):
        started = recorded_processes(monkeypatch)
        agent = BridgeAgent(AgentConfig(kind="bridge", name="lingering",
                                        bridge_command=script_command(LINGERING_SCRIPT + after),
                                        bridge_deadline=5.0))
        run_episode(demo_task(), agent, episode_seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            begun = time.monotonic()
            agent.close()
            took = time.monotonic() - begun
            (proc,) = started
            assert proc.stdin.closed and proc.stdout.closed and proc.returncode == -9
            del proc, started[:]
            gc.collect()
        assert 0.5 <= took < 0.5 + 0.5
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

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
        (lambda m: m.update(obs="0" * 65), "obs: tape length must be an integer in [3, 64], got 65"),
        (lambda m: m["task"].update(length=65, target="1" * 65),
         "task.target: tape length must be an integer in [3, 64], got 65"),
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


class TestReplyTable:
    """Replies in bridge-serve's own form are found by lookup; every other form is parsed as before."""

    @pytest.mark.parametrize("length", range(3, 17))
    def test_each_entry_is_the_full_decode_of_its_line(self, length):
        table = _act_table(length)
        actions = [Action.from_order_index(i, length) for i in range(length + 1)]
        assert list(table.values()) == actions
        for action in actions:
            line = _line("act", action=to_json(action))
            assert line.endswith("\n")
            key = line[:-1].encode()
            assert table[key] == _decode(_parse(line, "response"), action=Action)[0] == action

    def test_every_reply_serve_writes_is_a_table_key(self):
        task = demo_task(length=12, horizon=32)
        for seed in range(3):
            # The transcript a driver would see: the served random agent plays the same episode.
            episode = run_episode(task, make_agent(AgentConfig(kind="random")), episode_seed=seed)
            requests = [{"v": 1, "type": "reset", "task": to_json(task), "obs": str(episode.transitions[0].state),
                         "seed": derive_seed(seed, "agent")}]
            requests += [{"v": 1, "type": "step", "obs": str(t.next_state), "reward": 0.5,
                          "done": i == len(episode.transitions) - 1} for i, t in enumerate(episode.transitions)]
            stdout = io.StringIO()
            serve(make_agent(AgentConfig(kind="random")), io.StringIO("".join(json.dumps(r) + "\n" for r in requests)),
                  stdout)
            replies = stdout.getvalue().splitlines()
            assert len(replies) == len(requests)
            assert all(line.encode() in _act_table(task.length) for line in replies)
            played = [_act_table(task.length)[line.encode()] for line in replies[:-1]]
            assert played == [t.action for t in episode.transitions]

    def test_driver_parses_only_the_handshake(self, monkeypatch):
        task = demo_task(length=12, horizon=32)
        _act_table(task.length)  # built before counting: the build parses each of its lines
        parsed = count_parses(monkeypatch)
        agent = BridgeAgent(AgentConfig(kind="bridge", name="random", bridge_command=SERVE_RANDOM,
                                        bridge_deadline=30.0))
        try:
            steps = sum(run_episode(task, agent, episode_seed=seed).steps_used for seed in (1, 2))
        finally:
            agent.close()
        assert steps > 2
        assert len(parsed) == 1 and json.loads(parsed[0]) == {"v": 1, "type": "hello", "agent": "random"}

    @pytest.mark.parametrize("form", [
        lambda action: json.dumps({"v": 1, "type": "act", "action": action}),
        lambda action: json.dumps({"v": 1, "type": "act", "action": action}, separators=(",", ":")),
        lambda action: json.dumps({"action": action, "type": "act", "v": 1}, sort_keys=True,
                                  separators=(",", ":")) + " ",
    ], ids=["spaced", "unsorted", "trailing-space"])
    def test_other_forms_are_parsed_to_equal_actions(self, monkeypatch, form):
        actions = [Action.from_order_index(i, 6) for i in range(7)]
        lines = [form(to_json(action)) for action in actions]
        assert not {line.encode() for line in lines} & set(_act_table(6))
        parsed = count_parses(monkeypatch)
        agent = BridgeAgent(AgentConfig(kind="bridge", name="spaced", bridge_command=replying(*lines),
                                        bridge_deadline=5.0))
        obs = Tape.from_string("010101")
        try:
            agent.begin_episode(demo_task(length=6), obs, seed=0)
            played = [agent.act(obs)]
            for _ in actions[1:]:
                agent.observe(obs, played[-1], 0.0, obs, False)
                played.append(agent.act(obs))
        finally:
            agent.close()
        assert played == actions
        assert len(parsed) == 1 + len(actions)

    @pytest.mark.parametrize("reply,message", [
        ('{"action":{"index":6,"kind":"flip"},"type":"act","v":1}', "flip index 6 out of bounds for length 6"),
        ('{"action":{"index":true,"kind":"flip"},"type":"act","v":1}',
         r"config key action\.index must be an integer, got a boolean"),
        ('{"action":{"index":-1,"kind":"flip"},"type":"act","v":1}', "flip requires a nonnegative index, got -1"),
        ('{"action":{"index":0,"kind":"no_op"},"type":"act","v":1}', "no_op takes no index"),
    ])
    def test_canonical_form_outside_the_table_fails_as_before(self, reply, message):
        agent = BridgeAgent(AgentConfig(kind="bridge", name="off-table", bridge_command=replying(reply),
                                        bridge_deadline=5.0))
        try:
            with pytest.raises(AgentError, match=message):
                run_episode(demo_task(length=6), agent, episode_seed=0)
        finally:
            agent.close()
