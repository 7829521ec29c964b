"""Line-delimited stdio protocol for out-of-process agents.

Why: external baselines (including ones this package deliberately does not
implement) can participate in experiments without linking against the core —
they just speak newline-delimited JSON on stdin/stdout.

Protocol (version 1). Every message is one JSON object per line and carries
``"v": 1``. The driver sends requests, the served agent answers:

  driver -> agent                              agent -> driver
  {"v":1,"type":"hello"}                       {"v":1,"type":"hello","agent":<name>}
  {"v":1,"type":"reset","task":{...},          {"v":1,"type":"act","action":{...}}
   "obs":"0110","seed":<int>}
  {"v":1,"type":"step","obs":"0111",           {"v":1,"type":"act","action":{...}}
   "reward":0.5,"done":false}

``task`` carries the TaskSpec fields with the target in '0'/'1' text form;
actions are ``{"kind":"flip","index":i}`` or ``{"kind":"no_op"}``. ``reset``
answers with the first action; each ``step`` answers with the action for the
observation it delivers (the answer to a ``done`` step is a placeholder and
is discarded). A malformed or version-mismatched line, or a missing or
wrong-typed field, is answered with ``{"v":1,"type":"error","message":...}``
and aborts the episode in progress.
The driver enforces a per-response deadline; a timeout fails the episode.
"""

from __future__ import annotations

import json
import queue
import subprocess
import sys
import threading
from typing import Any, IO

from .agents import Agent, AgentConfig
from .ca import Tape
from .codec import from_json, to_json
from .env import Action, TaskSpec
from .errors import AgentError

__all__ = ["PROTOCOL_VERSION", "BridgeAgent", "serve"]

PROTOCOL_VERSION = 1


def _decode(message: dict[str, Any], **fields: Any) -> list[Any]:
    """The named fields of a message, each decoded by the codec as its type; a bad one is named."""
    return [from_json(tp, message.get(key), key) for key, tp in fields.items()]


def _send(out: IO[str], message: dict[str, Any]) -> None:
    out.write(json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n")
    out.flush()


def serve(agent: Agent, infile: IO[str] | None = None, outfile: IO[str] | None = None) -> None:
    """Host ``agent`` on a line channel until the input stream closes."""
    infile = infile if infile is not None else sys.stdin
    outfile = outfile if outfile is not None else sys.stdout
    episode: dict[str, Any] | None = None  # tracks prev obs / action between steps

    for line in infile:
        line = line.strip()
        if not line:
            continue
        try:
            message = from_json(dict, json.loads(line), "message")
        except ValueError as exc:
            episode = None
            _send(outfile, {"v": PROTOCOL_VERSION, "type": "error", "message": f"malformed request: {exc}"})
            continue

        if message.get("v") != PROTOCOL_VERSION:
            episode = None
            _send(outfile, {
                "v": PROTOCOL_VERSION,
                "type": "error",
                "message": f"unsupported protocol version {message.get('v')!r}; this agent speaks {PROTOCOL_VERSION}",
            })
            continue

        try:
            kind = message["type"]
            if kind == "hello":
                _send(outfile, {"v": PROTOCOL_VERSION, "type": "hello", "agent": agent.name})
            elif kind == "reset":
                task, obs, seed = _decode(message, task=TaskSpec, obs=Tape, seed=int)
                agent.begin_episode(task, obs, seed)
                action = agent.act(obs)
                episode = {"obs": obs, "action": action}
                _send(outfile, {"v": PROTOCOL_VERSION, "type": "act", "action": to_json(action)})
            elif kind == "step":
                if episode is None:
                    raise ValueError("step before reset")
                obs, reward, done = _decode(message, obs=Tape, reward=float, done=bool)
                agent.observe(episode["obs"], episode["action"], reward, obs, done)
                if done:
                    episode = None
                    _send(outfile, {"v": PROTOCOL_VERSION, "type": "act", "action": to_json(Action.no_op())})
                else:
                    action = agent.act(obs)
                    episode = {"obs": obs, "action": action}
                    _send(outfile, {"v": PROTOCOL_VERSION, "type": "act", "action": to_json(action)})
            else:
                raise ValueError(f"unknown request type {kind!r}")
        except Exception as exc:
            episode = None
            _send(outfile, {"v": PROTOCOL_VERSION, "type": "error", "message": str(exc)})


class _LineReader:
    """Background reader so response waits can time out without blocking."""

    def __init__(self, stream: IO[str]):
        self._stream = stream
        self._queue: queue.Queue[str | None] = queue.Queue()
        self._thread = threading.Thread(target=self._pump, args=(stream,), daemon=True)
        self._thread.start()

    def _pump(self, stream: IO[str]) -> None:
        for line in stream:
            self._queue.put(line)
        self._queue.put(None)

    def readline(self, timeout: float) -> str | None:
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError

    def close(self, timeout: float) -> None:
        """Close the stream once the pump has read its end; a pump blocked in a read holds its lock."""
        self._thread.join(timeout)
        if not self._thread.is_alive():
            self._stream.close()


class BridgeAgent(Agent):
    """Drives an external process speaking the bridge protocol as a local agent.

    The subprocess is spawned lazily, handshaken once, and reused across
    episodes; any protocol failure (timeout, malformed line, error response)
    kills it so the next episode starts from a clean process.
    """

    def __init__(self, cfg: AgentConfig):
        super().__init__(cfg.agent_name)
        self.cfg = cfg
        self._proc: subprocess.Popen | None = None
        self._reader: _LineReader | None = None
        self._pending: Action | None = None

    def _fail(self, message: str) -> None:
        self.close()
        raise AgentError(f"bridge agent {self.name!r}: {message}")

    def _ensure_process(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            return
        self._proc = subprocess.Popen(
            list(self.cfg.bridge_command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._reader = _LineReader(self._proc.stdout)
        self._request({"v": PROTOCOL_VERSION, "type": "hello"})
        reply = self._response(expect="hello")
        if reply.get("v") != PROTOCOL_VERSION:
            self._fail(f"handshake rejected: peer speaks protocol version {reply.get('v')!r}, "
                       f"driver speaks {PROTOCOL_VERSION}")

    def _request(self, message: dict[str, Any]) -> None:
        try:
            _send(self._proc.stdin, message)
        except (BrokenPipeError, OSError) as exc:
            self._fail(f"process write failed: {exc}")

    def _response(self, expect: str) -> dict[str, Any]:
        try:
            line = self._reader.readline(timeout=self.cfg.bridge_deadline)
        except TimeoutError:
            self._fail(f"no response within {self.cfg.bridge_deadline}s deadline")
        if line is None:
            self._fail("process closed its output stream")
        try:
            message = from_json(dict, json.loads(line), "response")
        except ValueError as exc:
            self._request({"v": PROTOCOL_VERSION, "type": "error", "message": f"malformed response: {exc}"})
            self._fail(f"malformed response line: {exc}")
        if message.get("type") == "error":
            self._fail(f"peer error: {message.get('message')}")
        if message.get("type") != expect:
            self._fail(f"expected {expect!r} response, got {message.get('type')!r}")
        return message

    def begin_episode(self, task: TaskSpec, obs: Tape, seed: int) -> None:
        self._ensure_process()
        self._pending = None
        self._request({
            "v": PROTOCOL_VERSION,
            "type": "reset",
            "task": to_json(task),
            "obs": str(obs),
            "seed": seed,
        })
        self._pending = from_json(Action, self._response(expect="act").get("action"), "action")

    def act(self, obs: Tape) -> Action:
        if self._pending is None:
            self._fail("no pending action; protocol cadence broken")
        action, self._pending = self._pending, None
        return action

    def observe(self, state: Tape, action: Action, reward: float, next_state: Tape, done: bool) -> None:
        self._request({
            "v": PROTOCOL_VERSION,
            "type": "step",
            "obs": str(next_state),
            "reward": reward,
            "done": done,
        })
        reply = self._response(expect="act")
        if not done:
            self._pending = from_json(Action, reply.get("action"), "action")

    def close(self) -> None:
        proc, reader = self._proc, self._reader
        self._proc, self._reader, self._pending = None, None, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=0.5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        reader.close(timeout=0.5)
