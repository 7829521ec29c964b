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
is discarded). A malformed or version-mismatched line, a missing or
wrong-typed field, or an ``obs`` whose length is not the task's, is answered
with ``{"v":1,"type":"error","message":...}`` and aborts the episode in
progress. The driver reads each reply from the child's pipe under a deadline
(``select``, so POSIX only); a reply that is not a complete line by then, or
that lacks ``"v": 1``, fails the episode.

Both ends write messages in the codec's canonical form: sorted keys, no
spaces. The driver formats each ``step`` request directly, one f-string per
step, and the tests hold its bytes equal to the canonical form's. It finds
an ``act`` reply in that form in one table of the 65 lines ``serve`` writes,
one per action whatever the tape length; a reply in any other valid JSON
form is parsed and decoded as it arrives, so external agents need not match
it. Both ends refuse a ``v`` other than the ``int`` 1, ``true`` and ``1.0`` too.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from types import MappingProxyType
from typing import Any, IO

from .agents import Agent, AgentConfig
from .ca import Tape
from .codec import canonical, from_json, to_json
from .env import ACTIONS, Action, TaskSpec
from .errors import AgentError, ConfigError

__all__ = ["PROTOCOL_VERSION", "BridgeAgent", "serve"]

PROTOCOL_VERSION = 1


def _line(kind: str, **fields: Any) -> str:
    """One protocol message of type ``kind`` as its line, in canonical form."""
    return canonical({"v": PROTOCOL_VERSION, "type": kind, **fields}) + "\n"


def _write(out: IO[str], line: str) -> None:
    out.write(line)
    out.flush()


def _parse(line: str | bytes, what: str) -> dict[str, Any]:
    """One line as a JSON object; anything else is a ValueError calling the ``what`` malformed."""
    try:
        return from_json(dict, json.loads(line), what)
    except ValueError as exc:
        raise ValueError(f"malformed {what}: {exc}") from None


def _decode(message: dict[str, Any], **fields: Any) -> list[Any]:
    """The named fields of a message, each decoded by the codec as its type; a bad one is named."""
    if missing := [key for key in fields if key not in message]:
        raise ConfigError(f"missing config key {missing[0]}")
    return [from_json(tp, message[key], key) for key, tp in fields.items()]


# The ``act`` line of each action, on a tape of any length, and its inverse (line sans newline -> action).
_ACT_LINES = MappingProxyType({action: _line("act", action=to_json(action)) for action in ACTIONS})
_ACT_TABLE = MappingProxyType({line[:-1].encode(): action for action, line in _ACT_LINES.items()})


def serve(agent: Agent, infile: IO[str] | None = None, outfile: IO[str] | None = None) -> None:
    """Host ``agent`` on a line channel until the input stream closes."""
    infile = infile if infile is not None else sys.stdin
    outfile = outfile if outfile is not None else sys.stdout
    episode: tuple[Tape, Action] | None = None  # the last observation and the action taken on it

    for line in infile:
        if not line.strip():
            continue
        try:
            message = _parse(line, "request")
            if type(v := message.get("v")) is not int or v != PROTOCOL_VERSION:  # not true, not 1.0
                raise ValueError(f"unsupported protocol version {v!r}; this agent speaks {PROTOCOL_VERSION}")
            kind = message.get("type")
            if kind == "hello":
                _write(outfile, _line("hello", agent=agent.name))
                continue
            if kind == "reset":
                task, obs, seed = _decode(message, task=TaskSpec, obs=Tape, seed=int)
                if obs.length != task.length:
                    raise ValueError(f"obs: tape length {obs.length} != task length {task.length}")
                agent.begin_episode(task, obs, seed)
                done = False
            elif kind == "step":
                if episode is None:
                    raise ValueError("step before reset")
                obs, reward, done = _decode(message, obs=Tape, reward=float, done=bool)
                if obs.length != episode[0].length:
                    raise ValueError(f"obs: tape length {obs.length} != episode tape length {episode[0].length}")
                agent.observe(*episode, reward, obs, done)
            else:
                raise ValueError(f"unknown request type {kind!r}")
            action = Action.no_op() if done else agent.act(obs)
            episode = None if done else (obs, action)
            _write(outfile, _ACT_LINES.get(action) or _line("act", action=to_json(action)))
        except Exception as exc:
            episode = None
            _write(outfile, _line("error", message=str(exc)))


class BridgeAgent(Agent):
    """Drives an external process speaking the bridge protocol as a local agent.

    The subprocess is spawned lazily, handshaken once, and reused across
    episodes; any protocol failure (timeout, malformed line, error response,
    an action that does not decode) kills it so the next episode starts from a
    clean process, and a process that has exited is closed before the next
    one starts.
    """

    def __init__(self, cfg: AgentConfig):
        super().__init__(cfg.name)
        self.cfg = cfg
        self._proc: subprocess.Popen | None = None
        self._unread = b""  # bytes read from the process past the last complete reply
        self._pending: Action | None = None

    def _fail(self, message: str) -> None:
        self.close()
        raise AgentError(f"bridge agent {self.name!r}: {message}")

    def _ensure_process(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            return
        self.close()
        self._proc = subprocess.Popen(list(self.cfg.bridge_command), stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self._send(_line("hello"))
        self._response(expect="hello")

    def _send(self, line: str) -> None:
        try:
            _write(self._proc.stdin, line)
        except OSError as exc:
            self._fail(f"process write failed: {exc}")

    def _response(self, expect: str, decode: bool = True) -> Any:
        """The next reply, read from the pipe for at most the time left before the deadline.

        A ``hello`` reply gives the message, an ``act`` reply its Action: found in ``_ACT_TABLE``,
        else parsed, checked to carry ``"v": 1`` and decoded (``None`` if ``decode`` is false,
        as for a done step's placeholder).
        """
        deadline = time.monotonic() + self.cfg.bridge_deadline
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._unread:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                self._fail(f"no response within {self.cfg.bridge_deadline}s deadline")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                self._fail("process closed its output stream")
            self._unread += chunk
        line, _, self._unread = self._unread.partition(b"\n")
        if expect == "act" and (action := _ACT_TABLE.get(line)) is not None:
            return action
        try:
            message = _parse(line, "response")
        except ValueError as exc:
            self._send(_line("error", message=str(exc)))
            self._fail(str(exc))
        if message.get("type") == "error":
            self._fail(f"peer error: {message.get('message')}")
        if type(v := message.get("v")) is not int or v != PROTOCOL_VERSION:  # not true, not 1.0
            self._fail(f"peer speaks protocol version {v!r}, driver speaks {PROTOCOL_VERSION}")
        if message.get("type") != expect:
            self._fail(f"expected {expect!r} response, got {message.get('type')!r}")
        if expect != "act":
            return message
        if not decode:
            return None
        try:
            return _decode(message, action=Action)[0]
        except ValueError as exc:
            self._fail(str(exc))

    def begin_episode(self, task: TaskSpec, obs: Tape, seed: int) -> None:
        self._ensure_process()
        self._pending = None
        self._send(_line("reset", task=to_json(task), obs=str(obs), seed=seed))
        self._pending = self._response(expect="act")

    def act(self, obs: Tape) -> Action:
        if self._pending is None:
            self._fail("no pending action; protocol cadence broken")
        action, self._pending = self._pending, None
        return action

    def observe(self, state: Tape, action: Action, reward: float, next_state: Tape, done: bool) -> None:
        # _line("step", obs=str(next_state), reward=reward, done=done), formatted directly: a tape's
        # text needs no escaping, and json writes a float (np.float64 too) by float.__repr__.
        self._send(f'{{"done":{"true" if done else "false"},"obs":"{next_state}",'
                   f'"reward":{float.__repr__(reward)},"type":"step","v":{PROTOCOL_VERSION}}}\n')
        reply = self._response(expect="act", decode=not done)
        if not done:
            self._pending = reply

    def close(self) -> None:
        proc, self._proc, self._unread, self._pending = self._proc, None, b"", None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass
        # The process exiting closes its output: wait in select for that end of file, not
        # in wait()'s sleeping poll, then reap it; one that outlives 0.5 s is killed.
        deadline = time.monotonic() + 0.5
        fd = proc.stdout.fileno()
        try:
            while ((left := deadline - time.monotonic()) > 0 and select.select([fd], [], [], left)[0]
                   and os.read(fd, 1 << 16)):
                pass
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
