"""Independent check of logged episodes.

Every logged transition is replayed with the few-line rule-table step below,
which shares no code with ``rulebench.ca``, and each record's ``success``,
``return`` and ``steps_used`` are recomputed from its transitions.
"""

from __future__ import annotations

import json


def step(cells: str, rule: int) -> str:
    """One periodic elementary-CA update; cell 0 is leftmost, Wolfram numbering."""
    n = len(cells)
    return "".join(
        str(rule >> (4 * (cells[i - 1] == "1") + 2 * (cells[i] == "1") + (cells[(i + 1) % n] == "1")) & 1)
        for i in range(n)
    )


def check_record(record: dict) -> str | None:
    """The first way ``record`` disagrees with the rules of the game, or None."""
    task = record["task"]
    rule, length, horizon, target = task["rule"], task["length"], task["horizon"], task["target"]
    transitions = record["transitions"]
    if not 1 <= len(transitions) <= horizon or record["steps_used"] != len(transitions):
        return f"steps_used {record['steps_used']} with {len(transitions)} transitions, horizon {horizon}"
    state = transitions[0]["state"]
    if state == target:
        return "episode starts on its goal"
    ret = 0.0
    for i, t in enumerate(transitions):
        if t["state"] != state or len(state) != length:
            return f"transition {i} does not start where the last one ended"
        action = t["action"]
        if action["kind"] == "flip" and 0 <= action["index"] < length:
            j = action["index"]
            edited = state[:j] + ("1" if state[j] == "0" else "0") + state[j + 1:]
        elif action == {"kind": "no_op"}:
            edited = state
        else:
            return f"transition {i} has an invalid action {action}"
        state = step(edited, rule)
        if t["next_state"] != state:
            return f"transition {i} next_state {t['next_state']} != replayed {state}"
        ret += (length - sum(a != b for a, b in zip(state, target))) / length
        if state == target and i != len(transitions) - 1:
            return f"episode goes on after reaching its goal at transition {i}"
    success = 1.0 if state == target else 0.0
    if success == 0.0 and len(transitions) != horizon:
        return "episode ends early without reaching its goal"
    if record["success"] != success:
        return f"success {record['success']} != recomputed {success}"
    if record["return"] != ret:
        return f"return {record['return']!r} != recomputed {ret!r}"
    return None


def check_log(path, expected_cells: set) -> tuple[list[str], int]:
    """Problems with the episode log at ``path`` (one per bad or missing record), and its transition count."""
    problems = []
    seen = set()
    steps = 0
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            steps += len(record["transitions"])
            cell = (record["agent"], record["task_index"], record["episode_index"])
            problem = check_record(record)
            if cell not in expected_cells or cell in seen:
                problem = "unexpected or repeated cell"
            seen.add(cell)
            if problem:
                problems.append(f"{cell}: {problem}")
    problems.extend(f"{cell}: no record" for cell in sorted(expected_cells - seen))
    return problems, steps
