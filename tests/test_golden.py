"""Golden transcripts: pinned SHA-256 digests of ``episodes.jsonl``.

A refactor or optimization that claims to keep behaviour must keep these
digests. A deliberate change to the log schema or to an agent's decisions
re-pins them in the same change and says why. At parallelism 2 desk plays
in a process pool whatever the host's CPU count, so the digests also pin
the pool's output order. The short runs cover few decisions, so desk and
default are also pinned at full size, where one changed tie among
thousands of decisions shows. Full default, the slowest test of the suite,
runs at parallelism 2 only.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from rulebench import run_experiment
from rulebench.harness import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# name -> (config file, field overrides, digest of episodes.jsonl, parallelisms)
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
}
CASES = sorted((name, parallelism) for name, golden in GOLDEN.items() for parallelism in golden[3])


@pytest.mark.parametrize("name,parallelism", CASES)
def test_episode_log_digest(name, parallelism, tmp_path, pools):
    filename, overrides, digest, _ = GOLDEN[name]
    config = dataclasses.replace(load_config(CONFIGS / filename), output_dir=str(tmp_path),
                                 parallelism=parallelism, **overrides)
    run_experiment(config)
    assert hashlib.sha256((tmp_path / "episodes.jsonl").read_bytes()).hexdigest() == digest
    workers = min(parallelism, len(config.agents))  # smoke has one agent, desk six, default five
    assert pools == ([workers] if workers > 1 else [])
