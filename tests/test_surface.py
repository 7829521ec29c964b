"""The package's public surface: every exported name resolves, and so does every name the benchmark's tracer
hooks, its probe calls or its micro-benchmarks use."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rulebench

MODULES = sorted(info.name for info in pkgutil.iter_modules(rulebench.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"rulebench.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"rulebench.{name}.__all__ lists {missing}"


def test_package_reexports_only_listed_names():
    """``rulebench.__all__`` is the lazy table's names; each is in its module's ``__all__`` and is that module's object."""
    assert rulebench.__all__ == sorted(rulebench._MODULE_OF)
    for name, module_name in rulebench._MODULE_OF.items():
        module = importlib.import_module(f"rulebench.{module_name}")
        assert name in module.__all__, f"rulebench.{module_name}.{name}"
        assert getattr(rulebench, name) is getattr(module, name)


# The names the benchmark's tracer (perfbench/tracer.py) replaces where they are looked up, and
# the arguments and fields it reads. Losing one breaks `perfbench/run.py --trace 1` while every
# other test passes; this list is kept by hand because tests do not import perfbench.
TRACED_NAMES = {
    "agents": ("plan_mpc", "max_ig_action", "info_gain_entropy", "posterior_update", "step_bits"),
    "ca": ("step_bits",),
    "cli": ("run_experiment",),
    "harness": ("run_episode",),
}


# The names the benchmark's fresh-process probe (perfbench/probe.py) calls, by module.
PROBED_NAMES = {
    "harness": ("load_config", "load_run", "summary_report"),
    "splits": ("make_split", "verify_split"),
}


# The names the benchmark's micro-benchmarks (perfbench/micro.py) import or call, by module.
MICRO_NAMES = {
    "belief": ("Belief", "info_gain_entropy", "posterior_update"),
    "env": ("Action", "Transition", "intervene"),
    "ca": ("Tape", "step_bits"),
    "seeding": ("make_rng",),
    "agents": ("AgentConfig", "plan_mpc"),
}


@pytest.mark.parametrize("module,names", sorted(TRACED_NAMES.items()) + sorted(PROBED_NAMES.items())
                         + sorted(MICRO_NAMES.items()))
def test_traced_names_resolve(module, names):
    mod = importlib.import_module(f"rulebench.{module}")
    assert [name for name in names if not callable(getattr(mod, name, None))] == []


def test_traced_signatures_and_fields():
    from rulebench import agents, bridge, env, harness

    first_six = list(inspect.signature(agents.plan_mpc).parameters)[:6]  # the tracer reads cfg, weights and state
    assert first_six == ["rules", "weights", "state", "target", "cfg", "rng"]  # perfbench/micro.py passes them positionally
    assert list(inspect.signature(harness.run_episode).parameters)[2] == "episode_seed"  # read positionally
    inspect.signature(harness.summary_report).bind([])  # perfbench/probe.py passes the records alone
    fields = {f.name for f in dataclasses.fields(agents.AgentConfig)}
    assert {"plan_horizon", "rollout_budget", "mixture_rules", "exact_mixture"} <= fields
    assert {"agent_id", "steps_used"} <= {f.name for f in dataclasses.fields(env.EpisodeResult)}
    assert callable(env.EpisodeResult.to_record)
    assert {"begin_episode", "observe"} <= set(vars(bridge.BridgeAgent))


def test_every_agent_kind_defines_act():
    """The tracer times decisions by wrapping the ``act`` each concrete agent class defines itself."""
    from rulebench.agents import AGENT_KINDS, AgentConfig, make_agent
    from rulebench.bridge import BridgeAgent

    classes = {type(make_agent(AgentConfig(kind=kind), (110,))) for kind in AGENT_KINDS if kind != "bridge"}
    assert [cls.__name__ for cls in classes | {BridgeAgent} if "act" not in vars(cls)] == []


# What `rulebench report` and a bare `import rulebench` must not load: numpy and the run machinery.
HEAVY = ("numpy", "rulebench.ca", "rulebench.agents", "rulebench.env", "rulebench.harness")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def heavy_modules_after(code: str, modules=HEAVY) -> list[str]:
    """The ``modules`` (by default ``HEAVY``) that a fresh interpreter holds after running ``code``."""
    path = [str(Path(rulebench.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")]
    check = f"{code}\nimport sys\nprint('loaded:', *[m for m in {modules!r} if m in sys.modules])\n"
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert done.returncode == 0, done.stderr
    (line,) = [line for line in done.stdout.splitlines() if line.startswith("loaded:")]
    return line.split()[1:]


def test_import_loads_no_numpy_or_run_machinery():
    assert heavy_modules_after("import rulebench") == []


def test_report_loads_no_numpy_or_run_machinery(tmp_path):
    from rulebench.cli import main

    run_dir = tmp_path / "smoke"
    assert main(["run", str(CONFIGS / "smoke.json"), "--output-dir", str(run_dir)]) == 0
    code = f"from rulebench.cli import main\nassert main(['report', {str(run_dir)!r}, '--mode', 'ood']) == 0"
    assert heavy_modules_after(code) == []


def test_verify_theory_loads_no_run_machinery():
    code = "from rulebench.cli import main\nassert main(['verify-theory', '--trials', '1']) == 0"
    run_machinery = ("rulebench.harness", "rulebench.agents", "rulebench.splits", "rulebench.report")
    assert heavy_modules_after(code, run_machinery) == []


# The paths that make no array, and so must not load numpy: the scalar streams are drawn in pure Python.
NUMPY = ("numpy",)


def test_run_of_array_free_agents_loads_no_numpy(tmp_path):
    code = (f"from rulebench.cli import main\n"
            f"assert main(['run', {str(CONFIGS / 'smoke.json')!r}, '--output-dir', {str(tmp_path)!r}]) == 0")
    assert heavy_modules_after(code, NUMPY) == []


def test_bridge_serve_random_loads_no_numpy():
    from rulebench.bridge import _line
    from rulebench.codec import to_json
    from rulebench.ca import Tape
    from rulebench.env import TaskSpec

    task = TaskSpec(rule=110, length=6, horizon=4, target=Tape.from_string("011010"), task_seed=3)
    session = (_line("hello") + _line("reset", task=to_json(task), obs="100100", seed=9)
               + _line("step", obs="110110", reward=0.5, done=False))
    code = (f"import io, sys\nsys.stdin = io.StringIO({session!r})\nfrom rulebench.cli import main\n"
            f"assert main(['bridge-serve', 'random']) == 0")
    assert heavy_modules_after(code, NUMPY) == []


def test_verify_split_loads_no_numpy(tmp_path):
    from rulebench.harness import load_config
    from rulebench.splits import make_split, save_split_manifest

    manifest = tmp_path / "split.json"
    save_split_manifest(make_split(load_config(CONFIGS / "desk.json").split), manifest)
    code = f"from rulebench.cli import main\nassert main(['verify-split', {str(manifest)!r}]) == 0"
    assert heavy_modules_after(code, NUMPY) == []


@pytest.mark.parametrize("config", ["smoke.json", "desk.json", "default.json"])
def test_setup_path_loads_no_numpy(config):
    code = (f"import rulebench.cli, rulebench.harness, rulebench.splits\n"
            f"from rulebench import harness, splits\n"
            f"split = splits.make_split(harness.load_config({str(CONFIGS / config)!r}).split)\n"
            f"assert splits.verify_split(split.train_tasks, split.test_tasks, split.spec).ok")
    assert heavy_modules_after(code, NUMPY) == []
