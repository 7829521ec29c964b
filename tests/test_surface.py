"""The package's public surface: every exported name resolves, and so does every name the benchmark's tracer hooks or its probe calls."""

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


@pytest.mark.parametrize("module,names", sorted(TRACED_NAMES.items()) + sorted(PROBED_NAMES.items()))
def test_traced_names_resolve(module, names):
    mod = importlib.import_module(f"rulebench.{module}")
    assert [name for name in names if not callable(getattr(mod, name, None))] == []


def test_traced_signatures_and_fields():
    from rulebench import agents, bridge, env, harness

    assert {"cfg", "weights", "state"} <= set(inspect.signature(agents.plan_mpc).parameters)
    assert list(inspect.signature(harness.run_episode).parameters)[2] == "episode_seed"  # read positionally
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


def heavy_modules_after(code: str) -> list[str]:
    """The modules of ``HEAVY`` that a fresh interpreter holds after running ``code``."""
    path = [str(Path(rulebench.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")]
    check = f"{code}\nimport sys\nprint('loaded:', *[m for m in {HEAVY!r} if m in sys.modules])\n"
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
