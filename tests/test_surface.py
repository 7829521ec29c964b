"""The package's public surface: every exported name resolves, and so does every name the benchmark's tracer hooks."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
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
    """Each name ``rulebench/__init__.py`` imports from a module is in that module's ``__all__``, if it has one."""
    tree = ast.parse(Path(rulebench.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"rulebench.{node.module}")
        for alias in node.names:
            assert alias.name in getattr(module, "__all__", dir(module)), f"rulebench.{node.module}.{alias.name}"
            assert getattr(rulebench, alias.asname or alias.name) is getattr(module, alias.name)


# The names the benchmark's tracer (perfbench/tracer.py) replaces where they are looked up, and
# the arguments and fields it reads. Losing one breaks `perfbench/run.py --trace 1` while every
# other test passes; this list is kept by hand because tests do not import perfbench.
TRACED_NAMES = {
    "agents": ("plan_mpc", "max_ig_action", "info_gain_entropy", "posterior_update", "step_bits"),
    "ca": ("step_bits",),
    "cli": ("run_experiment",),
    "harness": ("run_episode",),
}


@pytest.mark.parametrize("module,names", sorted(TRACED_NAMES.items()))
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
