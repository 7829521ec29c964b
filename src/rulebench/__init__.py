"""Cellular-automaton benchmark for latent rule-shift generalization.

The package provides exact elementary-CA task dynamics, an episodic
environment whose latent rule is the only hidden quantity, deterministic
train/test protocol splits, exact Bayesian rule inference with three
provably-equal information-gain computations, reference agents, and a
statistics/reporting pipeline for ID-vs-OOD comparisons.

Each public name is imported from its module on first use (PEP 562), so
``import rulebench`` loads neither numpy nor the run machinery, and a
command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "agents": "AgentConfig make_agent",
    "belief": "Belief entropy info_gain_entropy info_gain_kl info_gain_mi posterior_update",
    "ca": "Tape decode_rule step",
    "env": "Action EpisodeResult TaskSpec Transition env_step intervene make_target reset run_episode",
    "errors": "AgentError ConfigError DomainError InconsistentObservationError",
    "harness": "ExperimentConfig run_experiment verify_theory",
    "report": "RunManifest",
    "seeding": "derive_seed make_rng",
    "splits": "Split SplitReport SplitSpec make_split verify_split",
    "stats": "Interval SummaryStats TestResult bootstrap_ci ci_normal drop_ci paired_t summarize welch_t",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
