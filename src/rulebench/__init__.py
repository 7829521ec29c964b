"""Cellular-automaton benchmark for latent rule-shift generalization.

The package provides exact elementary-CA task dynamics, an episodic
environment whose latent rule is the only hidden quantity, deterministic
train/test protocol splits, exact Bayesian rule inference with three
provably-equal information-gain computations, reference agents, and a
statistics/reporting pipeline for ID-vs-OOD comparisons.
"""

__version__ = "0.1.0"

from .agents import AgentConfig, make_agent
from .belief import (
    Belief,
    entropy,
    info_gain_entropy,
    info_gain_kl,
    info_gain_mi,
    posterior_update,
)
from .ca import Tape, decode_rule, step
from .env import (
    Action,
    EpisodeResult,
    TaskSpec,
    Transition,
    env_step,
    intervene,
    make_target,
    reset,
    run_episode,
)
from .errors import AgentError, ConfigError, DomainError, InconsistentObservationError
from .harness import ExperimentConfig, RunManifest, run_experiment, verify_theory
from .seeding import derive_seed, make_rng
from .splits import Split, SplitReport, SplitSpec, make_split, verify_split
from .stats import (
    Interval,
    SummaryStats,
    TestResult,
    bootstrap_ci,
    ci_normal,
    drop_ci,
    paired_t,
    summarize,
    welch_t,
)
