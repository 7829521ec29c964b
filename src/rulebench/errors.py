"""Exception types shared across the package.

:class:`ConfigError` and :class:`DomainError` mark bad input, which the CLI exits 1 on;
the JSON codec (:mod:`rulebench.codec`) raises :class:`ConfigError` naming the bad key's path.
"""


class DomainError(ValueError):
    """A value violates a domain invariant (rule range, tape bounds, lengths)."""


class ConfigError(ValueError):
    """A configuration is internally inconsistent or outside supported limits."""


class SplitViolation(ConfigError):
    """A split manifest differs from the split its own spec generates."""


class InconsistentObservationError(RuntimeError):
    """An observed transition has zero likelihood under every hypothesis.

    Raised by posterior updates when the hypothesis set is misspecified,
    i.e. the rule that generated the data is not in the belief support.
    """


class AgentError(RuntimeError):
    """An agent failed while acting or observing; carries episode context."""
