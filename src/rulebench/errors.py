"""Exception types shared across the package, and the key check of the JSON codecs."""

from dataclasses import MISSING, fields


class DomainError(ValueError):
    """A value violates a domain invariant (rule range, tape bounds, lengths)."""


class ConfigError(ValueError):
    """A configuration is internally inconsistent or outside supported limits."""


class InconsistentObservationError(RuntimeError):
    """An observed transition has zero likelihood under every hypothesis.

    Raised by posterior updates when the hypothesis set is misspecified,
    i.e. the rule that generated the data is not in the belief support.
    """


class AgentError(RuntimeError):
    """An agent failed while acting or observing; carries episode context."""


def check_keys(cls, data, path: str) -> None:
    """Require ``data`` to be a JSON object with only ``cls``'s fields and all required ones.

    Errors name the offending key by its path in the config, e.g. ``split.horizn``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object, got {type(data).__name__}")
    prefix = f"{path}." if path else ""
    known = {f.name: f for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config key {prefix}{key}")
    for name, f in known.items():
        if name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing config key {prefix}{name}")
