"""One JSON codec, driven by dataclass type hints, for configs, manifests, logs and bridge messages.

A dataclass is an object keyed by field name or ``metadata["key"]``; tuples
and lists are arrays; a :class:`~rulebench.ca.Tape` is its ``'0'/'1'`` string;
a ``dict`` passes through; a field typed ``X | None`` is omitted while ``None``.
Decoding refuses an unknown, missing or wrong-typed key with a
:class:`~rulebench.errors.ConfigError` naming its path (``agents[1].plan_horizon``);
an ``int`` refuses a boolean, and a ``float`` accepts an integer but not
``NaN`` or an infinity (which Python's ``json`` parses). A range
check that a dataclass's constructor or a tape's parse fails keeps its error
type and is prefixed with the value's path (``agents[1]: plan_horizon must
be >= 1``, ``obs: tape length must be ...``).
Plans are built once per type.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from typing import Any, Callable

from .ca import Tape
from .errors import ConfigError, DomainError

__all__ = ["from_json", "to_json"]

_JSON_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "an array", tuple: "an array", dict: "an object", type(None): "null"}
# The Python types each scalar hint accepts, matched exactly so that a boolean is no integer.
_ACCEPTS = {int: (int,), float: (float, int), str: (str,), bool: (bool,), dict: (dict,)}


def to_json(obj: Any) -> Any:
    """The JSON form of ``obj``: dicts, lists, strings, numbers and booleans."""
    encode = _encoder(type(obj))
    return obj if encode is None else encode(obj)


def from_json(tp: Any, data: Any, path: str = "") -> Any:
    """Decode parsed JSON ``data`` as a ``tp``; errors name the offending key by its ``path``."""
    return _decoder(tp)(data, path)


def _named(path: str) -> str:
    return f"config key {path}" if path else "config"


def _wrong_type(path: str, expected: type, value: Any) -> ConfigError:
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    return ConfigError(f"{_named(path)} must be {_JSON_NAMES[expected]}, got {got}")


def _at(path: str, exc: Exception) -> Exception:
    """``exc`` again, its message prefixed with the ``path`` of the value that failed."""
    return type(exc)(f"{path}: {exc}" if path else str(exc))


def _optional(tp: Any) -> Any:
    """``X`` for the hint ``X | None``, else ``None``."""
    if typing.get_origin(tp) not in (typing.Union, types.UnionType):
        return None
    (inner,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    return inner


def _fields(tp: type) -> list[tuple[dataclasses.Field, str, Any]]:
    hints = typing.get_type_hints(tp)
    return [(f, f.metadata.get("key", f.name), hints[f.name]) for f in dataclasses.fields(tp)]


@functools.cache
def _encoder(tp: Any) -> Callable[[Any], Any] | None:
    """The function giving a ``tp``'s JSON form, or ``None`` where a value is its own JSON form."""
    if tp is Tape:
        return str
    if dataclasses.is_dataclass(tp):
        plan = [(f.name, key, _encoder(hint)) for f, key, hint in _fields(tp)]
        # A field at None (only an ``X | None`` one can be) is omitted.
        return lambda obj: {key: value if enc is None else enc(value) for name, key, enc in plan
                            if (value := getattr(obj, name)) is not None}
    if typing.get_origin(tp) in (tuple, list):
        item = _encoder(typing.get_args(tp)[0])
        return list if item is None else (lambda value: [item(x) for x in value])
    return _optional(tp) and _encoder(_optional(tp))


@functools.cache
def _decoder(tp: Any) -> Callable[[Any, str], Any]:
    """The function ``(data, path) -> tp`` that checks every key and type it reads."""
    origin = typing.get_origin(tp) or tp
    if tp is Tape or origin in _ACCEPTS:
        accepts = (str,) if tp is Tape else _ACCEPTS[origin]

        def decode_scalar(value, path):
            if type(value) not in accepts:
                raise _wrong_type(path, accepts[0], value)
            if type(value) is float and not math.isfinite(value):
                raise ConfigError(f"{_named(path)} must be a finite number, got {json.dumps(value)}")
            if tp is not Tape:
                return value
            try:
                return Tape.from_string(value)
            except DomainError as exc:
                raise _at(path, exc) from None
        return decode_scalar
    if origin in (tuple, list):
        item = _decoder(typing.get_args(tp)[0])

        def decode_array(value, path):
            if type(value) not in (list, tuple):
                raise _wrong_type(path, list, value)
            return origin(item(x, f"{path}[{i}]") for i, x in enumerate(value))
        return decode_array
    if _optional(tp) is not None:
        inner = _decoder(_optional(tp))
        return lambda value, path: None if value is None else inner(value, path)
    if not dataclasses.is_dataclass(tp):
        raise TypeError(f"the JSON codec does not handle {tp!r}")
    plan = {key: (f.name, _decoder(hint)) for f, key, hint in _fields(tp)}
    required = [key for f, key, _ in _fields(tp)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]

    def decode_object(value, path):
        if type(value) is not dict:
            raise _wrong_type(path, dict, value)
        prefix = f"{path}." if path else ""
        kwargs = {}
        for key, item in value.items():
            if key not in plan:
                raise ConfigError(f"unknown config key {prefix}{key}")
            name, dec = plan[key]
            kwargs[name] = dec(item, prefix + key)
        for key in required:
            if key not in value:
                raise ConfigError(f"missing config key {prefix}{key}")
        try:
            return tp(**kwargs)
        except (ConfigError, DomainError) as exc:  # a range check: name the object it failed in
            raise _at(path, exc) from None
    return decode_object
