"""One type rule for the config dataclasses, read from each field's
annotation, and one way to build a config from a JSON object.

The rule: int takes an integer (numpy's too, never a bool); float a finite
real number, an int kept as it is; bool only a bool; str a string; dict a
JSON object; Path a path; tuple[int, ...] and tuple[str, ...] a tuple of
integers or of strings; a nested config dataclass only an instance of it;
X | None also None. Other annotations are left to the class."""

from __future__ import annotations

import dataclasses
import functools
import numbers
import sys
import typing
from pathlib import Path


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_RULES = {  # annotation -> (test, fault)
    int: (is_integer, "must be an integer"),
    float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max, "must be a finite number"),  # NaN, 10**400 fail
    bool: (lambda v: isinstance(v, bool), "must be a bool"),
    str: (lambda v: isinstance(v, str), "must be a string"),
    dict: (lambda v: isinstance(v, dict), "must be a JSON object"),
    Path: (lambda v: isinstance(v, Path), "must be a path string"),
    tuple[int, ...]: (lambda v: isinstance(v, tuple) and all(map(is_integer, v)),
                      "must be a tuple of integers"),
    tuple[str, ...]: (lambda v: isinstance(v, tuple) and all(isinstance(s, str) for s in v),
                      "must be a tuple of strings"),
}


@functools.cache
def field_rules(cls: type) -> dict:
    """Field name -> (annotation, test, fault, takes None) of each field of
    cls with a rule."""
    rules = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        optional = len(args) == 2 and type(None) in args  # X | None
        hint = args[args[0] is type(None)] if optional else hint
        if isinstance(hint, type) and dataclasses.is_dataclass(hint):  # a nested config
            rules[name] = (hint, lambda v, kind=hint: isinstance(v, kind),
                           "must be a JSON object", optional)
        elif hint in _RULES:
            rules[name] = (hint, *_RULES[hint], optional)
    return rules


def check_field_types(obj) -> None:
    """Raise ValueError naming the first field of obj that breaks its rule."""
    for name, (_, test, fault, optional) in field_rules(type(obj)).items():
        value = getattr(obj, name)
        if not (test(value) or optional and value is None):
            raise ValueError(f"{name} {fault}, got {value!r}")


def _from_json(value, rule, path: str):
    """A JSON object as its field's nested config, a JSON list as a tuple
    the field's test takes, a string as a Path ("" as None where the field
    takes None); else the value as written, for the test to reject."""
    hint, test, _, optional = rule
    if isinstance(value, dict) and dataclasses.is_dataclass(hint):
        return build(hint, value, path)
    if isinstance(value, list) and test(tuple(value)):
        return tuple(value)
    if isinstance(value, str) and hint is Path:
        return None if optional and not value else Path(value)
    return value


def build(cls: type, raw: dict, where: str = "", **fixed):
    """The config dataclass cls made from the JSON object raw, found at the
    JSON path ``where`` ("" at the top); ``fixed`` sets the fields that raw
    may not. A key of raw that is no other field, or a field without a
    default that raw lacks, is a ValueError naming its path. Each value
    passes _from_json, then cls checks them all: a ValueError it raises is
    raised again with ``where`` in front."""
    prefix = f"{where}." if where else ""
    fields = [f for f in dataclasses.fields(cls) if f.name not in fixed]
    names = [f.name for f in fields]
    for key in raw:
        if key not in names:
            raise ValueError(f"{prefix}{key} is not a setting (settings: {names})")
    for f in fields:
        if f.name not in raw and f.default is f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{prefix}{f.name} must be set")
    rules = field_rules(cls)
    values = {key: _from_json(value, rules[key], prefix + key) if key in rules else value
              for key, value in raw.items()}
    try:
        return cls(**values, **fixed)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None
