"""One type rule for the learner config dataclasses, read from each field's
annotation: int takes an integer (numpy's too, never a bool); float a finite
real number, an int kept as it is; bool only a bool; tuple[int, ...] a tuple
of integers; X | None also None. Other annotations are left to the class."""

from __future__ import annotations

import functools
import numbers
import sys
import typing


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_RULES = {  # annotation -> (test, fault)
    int: (is_integer, "must be an integer"),
    float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max, "must be finite"),  # NaN and 10**400 fail
    bool: (lambda v: isinstance(v, bool), "must be a bool"),
    tuple[int, ...]: (lambda v: isinstance(v, tuple) and all(map(is_integer, v)),
                      "must be a tuple of integers"),
}


@functools.cache
def field_rules(cls: type) -> dict:
    """Field name -> (test, fault, takes None) of each field of cls with a rule."""
    rules = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        optional = len(args) == 2 and type(None) in args  # X | None
        hint = args[args[0] is type(None)] if optional else hint
        if hint in _RULES:
            rules[name] = (*_RULES[hint], optional)
    return rules


def check_field_types(obj) -> None:
    """Raise ValueError naming the first field of obj that breaks its rule."""
    for name, (test, fault, optional) in field_rules(type(obj)).items():
        value = getattr(obj, name)
        if not (test(value) or optional and value is None):
            raise ValueError(f"{name} {fault}, got {value!r}")
