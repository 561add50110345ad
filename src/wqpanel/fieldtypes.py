"""One type rule for the dataclasses read from JSON, read from each field's
annotation; one way to build such a dataclass from a JSON object, and one
way to write it back.

The rule: int takes an integer (numpy's too, never a bool); float a finite
real number, an int kept as it is; bool only a bool; str a string; dict a
JSON object; Path a path; an Enum one of its members (read from a JSON
value of its value's type: true is no member of value 1); tuple[int, ...] and
tuple[str, ...] a tuple of integers or of strings; Annotated[np.ndarray,
Numbers(...)] an array of Numbers' dimensions; a dataclass only an instance
of it; tuple[T, ...] of a dataclass or of such an array a tuple of them;
X | None also None. Other annotations are left to the class.

learner_input is the one rule of the (X, y) that every learner fits."""

from __future__ import annotations

import dataclasses
import enum
import numbers
import reprlib
import sys
import typing
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable, NamedTuple


def learner_input(X, y) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) as float arrays, as every learner fits them: X 2-D with at
    least one row, y of shape (len(X),), every value finite. Anything else
    is a ValueError naming the fault."""
    import numpy as np
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError(f"X must be 2-D with at least one row, got shape {X.shape}")
    if y.shape != (len(X),):
        raise ValueError(f"y must have shape ({len(X)},), one entry per row of X, "
                         f"got {y.shape}")
    for name, values in (("X", X), ("y", y)):
        finite = np.isfinite(values)
        if not finite.all():
            at = tuple(np.argwhere(~finite)[0].tolist())
            raise ValueError(f"{name}{list(at)} = {values[at]} is non-finite")
    return X, y


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclasses.dataclass(frozen=True)
class Numbers:
    """The rule of an Annotated[np.ndarray, Numbers(...)] field: an ndim-d
    float array of finite numbers, of integers too with integral=True (then
    int64), or with finite=False of any numbers, NaN and infinities too.
    read makes one from JSON: an entry that is a string, a bool or null is
    a ValueError naming the path, as is any other shape."""

    ndim: int = 1
    integral: bool = False
    finite: bool = True

    def read(self, value, path: str) -> np.ndarray:
        import numpy as np
        kind = f"a {self.ndim}-d array of numbers"
        try:
            cells = np.asarray(value, dtype=object)
        except ValueError:
            cells = None
        if cells is None or cells.ndim != self.ndim:
            raise ValueError(f"{path} must be {kind}")
        types = set(map(type, cells.ravel().tolist()))
        if type(None) in types:
            raise ValueError(f"{path} must be {kind}, "
                             + ("all finite" if self.finite else "not null"))
        if not all(t is not bool and issubclass(t, numbers.Real) for t in types):
            raise ValueError(f"{path} must be {kind}")
        try:
            out = cells.astype(float)
        except OverflowError:  # an integer beyond the doubles
            out = None
        if out is None or self.finite and not np.isfinite(out).all():
            raise ValueError(f"{path} must be {kind}, all finite")
        if self.integral:
            if not (out == np.round(out)).all() or not (np.abs(out) < 2.0**63).all():
                raise ValueError(f"{path} must be {kind}, all integers")
            out = out.astype(np.int64)
        return out


class Rule(NamedTuple):
    test: Callable[[Any], bool]  # does a field value keep the rule
    kind: str  # what the value must be
    read: Callable[[Any, str], Any]  # (JSON value, its path) -> the field value
    optional: bool = False  # None passes too


_SCALARS = {  # annotation -> (test, kind)
    int: (is_integer, "an integer"),
    float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max, "a finite number"),  # NaN, 10**400 fail
    bool: (lambda v: isinstance(v, bool), "a bool"),
    str: (lambda v: isinstance(v, str), "a string"),
    dict: (lambda v: isinstance(v, dict), "a JSON object"),
    Path: (lambda v: isinstance(v, Path), "a path string"),
    tuple[int, ...]: (lambda v: isinstance(v, tuple) and all(map(is_integer, v)),
                      "a tuple of integers"),
    tuple[str, ...]: (lambda v: isinstance(v, tuple) and all(isinstance(s, str) for s in v),
                      "a tuple of strings"),
}


def _rule(hint, optional: bool = False) -> Rule | None:
    """The rule of an annotation, or None. Its read takes a JSON object as
    the dataclass (through build), a list as the tuple (item by item where
    the items have a rule), an array's list as Numbers.read takes it, a
    string as a Path ("" as None where the field takes None) and an Enum's
    value as its member; else the value as written, for the test to reject."""
    args = typing.get_args(hint)
    if hint in _SCALARS:
        test, kind = _SCALARS[hint]

        def read(v, path):
            if hint is Path and isinstance(v, str):
                return None if optional and not v else Path(v)
            return tuple(v) if args and isinstance(v, list) and test(tuple(v)) else v
        return Rule(test, kind, read, optional)
    if typing.get_origin(hint) is typing.Annotated:
        import numpy as np
        spec = hint.__metadata__[0]
        return Rule(lambda v: isinstance(v, np.ndarray) and v.ndim == spec.ndim,
                    f"a {spec.ndim}-d array of numbers", spec.read, optional)
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return Rule(lambda v: isinstance(v, hint), "a JSON object", partial(build, hint),
                    optional)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return Rule(lambda v: isinstance(v, hint), f"one of {[m.value for m in hint]}",
                    lambda v, path: next((m for m in hint if type(m.value) is type(v)
                                          and m.value == v), v), optional)
    item = _rule(args[0]) if typing.get_origin(hint) is tuple and args[1:] == (...,) else None
    return None if item is None else Rule(
        lambda v: isinstance(v, tuple) and all(map(item.test, v)), f"a list, each {item.kind}",
        lambda v, path: tuple(item.read(x, f"{path}[{i}]") for i, x in enumerate(v))
        if isinstance(v, list) else v, optional)


@cache
def field_rules(cls: type) -> dict[str, Rule]:
    """Field name -> rule of each field of cls with one."""
    rules = {}
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        args = typing.get_args(hint)
        optional = len(args) == 2 and type(None) in args  # X | None
        rule = _rule(args[args[0] is type(None)] if optional else hint, optional)
        if rule is not None:
            rules[name] = rule
    return rules


def check_field_types(obj) -> None:
    """Raise ValueError naming the first field of obj that breaks its rule."""
    for name, rule in field_rules(type(obj)).items():
        value = getattr(obj, name)
        if not (rule.test(value) or rule.optional and value is None):
            raise ValueError(f"{name} must be {rule.kind}, got {value!r}")


def build(cls: type, raw, where: str = "", **fixed):
    """The dataclass cls made from the JSON object raw, found at the JSON
    path ``where`` ("" at the top); ``fixed`` sets the fields that raw may
    not. A raw that is no JSON object, a key of raw that is no other field,
    or a field without a default that raw lacks, is a ValueError naming its
    path. Each value passes its rule's read, then cls checks them all and
    check_field_types checks the object: a ValueError either raises is
    raised again with ``where`` in front."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where or 'the top level'} must be a JSON object, "
                         f"got {reprlib.repr(raw)}")
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
    values = {key: value if key not in rules or value is None and rules[key].optional
              else rules[key].read(value, prefix + key) for key, value in raw.items()}
    try:
        obj = cls(**values, **fixed)
        check_field_types(obj)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None
    return obj


def to_json(obj):
    """obj as the JSON values build reads back: a dataclass as an object of
    its fields, an array or a tuple as a list, an Enum as its value."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, getattr(sys.modules.get("numpy"), "ndarray", ())):  # (): no numpy yet
        return obj.tolist()
    if isinstance(obj, tuple):
        return [to_json(v) for v in obj]
    return obj.value if isinstance(obj, enum.Enum) else obj
