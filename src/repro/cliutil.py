"""One declaration per option: the bound, the flag and the config field.

A config dataclass (``ServeConfig``, ``ClusterConfig``, ``LoadgenConfig``,
``ChaosConfig``) declares each option once, on its field: :func:`option`
puts the flag name, the :class:`Bound` and the help text in the field's
metadata, and the field's default is the flag's default.
:func:`add_options` adds those flags to an argparse parser,
:func:`from_args` builds the config from the parsed namespace, and
:func:`check_fields`, which each dataclass calls from ``__post_init__``,
rejects from the Python API, with :class:`~repro.errors.ConfigError`,
every value the flag rejects with exit 2.

A :class:`Bound` is also a plain argparse ``type``, for the flags that are
not one config field (ports, ``--capacity-mb``, the grid and fuzz options).
"""

from __future__ import annotations

import argparse
import math
from dataclasses import Field, dataclass, field, fields
from typing import Any, Callable, Optional

from .errors import ConfigError

__all__ = [
    "Bound",
    "add_options",
    "check_fields",
    "finite_positive_float",
    "fraction",
    "from_args",
    "integer",
    "listen_port",
    "non_negative_float",
    "non_negative_int",
    "option",
    "port",
    "positive_float",
    "positive_int",
    "tolerance",
]


@dataclass(frozen=True)
class Bound:
    """A numeric range: an argparse ``type`` and a field check in one."""

    kind: type  # int or float
    holds_for: Callable[[Any], bool]
    rule: str  # how a value outside the range is refused

    def __call__(self, text: str) -> Any:
        try:
            value = self.kind(text)
        except ValueError:
            noun = "an integer" if self.kind is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if not self.holds_for(value):  # NaN compares false
            raise argparse.ArgumentTypeError(f"{self.rule}, got {text!r}")
        return value

    def holds(self, value: Any) -> bool:
        """Is ``value`` (from the Python API) of this kind and in range?"""
        kinds = (int,) if self.kind is int else (int, float)
        return isinstance(value, kinds) and bool(self.holds_for(value))


positive_float = Bound(float, lambda v: v > 0, "must be positive")
non_negative_float = Bound(float, lambda v: v >= 0, "must be >= 0")
finite_positive_float = Bound(
    float, lambda v: 0 < v < math.inf, "must be positive and finite"
)
fraction = Bound(float, lambda v: 0 <= v <= 1, "must be in [0, 1]")
tolerance = Bound(float, lambda v: 0 <= v < 1, "must be in [0, 1)")
positive_int = Bound(int, lambda v: v > 0, "must be positive")
non_negative_int = Bound(int, lambda v: v >= 0, "must be >= 0")
integer = Bound(int, lambda v: True, "must be an integer")
#: a port to connect to, and one to listen on (0 = an ephemeral port)
port = Bound(int, lambda v: 1 <= v <= 65535, "must be a port in 1-65535")
listen_port = Bound(int, lambda v: 0 <= v <= 65535, "must be a port in 0-65535")


def option(
    default: Any,
    flag: Optional[str] = None,
    bound: Optional[Bound] = None,
    **argparse_kwargs: Any,
) -> Any:
    """A config field declared once: its default, and in its metadata its
    flag (None: no command line sets it), its bound and the rest of the
    flag's argparse keywords (``help``, ``metavar``, ``choices``).

    A ``bool`` field's flag is a switch that flips the field's default.
    """
    return field(
        default=default,
        metadata={"flag": flag, "bound": bound, **argparse_kwargs},
    )


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def add_options(
    parser: argparse.ArgumentParser, config: type, *names: str, **renamed: str
) -> None:
    """Add to ``parser`` the flag of every field of ``config`` that declares
    one, or of the fields ``names`` and ``renamed`` list; ``renamed`` gives
    a field a flag of another name on this parser."""
    chosen = {*names, *renamed}
    for f in fields(config):
        meta = dict(f.metadata)
        flag = renamed.get(f.name, meta.pop("flag", None))
        bound = meta.pop("bound", None)
        if flag is None or chosen and f.name not in chosen:
            continue
        if isinstance(f.default, bool):
            parser.add_argument(flag, action="store_true", **meta)
        else:
            parser.add_argument(flag, type=bound, default=f.default, **meta)


def from_args(config: type, args: argparse.Namespace, **given: Any) -> Any:
    """``config`` built from the values its fields' flags left in ``args``,
    and from ``given`` for the rest."""
    values = dict(given)
    for f in fields(config):
        flag = f.metadata.get("flag")
        if flag is None or f.name in given or not hasattr(args, _dest(flag)):
            continue
        value = getattr(args, _dest(flag))
        values[f.name] = value != f.default if isinstance(f.default, bool) else value
    return config(**values)


def _optional(f: Field) -> bool:
    return str(f.type).startswith(("Optional[", "typing.Optional["))


def check_fields(config: Any) -> None:
    """Raise :class:`ConfigError` for the first field of ``config`` outside
    its declared bound or choices (None passes where the field is
    ``Optional``)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None and _optional(f):
            continue
        bound, choices = f.metadata.get("bound"), f.metadata.get("choices")
        if bound is not None and not bound.holds(value):
            rule = bound.rule
        elif choices is not None and value not in choices:
            rule = f"must be one of {', '.join(map(str, choices))}"
        else:
            continue
        flag = f.metadata.get("flag")
        where = f" ({flag})" if flag else ""
        raise ConfigError(
            f"{type(config).__name__}.{f.name}{where} {rule}, got {value!r}"
        )
