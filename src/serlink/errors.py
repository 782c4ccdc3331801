"""Exception hierarchy shared by the link simulator, and its config check."""

import math
import numbers
from dataclasses import fields

NON_NEGATIVE = (">= 0", lambda v: v >= 0)
TRUE_OR_FALSE = ("true or false", lambda v: v is True or v is False)
# what a value must be besides its rule, by field annotation, and the words
_KINDS = {"float": ("finite, ", lambda v: isinstance(v, numbers.Real) and math.isfinite(v)),
          "int": ("an integer, ", lambda v: isinstance(v, numbers.Integral))}


def check(name, kind, rule, value):
    """Raise ValueError naming ``name`` and its rule unless ``value`` suits
    ``kind``, a field annotation, and passes ``rule``, a (text, test) pair."""
    also, suits = _KINDS.get(kind, ("", lambda v: True))
    if not (suits(value) and rule[1](value)):
        raise ValueError(f"{name} must be {also}{rule[0]}, got {value!r}")


def check_fields(config):
    """Check each field of the dataclass ``config`` against its class's RULES."""
    for f in fields(config):
        check(f.name, f.type, config.RULES[f.name], getattr(config, f.name))


class LinkError(Exception):
    """Base class for all simulator errors."""


class CodecError(LinkError):
    pass


class UnsupportedControlSymbol(CodecError):
    pass


class InvalidCode(CodecError):
    pass


class DisparityError(CodecError):
    pass


class Underflow(LinkError):
    pass


class OutOfRange(LinkError):
    pass


class InsufficientSpan(LinkError):
    pass


class UnknownRegister(LinkError):
    pass


class AlignmentError(LinkError):
    pass


class InfeasibleBandwidth(LinkError):
    pass


class CurveOutOfRange(LinkError):
    pass


class ConfigError(LinkError):
    pass


class SimulationError(LinkError):
    pass
