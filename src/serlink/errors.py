"""Exception hierarchy shared by the link simulator."""


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
