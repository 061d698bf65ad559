"""Exception hierarchy shared across the simulator, and a range check."""


def check_ranges(obj, positive=(), nonnegative=()):
    """Raise ValueError for the first named attribute of obj out of range."""
    for name in positive:
        if not getattr(obj, name) > 0:
            raise ValueError(f"{name} must be > 0, got {getattr(obj, name)!r}")
    for name in nonnegative:
        if not getattr(obj, name) >= 0:
            raise ValueError(f"{name} must be >= 0, got {getattr(obj, name)!r}")


class MeshSimError(Exception):
    """Base class for all simulator errors."""


class ValidationError(MeshSimError):
    """One or more constraint violations in a scenario or topology definition.

    Collects every violation so a broken scenario file is reported in one shot.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ParseError(MeshSimError):
    """Scenario file could not be parsed at all."""


class UnknownLink(MeshSimError):
    """Operation referenced a link that does not exist in the topology."""


class PastTime(MeshSimError):
    """Attempt to schedule an event before the current virtual clock."""


class NoRoute(MeshSimError):
    """No usable route between the requested endpoints."""


class UnknownFlow(MeshSimError):
    """Flow id not present in the admission ledger."""


class UnknownSession(MeshSimError):
    """Client session does not exist."""


class SenderOffline(MeshSimError):
    """Message submitted by a client with no online session."""


class ReceiverUnknown(MeshSimError):
    """Destination client id was never registered."""


class CalleeOffline(MeshSimError):
    """Call or video request aimed at an offline client."""


class DurationExceeded(MeshSimError):
    """Broadcast audio longer than the recording limit."""


class TooFewSamples(MeshSimError):
    """Statistic requested on fewer samples than it is defined for."""


class IoError(MeshSimError):
    """Export could not write to the requested path."""
