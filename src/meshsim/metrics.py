"""Link-quality estimation and the ELP cost function.

A link's cost multiplies three factors: a loss-ratio term generalizing ETX
with an asymmetry exponent that biases toward the data (forward) direction,
an interference term growing with the contention domain's busy fraction, and
a capacity term that makes faster links cheaper. Path cost is the plain sum
of link costs. Hop count is kept around as the comparison baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DeadLink, check_ranges

#: delivery-ratio floor below which a link is unusable for routing
DEAD_RATIO = 0.01
#: busy-fraction clamp; keeps the interference factor 1 / (1 - busy) finite
BUSY_MAX = 0.99


@dataclass
class ElpParams:
    w: float = 0.75           # asymmetry corrective constant, (0.5, 1]
    ref_rate: float = 12e6    # bits/s normalization for the capacity factor
    ewma_alpha: float = 0.1   # probe smoothing weight

    def __post_init__(self):
        if not 0.5 < self.w <= 1.0:
            raise ValueError(f"w must be in (0.5, 1], got {self.w}")
        check_ranges(self, positive=("ref_rate",))
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")


@dataclass
class LinkStats:
    """Per-directed-link probe accounting for one link, as seen by one node.

    d_f is the delivery ratio in the data direction, d_r the reverse (ACK)
    direction; busy is the contention-domain busy fraction; samples counts
    probe observations per direction.
    """

    d_f: float = 1.0
    d_r: float = 1.0
    busy: float = 0.0
    capacity: float = 1.0
    samples: dict[str, int] = field(default_factory=lambda: {"fwd": 0, "rev": 0})


def record_probe(stats: LinkStats, direction: str, received: bool,
                 alpha: float = 0.1) -> LinkStats:
    """EWMA update of one direction's delivery ratio from a probe outcome."""
    x = 1.0 if received else 0.0
    if direction == "fwd":
        stats.d_f = (1.0 - alpha) * stats.d_f + alpha * x
    elif direction == "rev":
        stats.d_r = (1.0 - alpha) * stats.d_r + alpha * x
    else:
        raise ValueError(f"direction must be 'fwd' or 'rev', got {direction!r}")
    stats.samples[direction] += 1
    return stats


def elp_link(stats: LinkStats, params: ElpParams) -> float:
    """Cost of one link: loss ratio x interference x capacity factors."""
    if stats.d_f < DEAD_RATIO or stats.d_r < DEAD_RATIO:
        raise DeadLink(f"delivery ratio below floor ({stats.d_f:.3g}, {stats.d_r:.3g})")
    llr = 1.0 / (stats.d_f ** params.w * stats.d_r ** (1.0 - params.w))
    b = min(stats.busy, BUSY_MAX)
    li = 1.0 / (1.0 - b)
    lc = params.ref_rate / stats.capacity
    return llr * li * lc


def elp_path(link_costs) -> float:
    """Path cost is the arithmetic sum of its link costs."""
    return sum(link_costs)


def hop_count_metric(link=None) -> float:
    """Baseline metric: every link costs exactly 1."""
    return 1.0
