"""The ELP link cost function.

A link's cost multiplies three factors: a loss-ratio term generalizing ETX
with an asymmetry exponent that biases toward the data (forward) direction,
an interference term growing with the contention domain's busy fraction, and
a capacity term that makes faster links cheaper. Path cost is the plain sum
of link costs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_ranges

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
        check_ranges(self, positive=("ref_rate",), unit=("ewma_alpha",))


def elp_link(d_f: float, d_r: float, busy: float, capacity: float,
             params: ElpParams) -> float | None:
    """Cost of one link: loss ratio x interference x capacity factors.

    d_f is the delivery ratio in the data direction, d_r the reverse (ACK)
    direction, busy the contention domain's busy fraction. None means the
    link is dead: a delivery ratio is below DEAD_RATIO.
    """
    if d_f < DEAD_RATIO or d_r < DEAD_RATIO:
        return None
    llr = 1.0 / (d_f ** params.w * d_r ** (1.0 - params.w))
    li = 1.0 / (1.0 - min(busy, BUSY_MAX))
    lc = params.ref_rate / capacity
    return llr * li * lc
