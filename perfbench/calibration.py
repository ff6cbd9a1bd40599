"""Machine-speed calibration for the in-process (analytic) timings.

On a small shared box the same work runs up to ~1.6x slower for tens of
seconds at a time, and CPU time slows with it.  The analytic loop therefore
runs in blocks of BLOCK_S seconds with a fixed calibration kernel between
blocks.  Each block's timings are scaled by REF_KERNEL_S / (mean of the
kernel times before and after the block), which cancels the machine's speed
and leaves the program's.  The kernel is harness code, so no change to the
program can move it.

Scaling only works when the kernel runs on the same CPU within milliseconds
of the timed work.  A CLI request is a separate process lasting seconds, so
the CLI workloads report raw timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

BLOCK_S = 0.05
# kernel time in the machine's fast state on the 2-core box where the
# benchmark was defined; scaled timings read as seconds at that speed
REF_KERNEL_S = 1.25e-3

_MATRIX = (np.arange(25, dtype=float).reshape(5, 5) % 7 + 1.0) * (1.0 + 0.5j) / 20.0


def kernel_seconds() -> float:
    """Wall time of one fixed unit of numpy-small-array and dict work."""
    t0 = time.perf_counter()
    v = np.ones(5, dtype=complex)
    tally: dict = {}
    for i in range(300):
        v = _MATRIX @ v
        v = v / np.abs(v).sum()
        key = (i % 17, "k")
        tally[key] = tally.get(key, 0.0) + 1.0
    return time.perf_counter() - t0


@dataclass
class Block:
    first: int        # index of the block's first request
    stop: int         # one past its last request
    wall: float       # the block's wall time, calibration excluded
    kernel_s: float   # mean kernel time before and after the block

    @property
    def factor(self) -> float:
        return REF_KERNEL_S / self.kernel_s


def scale(blocks: list, values: list) -> list:
    """Per-request values scaled by their block's calibration factor."""
    out = list(values)
    for b in blocks:
        for i in range(b.first, b.stop):
            out[i] = values[i] * b.factor
    return out


def scaled_wall(blocks: list) -> float:
    return sum(b.wall * b.factor for b in blocks)
