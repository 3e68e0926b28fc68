"""A fixed piece of work that measures how fast the machine runs right now.

The benchmark's host shares its cores with other tenants.  For stretches of
seconds to minutes the same op takes up to 1.6 times longer, which no statistic
inside one run removes.  Timing this kernel next to every op and scaling the
op's wall time by ``REFERENCE_S`` / (kernel time) removes most of that: the
kernel slows down with the machine, but it imports nothing from laco, so a
change to laco moves the scaled times exactly as much as the wall times.

The kernel does what laco's inner loop does, at its shapes: single-query
attention over two heads of width 8 in numpy, and small dictionaries built and
summed in the interpreter.
"""

from time import perf_counter

import numpy as np

# Scaled times are wall times on a machine where one measure() takes 5 ms,
# about what it takes on the 2-vCPU VM the README's figures come from.
REFERENCE_S = 0.005
ROUNDS = 300


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.keys = rng.standard_normal((2, 60, 8)).astype(np.float32)
        self.query = rng.standard_normal((2, 8)).astype(np.float32)
        self.expected = self._work()

    def _work(self) -> float:
        acc = 0.0
        for _ in range(ROUNDS):
            scores = np.einsum("hnd,hd->hn", self.keys, self.query)
            weights = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights /= weights.sum(axis=1, keepdims=True)
            acc += float((weights[:, :, None] * self.keys).sum())
            squares = {j: j * j for j in range(20)}
            acc += sum(squares.values())
        return acc

    def measure(self) -> float:
        """Seconds one run of the kernel takes now."""
        t0 = perf_counter()
        acc = self._work()
        elapsed = perf_counter() - t0
        if acc != self.expected:
            raise RuntimeError(f"calibration kernel gave {acc!r}, expected {self.expected!r}")
        return elapsed

    @staticmethod
    def scale(wall: float, before: float, after: float) -> float:
        """``wall`` seconds at the reference speed, given the kernel's times
        just before and just after them."""
        return wall * 2 * REFERENCE_S / (before + after)
