"""Machine-speed gauge for a shared host whose speed drifts.

On the shared 2-core host the README's figures come from, the same
allocation-heavy code (loading the resource files, a training step that
allocates its B x L x V logits) ran up to 1.4x slower from one minute
to the next, in CPU time as much as in wall time, and no repetition
inside one run removes that. A ``Gauge`` times a fixed kernel that does
not touch markkit right before and right after each timed interval, and
the benchmark scales the interval to the host speed at which the kernel
takes its reference time:

    reported = measured * reference_s / mean kernel time around the interval

A change to markkit moves a reported time exactly as much as it moves
the measured one; only the host's speed is divided out. Each kernel
mimics the work it stands for. The benchmark scales only the intervals
that a kernel was seen to track (see README.md).
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np


def make_python_kernel():
    """Interpreter-bound work in the mix of markkit's corpus path: parsing
    numeric text, building and sorting (score, word) tuples from a numpy
    vector, a JSON round trip of example-like records, and dict and str
    operations on small objects."""
    rng = np.random.default_rng(0)
    lines = [" ".join(f"{v:.6f}" for v in row) for row in rng.normal(size=(150, 100))]
    scores = rng.random(10_000)
    names = [f"w{i}" for i in range(len(scores))]
    records = [{"input_ids": list(range(i, i + 128)), "mlm_labels": [[j, j + 7] for j in range(20)]}
               for i in range(15)]

    def kernel() -> None:
        [[float(x) for x in line.split()] for line in lines]
        scored = [(float(scores[j]), names[j]) for j in range(len(scores))]
        scored.sort(key=lambda t: (-t[0], t[1]))
        [json.loads(json.dumps(r, separators=(",", ":"))) for r in records]
        counts: dict[str, int] = {}
        for i in range(15_000):
            key = str(i % 997)
            counts[key] = counts.get(key, 0) + i

    return kernel


def make_blas_kernel(rows: int = 256, hidden: int = 64, vocab: int = 21_128):
    """BLAS- and memory-bound work, like the dense MLM head: a
    (rows, hidden) x (hidden, vocab) product and one softmax-style pass
    over it."""
    rng = np.random.default_rng(0)
    x, w = rng.random((rows, hidden)), rng.random((hidden, vocab))

    def kernel() -> None:
        y = x @ w
        y -= y.max(axis=1, keepdims=True)
        np.exp(y, out=y)

    return kernel


class Gauge:
    def __init__(self, kernel, reference_s: float, samples: int):
        self.kernel = kernel
        self.reference_s = reference_s
        self.samples = samples
        self.readings: list[float] = []

    def read(self) -> float:
        """Median kernel time over ``samples`` runs, which is also recorded."""
        times = []
        for _ in range(self.samples):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        self.readings.append(statistics.median(times))
        return self.readings[-1]

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between readings ``before`` and ``after``,
        at reference speed."""
        return seconds * self.reference_s / ((before + after) / 2.0)
