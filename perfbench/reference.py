"""Fixed reference kernels that measure how fast the host runs right now.

On a small shared machine the same pass can take 1.5 to 1.7 times longer for
seconds to minutes at a time (another tenant on the same core), far more
than any bound a benchmark can keep.  The benchmark therefore runs a short
probe, a fixed kernel, before every cell, after every pass and around every
set-up, and reports times and rates at reference speed: each measured time
is divided by the mean slowdown of the probes taken while it ran, where a
probe's slowdown is its time over its time in the host's fast state.  A
host slowdown stretches both and cancels; a change to the package cannot
touch the probes, which use numpy only.

Different work slows by different amounts under contention (small numpy
calls and Python object churn by up to 1.5x, LAPACK at 256 x 256 by about
1.25x), so each workload probes with the kernel that does its kind of work.
One unit of each kernel is:

* ``ibu``: the IBU update at 32 states, 100 iterations, plus one
  repetition's plumbing;
* ``plumbing``: one repetition's plumbing (stream seeding, a multinomial
  draw, validated frozen dataclasses) and a condition number and a solve at
  32 states;
* ``dense``: a condition number and a solve at 256 x 256, and 10 IBU
  iterations at 256 states.
"""

from dataclasses import dataclass
from time import perf_counter

import numpy as np

# seconds per unit on a 2-core Xeon at 2.1 GHz (numpy 2.4, OpenBLAS, 1
# thread) in its fast state; they set the scale of the reported figures
NOMINAL_S = {"ibu": 1.05e-3, "plumbing": 0.125e-3, "dense": 7.0e-3}


@dataclass(frozen=True)
class _Histogram:
    n_qubits: int
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.float64).copy()
        if counts.shape != (2**self.n_qubits,) or np.any(counts < 0):
            raise ValueError("bad histogram")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)


def _model(dim):
    rng = np.random.default_rng(12345)
    response = rng.random((dim, dim)) + dim / 4 * np.eye(dim)
    response /= response.sum(axis=0)
    probs = rng.random(dim)
    return response, probs / probs.sum()


_MODELS = {32: _model(32), 256: _model(256)}


def _plumbing(response, probs, rep):
    states = np.arange(len(probs))
    gen = np.random.default_rng(np.random.SeedSequence([7, rep]))
    hist = _Histogram(5, gen.multinomial(100_000, response @ probs))
    flipped = _Histogram(5, hist.counts[states ^ (rep % len(probs))])
    return float(flipped.counts @ states) / flipped.counts.sum()


def _ibu(response, probs, iterations):
    counts = np.random.default_rng(1).multinomial(100_000, response @ probs).astype(np.float64)
    estimate = np.full(len(probs), counts.sum() / len(probs))
    for _ in range(iterations):
        folded = response @ estimate
        empty = folded <= 0.0
        if np.any(empty & (counts > 0)):
            raise ArithmeticError("empty bin")
        ratio = np.divide(counts, folded, out=np.zeros_like(estimate), where=~empty)
        estimate = estimate * (response.T @ ratio)
    return estimate


def ibu(units):
    response, probs = _MODELS[32]
    for rep in range(units):
        _ibu(response, probs, 100)
        _plumbing(response, probs, rep)


def plumbing(units):
    response, probs = _MODELS[32]
    for rep in range(units):
        _plumbing(response, probs, rep)
        np.linalg.cond(response)
        np.linalg.solve(response, probs)


def dense(units):
    response, probs = _MODELS[256]
    for _ in range(units):
        np.linalg.cond(response)
        np.linalg.solve(response, probs)
        _ibu(response, probs, 10)


KERNELS = {"ibu": ibu, "plumbing": plumbing, "dense": dense}


def probe(kernel, units):
    """Run ``units`` of a kernel; returns ``(seconds, slowdown)``."""
    start = perf_counter()
    KERNELS[kernel](units)
    seconds = perf_counter() - start
    return seconds, seconds / (units * NOMINAL_S[kernel])
