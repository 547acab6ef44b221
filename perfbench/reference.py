"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and the
speed of those cores drifts by a quarter or more within a minute. The
timed loop runs this kernel about once a second, between operations or
between the steps of one, and scales each stretch of an operation's
wall time by ``NOMINAL_MS / kernel ms``, with the kernel timed just
before and just after the stretch (see ``child.ReferenceClock``): the
result is the operation's time on a host where the kernel takes
``NOMINAL_MS``. The kernel uses no solvhull code, so a change to the
library moves the scaled times as it moves the raw ones; only the
host's drift, which slows the kernel too, cancels.

The kernel mixes the kinds of work the library does: interpreter-bound
Python, numpy calls on small arrays, compiling source (a large code
footprint) and dense BLAS. Each part alone follows the drift less
closely than the mix. The kernel allocates little and runs with the
garbage collector paused, so neither the library's heap nor its peak
memory changes the kernel's time, and the kernel does not change the
library's peak memory.
"""

import gc
import time

import numpy as np

# Kernel time on the 2-vCPU Xeon (Sapphire Rapids, 2.1 GHz) guest the
# benchmark was written on; a fixed constant, so it only sets the scale.
NOMINAL_MS = 25.0

_RNG = np.random.default_rng(20240101)
_SMALL = _RNG.standard_normal((12, 12)) / 4
_DENSE = _RNG.standard_normal((200, 200)) / 20
_PRODUCTS = (np.empty_like(_DENSE), np.empty_like(_DENSE))
_SOURCE = "".join(
    f"def f{i}(x, y={i}):\n"
    f"    out = {{'k': [x * y + j for j in range({i % 7 + 2})]}}\n"
    f"    return sorted(out['k'], key=lambda v: -v) if x else (y, str(y))\n"
    for i in range(120)
)


def _kernel():
    total = 0
    for i in range(30000):
        total += i * i % 7
    x = _SMALL.copy()
    for _ in range(100):
        y = np.zeros((12, 12))
        y[1:, :-1] = x[:-1, 1:]
        x = np.tanh(np.kron(x[:3, :3], y[:4, :4]).sum() * 1e-3 * _SMALL + y)
    compile(_SOURCE, "<reference>", "exec")
    z = _DENSE
    for i in range(6):
        z = np.matmul(z, _DENSE, out=_PRODUCTS[i % 2])
    return total


def reference_ms():
    """Wall time of one run of the kernel, in ms."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if was_enabled:
            gc.enable()


def scaled(ms, ref_ms):
    """A wall time in ms, as on a host where the kernel takes NOMINAL_MS."""
    return ms * NOMINAL_MS / ref_ms
