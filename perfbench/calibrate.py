"""Host speed references, measured next to the operations they scale.

The host's speed drifts by up to a factor of two over tens of seconds, and
the drift moves every wall time and CPU time with it. So each timed pass
interleaves a reference of fixed work that does not touch pwcalc, and each
operation's time is scaled to a reference host: multiplied by
``reference seconds on the reference host / reference seconds nearby``.
A change to pwcalc moves the scaled times; the host's drift cancels out.

Two references, chosen for what they track:

- ``loop``: a Jacobi-style rotation loop on a fixed 10 x 10 complex matrix,
  the same mix of interpreter and small-array work as pwcalc's kernel. It
  tracks in-process calls to within a few percent.
- ``spawn``: a bare ``python -c pass`` interpreter. Process start-up drifts
  apart from in-process compute, so spawned operations are scaled by it.
"""

import bisect
import math
import statistics
import time

import numpy as np

import procs

# seconds each reference takes on the reference host (one 2-core VM at its
# typical speed); scaled times read as times on that host
LOOP_REF_S = 0.0018
SPAWN_REF_S = 0.055

# a window of this many references, half before and half after, gives the
# local speed at each operation
WINDOW = 4


def _rotations(rounds=3):
    n = 10
    h = np.array(np.arange(n * n).reshape(n, n) % 7, dtype=np.complex128) + 1j
    h = h + h.conj().T
    for _ in range(rounds):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = h[p, q]
                mag = abs(apq) or 1.0
                tau = (h[q, q].real - h[p, p].real) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                su = (t * c) * (apq / mag)
                colp = h[:, p].copy()
                colq = h[:, q].copy()
                h[:, p] = c * colp - su.conjugate() * colq
                h[:, q] = su * colp + c * colq
    return h


class Reference:
    """A fixed unit of work: ``measure()`` times one unit, ``ref_s`` is
    its time on the reference host, ``every_s`` how much operation time
    may pass between two measurements."""

    def __init__(self, kind, env=None, cwd=None):
        self.kind = kind
        if kind == "loop":
            self.ref_s, self.every_s = LOOP_REF_S, 0.05
        elif kind == "spawn":
            self.ref_s, self.every_s = SPAWN_REF_S, 0.3
            self.env, self.cwd = env, cwd
        else:
            raise ValueError(f"unknown reference {kind!r}")
        for _ in range(3):  # warm-up
            self.measure()

    def measure(self):
        if self.kind == "spawn":
            return procs.spawn_seconds("pass", self.env, self.cwd)
        t0 = time.perf_counter()
        _rotations()
        return time.perf_counter() - t0


def scaled(seconds, marks, ref_s):
    """Scale each operation's seconds to the reference host.

    ``marks`` is a list of (operation index, reference seconds), in order;
    the local reference time at operation i is the median of the ``WINDOW``
    marks nearest to it."""
    if not marks:
        raise ValueError("no reference measured")
    at = [i for i, _ in marks]
    out = []
    for i, s in enumerate(seconds):
        k = bisect.bisect_right(at, i)
        lo = max(0, min(k - WINDOW // 2, len(marks) - WINDOW))
        window = [r for _, r in marks[lo:lo + WINDOW]]
        out.append(s * ref_s / statistics.median(window))
    return out


def scaled_spawn_seconds(code, env, cwd, times):
    """Median over ``times`` fresh ``python -c code`` interpreters, each
    scaled by a bare interpreter started just before it."""
    ratios = []
    for _ in range(times):
        bare = procs.spawn_seconds("pass", env, cwd)
        ratios.append(procs.spawn_seconds(code, env, cwd) / bare)
    return statistics.median(ratios) * SPAWN_REF_S
