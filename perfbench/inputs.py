"""Seeded PSD pairs, states and CLI matrix files.

Every matrix is built as ``U diag(d) U*`` with ``d`` either exactly 0 or
drawn from ``[0.2, 1] * scale``, then made exactly Hermitian. The clean
spectral gap keeps the library's rank decisions and the oracles' in
agreement at every joint scale.
"""

import json
import math

import numpy as np

def hermitize(m):
    return 0.5 * (m + m.conj().T)


class Gen:
    """Draws inputs from one seeded generator."""

    def __init__(self, rng):
        self.rng = rng

    def unitary(self, n, real=False):
        g = self.rng.standard_normal((n, n))
        if not real:
            g = (g + 1j * self.rng.standard_normal((n, n))) / math.sqrt(2.0)
        q, r = np.linalg.qr(g)
        d = np.diag(r)
        return q * (d / np.abs(d))[None, :]

    def psd_on(self, cols, scale):
        d = self.rng.uniform(0.2, 1.0, size=cols.shape[1]) * scale
        return hermitize((cols * d) @ cols.conj().T)

    def scale(self):
        """Joint scale, log-uniform in [1e-6, 1e6]."""
        return 10.0 ** self.rng.uniform(-6.0, 6.0)

    def pair(self, kind, n, real=False, scale=None):
        """A PSD pair of the given kind and its joint scale.

        With r about n/2: ``full`` both definite; ``a_def`` a of rank r, b
        definite (b has a singular part); ``b_def`` a definite, b of rank r
        (unbounded pairings are +inf); ``a_zero`` and ``b_zero``;
        ``singular`` ranges of rank r and n - r meeting only in 0; ``ac`` b
        supported inside the range of rank-r a.
        """
        s = self.scale() if scale is None else scale
        ua = self.unitary(n, real)
        ub = self.unitary(n, real)
        r = max(1, n // 2)
        zero = np.zeros((n, n), dtype=ua.dtype)
        if kind == "full":
            a, b = self.psd_on(ua, s), self.psd_on(ub, s)
        elif kind == "a_def":
            a, b = self.psd_on(ua[:, :r], s), self.psd_on(ub, s)
        elif kind == "b_def":
            a, b = self.psd_on(ua, s), self.psd_on(ub[:, :r], s)
        elif kind == "a_zero":
            a, b = zero, self.psd_on(ub, s)
        elif kind == "b_zero":
            a, b = self.psd_on(ua, s), zero
        elif kind == "singular":
            # range of b: the complement of ran(a) tilted toward ran(a), so
            # the ranges meet only in 0 at principal angles of 60 degrees or
            # more and a + b stays well conditioned
            g = ua[:, :r] @ self.unitary(max(r, n - r), real)[:r, :n - r]
            tilted, _ = np.linalg.qr(ua[:, r:] + 0.5 * g)
            a, b = self.psd_on(ua[:, :r], s), self.psd_on(tilted, s)
        elif kind == "ac":
            inside = ua[:, :r] @ self.unitary(r, real)
            a, b = self.psd_on(ua[:, :r], s), self.psd_on(inside, s)
        else:
            raise ValueError(f"unknown pair kind {kind!r}")
        return a, b, s

    def state(self, n, real=False):
        """Full-rank state of unit trace."""
        rho = self.psd_on(self.unitary(n, real), 1.0)
        return rho / np.real(np.trace(rho))

    def dominated(self, total):
        """``c = total^(1/2) k total^(1/2)`` with ``0 <= k <= I``."""
        w, v = np.linalg.eigh(total)
        root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
        k = self.psd_on(self.unitary(total.shape[0], not np.iscomplexobj(total)), 1.0)
        return hermitize(root @ k @ root)

    def not_psd(self, n, real=False):
        """Hermitian with one eigenvalue at -0.5 * scale."""
        u = self.unitary(n, real)
        s = self.scale()
        d = self.rng.uniform(0.2, 1.0, size=n) * s
        d[0] = -0.5 * s
        return hermitize((u * d) @ u.conj().T)

    def vector(self, n, real=False):
        v = self.rng.standard_normal(n)
        if not real:
            v = v + 1j * self.rng.standard_normal(n)
        return v / np.linalg.norm(v)

    def real(self):
        return bool(self.rng.integers(2))


def write_array(path, m):
    """Write a matrix or vector file (``n``, ``re`` and, if complex, ``im``);
    JSON floats round-trip exactly."""
    m = np.asarray(m)
    data = {"n": int(m.shape[0]), "re": np.real(m).tolist()}
    if np.iscomplexobj(m):
        data["im"] = np.imag(m).tolist()
    with open(path, "w") as fh:
        json.dump(data, fh)
