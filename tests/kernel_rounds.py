"""Count the Jacobi kernel's sweeps and rounds per solve.

Usage::

    python tests/kernel_rounds.py [SOLVES]

For each size ``n`` in 4, 8, 16, 24 and 32, real and complex, solves
``SOLVES`` (default 20) seeded definite and rank-``n/2`` PSD matrices one
at a time with ``linalg._jacobi_eig`` and prints the mean sweeps and
rounds per solve. A sweep is counted by the kernel's stopping test,
``linalg._offdiag_norm``, which runs before every sweep and once more when
the matrix has converged; the rounds of a solve are its sweeps times the
rounds of one sweep, ``len(linalg._round_plan(n, 1))``. Beside them it
prints the mean sweeps of the same matrices scaled by ``4**-280``
(about 1e-169), where every entry's square underflows: the kernel solves
each matrix at unit scale, so the two columns must be equal.

Then, for ``SOLVES`` seeded n=24 states of unit trace ``U diag(d) U*``
with ``d`` in [0.2, 1] (a Haar ``U``, real and complex, as the pairing
queries of the benchmark draw them), it prints the mean, least and most
sweeps before the kernel certifies the state positive (``certify``, as
state validation solves it) and before it converges (as
``validate_psd`` solves it).

The counts are deterministic, so the script reports no timing. It
imports ``pwcalc`` from the ``src`` directory next to this one. Not a
test module: pytest does not collect it.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pwcalc import linalg  # noqa: E402

SIZES = (4, 8, 16, 24, 32)
STATE_N = 24
SEED = 20240811
TINY = 4.0 ** -280


def gram(rng, n: int, rank: int, real: bool) -> np.ndarray:
    """A PSD Gram ``g g*`` of a standard normal ``(n, rank)`` factor."""
    g = rng.standard_normal((n, rank))
    if not real:
        g = (g + 1j * rng.standard_normal((n, rank))) / np.sqrt(2.0)
    m = g @ g.conj().T
    return 0.5 * (m + m.conj().T)


def state(rng, n: int, real: bool) -> np.ndarray:
    """A state ``U diag(d) U*`` of unit trace, ``d`` in [0.2, 1]."""
    g = rng.standard_normal((n, n))
    if not real:
        g = (g + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    d = rng.uniform(0.2, 1.0, size=n)
    m = (u * d) @ u.conj().T
    return 0.5 * (m + m.conj().T) / d.sum()


def sweeps(m: np.ndarray, certify=()) -> int:
    """The sweeps that ``_jacobi_eig(m, certify=certify)`` runs."""
    checks = 0
    plain = linalg._offdiag_norm

    def counting(h):
        nonlocal checks
        checks += 1
        return plain(h)

    linalg._offdiag_norm = counting
    try:
        linalg._jacobi_eig(m, certify=certify)
    finally:
        linalg._offdiag_norm = plain
    return checks - 1


def main(argv) -> int:
    if len(argv) > 1 or (argv and not argv[0].isdigit()):
        print("usage: python tests/kernel_rounds.py [SOLVES]", file=sys.stderr)
        return 2
    solves = int(argv[0]) if argv else 20
    print(f"{'n':>3} {'input':<8} {'rank':<8} {'rounds/sweep':>12} "
          f"{'sweeps/solve':>12} {'rounds/solve':>12} {'at 4^-280':>10}")
    for n in SIZES:
        per_sweep = len(linalg._round_plan(n, 1))
        for real in (True, False):
            for kind, rank in (("definite", n), ("n/2", n // 2)):
                rng = np.random.default_rng([SEED, n, real, rank])
                mats = [gram(rng, n, rank, real) for _ in range(solves)]
                total = sum(sweeps(m) for m in mats)
                tiny = sum(sweeps(TINY * m) for m in mats)
                print(f"{n:>3} {'real' if real else 'complex':<8} {kind:<8} "
                      f"{per_sweep:>12} {total / solves:>12.2f} "
                      f"{per_sweep * total / solves:>12.1f} {tiny / solves:>10.2f}")
    print()
    print("sweeps to the certificate and to convergence, mean / min / max")
    print(f"{'n':>3} {'state':<8} {'certificate':>18} {'convergence':>18}")
    for real in (True, False):
        rng = np.random.default_rng([SEED, STATE_N, real])
        states = [state(rng, STATE_N, real) for _ in range(solves)]
        cols = []
        for certify in ((0,), ()):
            counts = [sweeps(m, certify) for m in states]
            cols.append(f"{sum(counts) / solves:.2f} / {min(counts)} / {max(counts)}")
        print(f"{STATE_N:>3} {'real' if real else 'complex':<8} "
              f"{cols[0]:>18} {cols[1]:>18}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
