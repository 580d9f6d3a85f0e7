"""Count the Jacobi kernel's sweeps and rounds per solve.

Usage::

    python tests/kernel_rounds.py [SOLVES]

For each size ``n`` in 4, 8, 16, 24 and 32, real and complex, solves
``SOLVES`` (default 20) seeded definite and rank-``n/2`` PSD matrices one
at a time with ``linalg._jacobi_eig`` and prints the mean sweeps and
rounds per solve. A sweep is counted by the kernel's stopping test,
``linalg._offdiag_norm``, which runs before every sweep and once more when
the matrix has converged; the rounds of a solve are its sweeps times the
rounds of one sweep, ``len(linalg._round_plan(n, 1))``. The counts are
deterministic, so the script reports no timing. It imports ``pwcalc``
from the ``src`` directory next to this one. Not a test module: pytest
does not collect it.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pwcalc import linalg  # noqa: E402

SIZES = (4, 8, 16, 24, 32)
SEED = 20240811


def gram(rng, n: int, rank: int, real: bool) -> np.ndarray:
    """A PSD Gram ``g g*`` of a standard normal ``(n, rank)`` factor."""
    g = rng.standard_normal((n, rank))
    if not real:
        g = (g + 1j * rng.standard_normal((n, rank))) / np.sqrt(2.0)
    m = g @ g.conj().T
    return 0.5 * (m + m.conj().T)


def sweeps(m: np.ndarray) -> int:
    """The sweeps that ``_jacobi_eig(m)`` runs."""
    checks = 0
    plain = linalg._offdiag_norm

    def counting(h):
        nonlocal checks
        checks += 1
        return plain(h)

    linalg._offdiag_norm = counting
    try:
        linalg._jacobi_eig(m)
    finally:
        linalg._offdiag_norm = plain
    return checks - 1


def main(argv) -> int:
    if len(argv) > 1 or (argv and not argv[0].isdigit()):
        print("usage: python tests/kernel_rounds.py [SOLVES]", file=sys.stderr)
        return 2
    solves = int(argv[0]) if argv else 20
    print(f"{'n':>3} {'input':<8} {'rank':<8} {'rounds/sweep':>12} "
          f"{'sweeps/solve':>12} {'rounds/solve':>12}")
    for n in SIZES:
        per_sweep = len(linalg._round_plan(n, 1))
        for real in (True, False):
            for kind, rank in (("definite", n), ("n/2", n // 2)):
                rng = np.random.default_rng([SEED, n, real, rank])
                total = sum(sweeps(gram(rng, n, rank, real)) for _ in range(solves))
                print(f"{n:>3} {'real' if real else 'complex':<8} {kind:<8} "
                      f"{per_sweep:>12} {total / solves:>12.2f} "
                      f"{per_sweep * total / solves:>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
