"""Count the Jacobi kernel's sweeps and rounds per solve.

Usage::

    python tests/kernel_rounds.py [SOLVES]

For each size ``n`` in 4, 8, 16, 24 and 32, real and complex, solves
``SOLVES`` (default 20) seeded definite and rank-``n/2`` PSD matrices one
at a time with ``linalg._jacobi_eig`` and prints the mean sweeps and
rounds per solve. The rounds are those of the kernel's own record of
each call (``linalg._kernel_record``): a round counts once the kernel
moves on to the next one or ends the sweep. A solve that converges runs
whole sweeps, so its sweeps are its rounds over the rounds of one sweep.
Beside them it prints the mean sweeps of the same matrices scaled by
``4**-280`` (about 1e-169), where every entry's square underflows: the
kernel solves each matrix at unit scale, so the two columns must be
equal.

Then, for ``SOLVES`` seeded n=24 states of unit trace ``U diag(d) U*``
with ``d`` in [0.2, 1] (a Haar ``U``, real and complex, as the pairing
queries of the benchmark draw them), it prints the mean, least and most
rounds before the kernel certifies the state positive (``certify``, as
state validation solves it; the certificate is also tested inside a
sweep, so this need not be a whole number of sweeps) and before it
converges (as ``validate_psd`` solves it).

Next to them it prints the same two counts for ``to_support``'s matrices
as the benchmark's reused-rep workload draws them: for ``SOLVES`` seeded
n=24 pairs of each of its five kinds (``full``, ``a_def``, ``b_def``,
``singular`` and ``a_zero``, see :func:`pair`), real and complex, one
dominated matrix ``c = (a+b)^(1/2) k (a+b)^(1/2)``, ``k`` a state-like
``U diag(d) U*`` with ``d`` in [0.2, 1] (see :func:`dominated`).

Then, for n = 16, 24 and 48, it prints the mean, least and most sweeps to
convergence of two-cluster spectra under a Haar ``U``: ``d`` exactly 0.3
on half the indices and 0.7 on the rest, and a rank-``n/2`` projection.
Both take several times the sweeps of the generic spectra above.

Last, for ``SOLVES`` seeded n=24 pairs of each kind ``a_def``, ``b_def``
and ``singular``, real and complex, drawn as the benchmark draws them at
joint scale 1 (see :func:`pair`), it prints the size of ``build_rep``'s
second kernel call, the solve of ``gram_a``'s retained block, and its
mean, least and most rounds. ``gram_a`` is 0 on ``T(ker a)`` and 1 on
``T(ker b)``, which ``build_rep`` splits off, so that call has size 12 on
an ``a_def`` or ``b_def`` pair, where the whole ``gram_a`` had size 24,
and a ``singular`` pair makes no second call.

When the reader closes the pipe early, as ``| head`` does, it stops
quietly with status 1.

The counts are deterministic, so the script reports no timing. It
imports ``pwcalc`` from the ``src`` directory next to this one. Not a
test module: pytest does not collect it; the tests import its rounds of
one solve, its state rows and its pair recipe, and
``tests/test_kernel_rounds.py`` pins its output at ``SOLVES`` 2.
"""

import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pwcalc import calculus, linalg  # noqa: E402

SIZES = (4, 8, 16, 24, 32)
STATE_N = 24
SEED = 20240811
TINY = 4.0 ** -280
CLUSTER_SIZES = (16, 24, 48)
PAIR_N = 24
PAIR_KINDS = ("a_def", "b_def", "singular")
# the pair kinds of the benchmark's reused-rep workload
REP_KINDS = ("full", "a_def", "b_def", "singular", "a_zero")


def gram(rng, n: int, rank: int, real: bool) -> np.ndarray:
    """A PSD Gram ``g g*`` of a standard normal ``(n, rank)`` factor."""
    g = rng.standard_normal((n, rank))
    if not real:
        g = (g + 1j * rng.standard_normal((n, rank))) / np.sqrt(2.0)
    m = g @ g.conj().T
    return 0.5 * (m + m.conj().T)


def haar(rng, n: int, real: bool) -> np.ndarray:
    """A Haar orthogonal or unitary matrix."""
    g = rng.standard_normal((n, n))
    if not real:
        g = (g + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def spectral(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The Hermitian part of ``U diag(d) U*``."""
    m = (u * d) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def state(rng, n: int, real: bool) -> np.ndarray:
    """A state ``U diag(d) U*`` of unit trace, ``d`` in [0.2, 1]."""
    u = haar(rng, n, real)
    d = rng.uniform(0.2, 1.0, size=n)
    return spectral(u, d) / d.sum()


def clustered(rng, n: int, real: bool, low: float, high: float) -> np.ndarray:
    """``U diag(d) U*`` with ``d`` exactly ``low`` on half the indices and
    ``high`` on the rest."""
    d = np.where(np.arange(n) < n // 2, low, high)
    return spectral(haar(rng, n, real), d)


def psd_on(rng, cols: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``cols diag(d) cols*``, Hermitian, with ``d`` in [0.2, 1] times
    ``scale``: a clean gap above the kernel."""
    return spectral(cols, rng.uniform(0.2, 1.0, size=cols.shape[1]) * scale)


def pair(rng, kind: str, n: int, real: bool, scale: float = 1.0):
    """A PSD pair of ``kind``, as the benchmark draws it, with ``r =
    max(1, n // 2)``: ``full`` has both members definite, ``a_def`` ``a``
    of rank ``r`` and ``b`` definite, ``b_def`` the reverse, ``a_zero``
    and ``b_zero`` a zero member and the other definite, ``singular``
    ranges of rank ``r`` and ``n - r`` that meet only in 0 (the range of
    ``b`` is the complement of that of ``a``, tilted toward it, so ``a +
    b`` stays well conditioned), and ``ac`` a ``b`` inside the range of a
    rank-``r`` ``a``."""
    ua, ub = haar(rng, n, real), haar(rng, n, real)
    r = max(1, n // 2)
    zero = np.zeros((n, n), dtype=ua.dtype)
    if kind == "full":
        return psd_on(rng, ua, scale), psd_on(rng, ub, scale)
    if kind == "a_def":
        return psd_on(rng, ua[:, :r], scale), psd_on(rng, ub, scale)
    if kind == "b_def":
        return psd_on(rng, ua, scale), psd_on(rng, ub[:, :r], scale)
    if kind == "a_zero":
        return zero, psd_on(rng, ub, scale)
    if kind == "b_zero":
        return psd_on(rng, ua, scale), zero
    if kind == "singular":
        tilt = ua[:, :r] @ haar(rng, max(r, n - r), real)[:r, :n - r]
        ran_b, _ = np.linalg.qr(ua[:, r:] + 0.5 * tilt)
        return psd_on(rng, ua[:, :r], scale), psd_on(rng, ran_b, scale)
    if kind == "ac":
        inside = ua[:, :r] @ haar(rng, r, real)
        return psd_on(rng, ua[:, :r], scale), psd_on(rng, inside, scale)
    raise ValueError(f"unknown pair kind {kind!r}")


def dominated(rng, total: np.ndarray, real: bool) -> np.ndarray:
    """``c = total^(1/2) k total^(1/2)`` with ``k = U diag(d) U*``, ``d`` in
    [0.2, 1]: a matrix that ``to_support`` accepts, drawn as the benchmark
    draws its pool."""
    w, v = np.linalg.eigh(total)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    m = root @ psd_on(rng, haar(rng, total.shape[0], real)) @ root
    return 0.5 * (m + m.conj().T)


def second_call(a: np.ndarray, b: np.ndarray):
    """The record of ``build_rep(a, b)``'s second kernel call, one
    ``linalg._Solve`` per member, or None when it makes one call only."""
    with linalg._kernel_record() as calls:
        calculus.build_rep(a, b)
    return calls[1] if len(calls) > 1 else None


def rounds(m: np.ndarray, certify=()) -> int:
    """The rounds that ``_jacobi_eig(m, certify=certify)`` runs."""
    with linalg._kernel_record() as calls:
        linalg._jacobi_eig(m, certify=certify)
    return calls[0][0].rounds


def state_rounds(real: bool, solves: int) -> list[list[int]]:
    """The rounds to the certificate and to convergence of ``solves``
    seeded n=24 states."""
    rng = np.random.default_rng([SEED, STATE_N, real])
    states = [state(rng, STATE_N, real) for _ in range(solves)]
    return [[rounds(m, certify) for m in states] for certify in ((0,), ())]


def dominated_rounds(kind: str, real: bool, solves: int) -> list[list[int]]:
    """The rounds to the certificate and to convergence of ``solves``
    seeded n=24 dominated matrices, one per ``kind`` pair."""
    rng = np.random.default_rng([SEED, STATE_N, real, 10 + REP_KINDS.index(kind)])
    mats = []
    for _ in range(solves):
        a, b = pair(rng, kind, STATE_N, real)
        mats.append(dominated(rng, a + b, real))
    return [[rounds(m, certify) for m in mats] for certify in ((0,), ())]


def stats(counts, unit: int = 1) -> str:
    """``mean / min / max`` of ``counts`` in multiples of ``unit``."""
    mean = sum(counts) / len(counts) / unit
    return f"{mean:.1f} / {min(counts) // unit} / {max(counts) // unit}"


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
                total = sum(rounds(m) for m in mats) / solves
                tiny = sum(rounds(TINY * m) for m in mats) / solves
                print(f"{n:>3} {'real' if real else 'complex':<8} {kind:<8} "
                      f"{per_sweep:>12} {total / per_sweep:>12.2f} "
                      f"{total:>12.1f} {tiny / per_sweep:>10.2f}")
    print()
    print("rounds to the certificate and to convergence, mean / min / max")
    print(f"{'n':>3} {'matrix':<20} {'input':<8} {'certificate':>18} {'convergence':>18}")
    rows = [("state", lambda real: state_rounds(real, solves))]
    rows += [(f"to_support {kind}", lambda real, kind=kind: dominated_rounds(kind, real, solves))
             for kind in REP_KINDS]
    for name, counts in rows:
        for real in (True, False):
            cols = [stats(c) for c in counts(real)]
            print(f"{STATE_N:>3} {name:<20} {'real' if real else 'complex':<8} "
                  f"{cols[0]:>18} {cols[1]:>18}")
    print()
    print("sweeps to convergence on two-cluster spectra, mean / min / max")
    print(f"{'n':>3} {'input':<8} {'0.3 and 0.7':>18} {'projection':>18}")
    for n in CLUSTER_SIZES:
        per_sweep = len(linalg._round_plan(n, 1))
        for real in (True, False):
            cols = []
            for low, high in ((0.3, 0.7), (0.0, 1.0)):
                rng = np.random.default_rng([SEED, n, real, int(10 * low)])
                mats = [clustered(rng, n, real, low, high) for _ in range(solves)]
                cols.append(stats([rounds(m) for m in mats], per_sweep))
            print(f"{n:>3} {'real' if real else 'complex':<8} "
                  f"{cols[0]:>18} {cols[1]:>18}")
    print()
    print("build_rep's second kernel call: member sizes, rounds mean / min / max")
    print(f"{'n':>3} {'pair':<8} {'input':<8} {'sizes':>8} {'rounds':>18}")
    for kind in PAIR_KINDS:
        for real in (True, False):
            rng = np.random.default_rng([SEED, PAIR_N, real, PAIR_KINDS.index(kind)])
            calls = [second_call(*pair(rng, kind, PAIR_N, real)) for _ in range(solves)]
            solved = [call for call in calls if call is not None]
            sizes = sorted({member.n for call in solved for member in call})
            cols = (",".join(map(str, sizes)) or "no call",
                    stats([call[0].rounds for call in solved]) if solved else "-")
            print(f"{PAIR_N:>3} {kind:<8} {'real' if real else 'complex':<8} "
                  f"{cols[0]:>8} {cols[1]:>18}")
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull, so that the
        # interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
