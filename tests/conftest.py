"""Shared generators, independent numpy-based oracles and the CLI runner.

The library deliberately runs on its own Jacobi kernel; every oracle in
here goes through ``numpy.linalg`` instead so the two routes stay
independent. All randomness is drawn from seeded generators, so the
whole suite is reproducible.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SEED = 20240811
FIXTURES = Path(__file__).parent / "fixtures"

# CLI argv of each golden report, run in FIXTURES; the report of NAME is
# golden/NAME.json
GOLDEN_CASES = {
    "rep": ["rep", "--a", "a3.json", "--b", "b3.json"],
    "eval_parallel": ["eval", "--phi", "parallel", "--a", "a3.json", "--b", "b3.json"],
    "lebesgue": ["lebesgue", "--a", "a3.json", "--b", "b3.json"],
    "psum": ["psum", "--a", "a3.json", "--b", "b3.json"],
    "psum_limit": ["psum-limit", "--a", "a3.json", "--b", "b3.json"],
    "singular": ["singular", "--a", "sing_a2.json", "--b", "sing_b2.json"],
    "abscont": ["abscont", "--a", "a3.json", "--b", "b3.json"],
    "rn": ["rn", "--a", "a2pd.json", "--b", "b2sing.json"],
    "kubo_parallel": ["kubo", "--phi", "parallel", "--a", "a2pd.json",
                      "--b", "b2sing.json"],
    "pair_parallel": ["pair", "--phi", "parallel", "--a", "a3.json",
                      "--b", "b3.json", "--rho", "rho3.json"],
    "pair_entropy_inf": ["pair", "--phi", "entropy", "--a", "a1.json",
                         "--b", "b1.json", "--rho", "rho1.json"],
    "trace_arith": ["trace", "--phi", "arith", "--a", "a3.json", "--b", "b3.json"],
    "tensor_check_power": ["tensor-check", "--phi", "power:2", "--a", "a1.json",
                           "--b", "b1.json", "--rho", "rho1.json",
                           "--a2", "t2a.json", "--b2", "t2b.json",
                           "--rho2", "t2rho.json"],
    "form_p": ["form-p", "--a", "a2pd.json", "--b", "b2sing.json",
               "--xi", "xi2.json"],
    "eval_entropy_extended": ["eval", "--phi", "entropy", "--a", "a1.json",
                              "--b", "b1.json"],
}


def run_cli(argv, cwd=FIXTURES, env_extra=None, stdin=None):
    """Run ``python -m pwcalc`` on the package under test, with
    ``PWCALC_TOL_ZERO`` scrubbed from the environment and the bytes
    ``stdin``, if given, on a pipe as standard input."""
    env = {k: v for k, v in os.environ.items() if k != "PWCALC_TOL_ZERO"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "pwcalc", *argv],
                          input=stdin, capture_output=True, cwd=cwd,
                          env=with_package_path(env))


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def with_package_path(env):
    """Copy of ``env`` with the directory that holds the imported ``pwcalc``
    first on PYTHONPATH and the other entries after it, so a
    ``python -m pwcalc`` child runs the package under test from any working
    directory, also when the parent's path is relative."""
    import pwcalc

    root = str(Path(pwcalc.__file__).resolve().parents[1])
    rest = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**env, "PYTHONPATH": os.pathsep.join([root, *rest])}


def rand_complex(rng, n, m):
    return (rng.standard_normal((n, m))
            + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def rand_hermitian(rng, n, real=False):
    if real:
        g = rng.standard_normal((n, n))
    else:
        g = rand_complex(rng, n, n)
    return 0.5 * (g + g.conj().T)


def rand_psd(rng, n, rank=None, scale=1.0):
    """Random PSD matrix as a Gram of a random factor."""
    r = n if rank is None else rank
    g = rand_complex(rng, n, max(r, 1)) if r else np.zeros((n, 1), complex)
    m = g @ g.conj().T
    if r == 0:
        return np.zeros((n, n), dtype=np.complex128)
    return scale * m / max(np.linalg.norm(m, 2), 1e-300)


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def rand_pair(rng, n, rank_a=None, rank_b=None, scale=1.0):
    return (rand_psd(rng, n, rank_a, scale), rand_psd(rng, n, rank_b, scale))


def structured_pair(rng, n, rank_a):
    """Pair with exact-rank first member and definite second, norms <= 1/2."""
    w = rand_unitary(rng, n)
    diag = np.zeros(n)
    diag[:rank_a] = rng.uniform(0.2, 1.0, size=rank_a)
    a = w @ np.diag(diag) @ w.conj().T
    b = rand_psd(rng, n) + 0.1 * np.eye(n)
    a = 0.5 * a / np.linalg.norm(a, 2)
    b = 0.5 * b / np.linalg.norm(b, 2)
    return a, b


def rand_state(rng, n):
    return rand_psd(rng, n)


# oracles, all through numpy.linalg


def np_sqrtm(m):
    """Spectral square root; eigenvalue noise below n*eps*max is zeroed so
    the root of a rank-deficient matrix does not leak outside the support."""
    w, v = np.linalg.eigh(m)
    if w.size:
        w = np.where(w > w.size * np.finfo(float).eps * max(w.max(), 0.0),
                     w, 0.0)
    return v @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


def np_power(m, p):
    w, v = np.linalg.eigh(m)
    return v @ np.diag(np.maximum(w, 0.0) ** p) @ v.conj().T


def anderson_duffin(a, b):
    """Independent closed form of the parallel sum, a (a+b)^+ b."""
    return np.asarray(a) @ np.linalg.pinv(np.asarray(a) + np.asarray(b),
                                          hermitian=True) @ np.asarray(b)


def geometric_mean_oracle(a, b, alpha):
    """Congruence closed form for positive definite a."""
    ah = np_sqrtm(a)
    ahi = np.linalg.inv(ah)
    return ah @ np_power(ahi @ b @ ahi, 1.0 - alpha) @ ah


def eigmin(m):
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(m).min())


def spec_norm(m):
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def dominated_matrix(rng, total, norm_cap=1.0):
    """Random 0 <= c <= norm_cap * total, built with numpy only."""
    n = total.shape[0]
    k = rand_psd(rng, n)
    k = norm_cap * k / max(np.linalg.norm(k, 2), 1e-300)
    th = np_sqrtm(total)
    return th @ k @ th
