"""The evaluation contract of a representative: every query reads the
profile at points fixed when the rep is built, with the bits of the
per-point loop that classified the spectrum on every call."""

import math
import pickle
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pwcalc import (ExtendedValueError, InputError, NumericError, PwCalcError, PwFunction,
                    ToleranceConfig, abs_part, arithmetic, build_rep, entropy, geometric,
                    left, parallel, parallel_sum_limit, power, right, rn_cutoff,
                    scaled_parallel)
from pwcalc import calculus, linalg

from kernel_rounds import REP_KINDS, SEED, dominated, pair, state

PROFILES = [abs_part(), parallel(), arithmetic(), left(), right(), geometric(0.3),
            power(2.0), entropy(), scaled_parallel(2.0), rn_cutoff(4.0),
            # a numpy scalar, and Python ints and Fractions that float() reads
            PwFunction("np-cube", lambda x: np.float64(x) ** 3 - x / 3.0, 0.0, 2.0, False),
            PwFunction("stairs", lambda x: Fraction(int(10 * x), 7), math.inf, -3, False)]
TOLS = [ToleranceConfig(), ToleranceConfig(zero_tol=0.05, one_tol=0.1)]


def reference_values(fn, x, zero_mask, one_mask):
    """The per-point loop that evaluated every profile before the points
    were fixed at build: a mask branch, the clamp, the call and the checks
    for each eigenvalue in index order."""
    out = np.empty(len(x), dtype=np.float64)
    for i, (xi, at_zero, at_one) in enumerate(
            zip(x.tolist(), zero_mask.tolist(), one_mask.tolist())):
        if at_zero:
            val = fn.at_zero
        elif at_one:
            val = fn.at_one
        else:
            try:
                val = float(fn.profile(min(max(xi, 0.0), 1.0)))
            except (OverflowError, ZeroDivisionError) as exc:
                raise NumericError(
                    f"profile {fn.name!r} leaves the float64 range "
                    f"at x = {xi!r}") from exc
            except (TypeError, ValueError) as exc:
                raise InputError(
                    f"profile {fn.name!r} gives no real number at "
                    f"x = {xi!r}: {exc}") from exc
        if math.isnan(val):
            raise NumericError(f"profile {fn.name!r} returned NaN at x = {xi!r}")
        if val == -math.inf:
            raise InputError(
                f"profile {fn.name!r} returned -inf at x = {xi!r}; "
                f"profiles must be bounded from below")
        out[i] = val
    return out


def reference_route(mp):
    """Send every rep query through :func:`reference_values` and the product
    ``E* (v E)`` with ``E*`` formed on each call."""
    def values(rep, fn):
        split = rep.split
        return reference_values(fn, rep.gram_a_spec.eigenvalues, split.zero, split.one)

    def push(rep, vals):
        e = rep.eig_map
        return linalg.hermitize(e.conj().T @ (vals[:, None] * e))

    mp.setattr(calculus.PwRep, "values", values)
    mp.setattr(calculus.PwRep, "_push", push)


def floats(*xs) -> bytes:
    return struct.pack(f"{len(xs)}d", *xs)


def outcome(query):
    """The bytes of a query's result, or its error's type and message."""
    try:
        r = query()
    except PwCalcError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(r, np.ndarray):
        return r.tobytes()
    if isinstance(r, calculus.PairingResult):
        return floats(r.value, r.finite_part, r.infinite_weight)
    if isinstance(r, calculus.SequenceResult):
        return floats(*r.values, *r.gaps), r.converged
    return (b"".join(m.tobytes() for m in r.iterates), floats(*r.gaps),
            r.converged, r.doublings, r.value.tobytes())


def sweep(rep, rho, a, b, tol):
    out = []
    for fn in PROFILES:
        out += [outcome(lambda: rep.values(fn)), outcome(lambda: rep.eval(fn)),
                outcome(lambda: rep.pairing(fn, rho))]
    out.append(outcome(lambda: rep.eval_sequence(PROFILES, rho)))
    out.append(outcome(lambda: parallel_sum_limit(a, b, tol)))
    return out


@pytest.mark.parametrize("tol", TOLS, ids=["default", "wide"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("kind", REP_KINDS)
def test_every_query_keeps_the_per_point_bits(kind, real, tol):
    for n in (4, 11, 24):
        rng = np.random.default_rng([SEED, n, real, REP_KINDS.index(kind)])
        a, b = pair(rng, kind, n, real)
        rho = state(rng, n, real)
        rep = build_rep(a, b, tol)
        got = sweep(rep, rho, a, b, tol)
        with pytest.MonkeyPatch.context() as mp:
            reference_route(mp)
            want = sweep(rep, rho, a, b, tol)
        assert got == want, (kind, n)


def test_the_public_values_keep_the_per_point_bits():
    # any masks, overlapping ones and points outside [0, 1] included
    rng = np.random.default_rng(SEED)
    for fn in PROFILES:
        for size in (0, 1, 7, 30):
            x = rng.uniform(-0.1, 1.1, size)
            zero, one = rng.random(size) < 0.3, rng.random(size) < 0.3
            assert (outcome(lambda: fn.values(x, zero, one))
                    == outcome(lambda: reference_values(fn, x, zero, one)))


def test_the_profile_is_called_once_per_retained_eigenvalue_in_order():
    # x = 0, 0, 1/4, 2/3, 3/4 and 1 in a rotated basis
    u = np.linalg.qr(np.random.default_rng([SEED, 6]).standard_normal((6, 6)))[0]
    rep = build_rep(u @ np.diag([0.0, 0.0, 1.0, 2.0, 3.0, 1.0]) @ u.T,
                    u @ np.diag([1.0, 2.0, 3.0, 1.0, 1.0, 0.0]) @ u.T)
    x, split = rep.gram_a_spec.eigenvalues, rep.split
    assert split.zero.any() and split.one.any() and split.retained.any()
    seen = []
    fn = PwFunction("spy", lambda t: seen.append(t) or t, 0.0, 1.0, True)
    for query in (lambda: rep.values(fn), lambda: rep.eval(fn),
                  lambda: rep.pairing(fn, np.eye(6))):
        seen.clear()
        query()
        # never on a classified endpoint
        assert seen == x[split.retained].tolist() == sorted(seen)
        assert all(type(t) is float for t in seen)


@pytest.mark.parametrize("first,fn,error,message", [
    ("nan", lambda t: math.nan if t < 0.5 else math.log(-1.0), NumericError,
     "returned NaN"),
    ("raise", lambda t: math.log(-1.0) if t < 0.5 else math.nan, InputError,
     "gives no real number"),
    ("-inf", lambda t: -math.inf if t < 0.5 else 1.0 / 0.0, InputError,
     "returned -inf"),
], ids=["nan", "raise", "-inf"])
def test_the_first_failing_point_is_reported(first, fn, error, message):
    # 1/4 and 3/4 on this pair: the earlier point's failure wins
    rep = build_rep(np.diag([1.0, 3.0]), np.diag([3.0, 1.0]))
    with pytest.raises(error, match=f"^profile 'f' {message} at x = 0\\.25") as info:
        rep.eval(PwFunction("f", fn, 0.0, 0.0, True))
    if first == "raise":
        assert isinstance(info.value.__cause__, ValueError)


def test_a_used_rep_pickles_as_the_fresh_rep():
    for kind in REP_KINDS:
        rng = np.random.default_rng([SEED, 12, REP_KINDS.index(kind)])
        a, b = pair(rng, kind, 12, False)
        rho, c = state(rng, 12, False), dominated(rng, a + b, False)
        rep = build_rep(a, b)
        fresh = pickle.dumps(rep)
        for fn in PROFILES:
            try:
                rep.eval(fn)
            except ExtendedValueError:
                pass  # unbounded on this pair
            rep.pairing(fn, rho)
        rep.eval_sequence(PROFILES, rho)
        rep.to_support(c)
        assert pickle.dumps(rep) == fresh, kind


def test_query_cost_probe_runs_one_round():
    proc = subprocess.run([sys.executable, str(Path(__file__).parent / "query_cost.py"),
                           "--rounds", "1"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()[1:]
    assert header.split() == ["query", *REP_KINDS]
    assert [row[:18].rstrip() for row in rows] == [
        "eval geom:0.3", "eval parallel*2", "eval parallel", "eval abs", "eval arith",
        "eval left", "eval right", "eval rncut:4", "pairing parallel", "eval_sequence",
        "to_support"]
    for row in rows:
        cells = row[18:].split()
        assert len(cells) == len(REP_KINDS) and all(float(c) > 0.0 for c in cells), row
