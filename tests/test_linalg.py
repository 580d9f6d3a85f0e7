"""Tests for the Hermitian linear-algebra kernel."""

import math
import warnings

import numpy as np
import pytest

from pwcalc import (DominationError, InputError, NotPsdError, NumericError,
                    ToleranceConfig, build_rep, eig_hermitian, entropy,
                    entropy_pairing, hermitian_norm, hermitian_part, hermitize,
                    kron, kubo_ando_form, lebesgue_decompose, parallel,
                    parallel_sum, parallel_sum_limit, polar_isometry, psd_sqrt,
                    pw_pairing, rn_factor, rn_quadratic_form, support_projection,
                    validate_psd)
from pwcalc import linalg
from pwcalc.linalg import (_jacobi_eig, _validated, _validated_pair, frobenius,
                           safe_frobenius)

from conftest import rand_complex, rand_hermitian, rand_psd
from kernel_rounds import rounds, state_rounds


class TestEig:
    def test_diagonal(self):
        dec = eig_hermitian(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0])

    def test_identity(self):
        dec = eig_hermitian(np.eye(2))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(dec.basis.conj().T @ dec.basis, np.eye(2),
                                   atol=1e-12)

    def test_reconstruction_200_random(self, rng):
        for trial in range(200):
            n = int(rng.integers(1, 11))
            m = rand_hermitian(rng, n, real=bool(trial % 3 == 0))
            dec = eig_hermitian(m)
            scale = max(np.abs(dec.eigenvalues).max(), 1e-300)
            assert np.abs(dec.reconstruct() - m).max() <= 1e-9 * scale
            assert np.abs(dec.basis.conj().T @ dec.basis - np.eye(n)).max() < 1e-10
            assert (np.diff(dec.eigenvalues) >= 0).all()

    def test_deterministic(self, rng):
        m = rand_hermitian(rng, 7)
        d1 = eig_hermitian(m)
        d2 = eig_hermitian(m.copy())
        assert (d1.eigenvalues == d2.eigenvalues).all()
        assert (d1.basis == d2.basis).all()

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_zero_and_empty(self):
        assert eig_hermitian(np.zeros((3, 3))).eigenvalues.tolist() == [0, 0, 0]
        assert eig_hermitian(np.zeros((0, 0))).eigenvalues.size == 0


class TestValidation:
    def test_hermitian_part_symmetrizes(self):
        m = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])

        out = hermitian_part(m)
        assert np.abs(out - out.conj().T).max() == 0.0

    def test_hermitian_bound_is_scale_invariant(self):
        # asymmetry of half the scale is rejected at every scale
        small = np.array([[1e-10, 5e-11], [0.0, 1e-10]])
        for m in (small, 1e10 * small):
            with pytest.raises(InputError):
                hermitian_part(m)
        assert np.abs(hermitian_part(np.zeros((3, 3)))).max() == 0.0
        tiny = 1e-12 * np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
        np.testing.assert_array_equal(hermitian_part(tiny), tiny)

    def test_asymmetry_near_the_float_limit(self):
        # m - m* overflows here; the halves do not
        with pytest.raises(InputError, match="overflows float64") as err:
            hermitian_part([[0.0, 1e308], [-1e308, 0.0]])
        assert "inf" not in str(err.value)

    def test_halved_scan_keeps_the_verdict_and_message(self, rng):
        # the full-width scan m - m*, on asymmetries around herm_tol*scale
        tol = ToleranceConfig()
        rejected = 0
        for trial in range(300):
            n = int(rng.integers(1, 7))
            scale = 10.0 ** rng.uniform(-150.0, 150.0)
            m = scale * (rand_hermitian(rng, n, real=trial % 2 == 0)
                         + tol.herm_tol * rng.uniform(0.0, 2.0)
                         * rand_complex(rng, n, n))
            dev = float(np.abs(m - m.conj().T).max())
            bound = tol.herm_tol * float(np.abs(m).max())
            if dev > bound:
                rejected += 1
                with pytest.raises(InputError) as err:
                    hermitian_part(m, tol)
                assert str(err.value) == (
                    f"matrix is not Hermitian: asymmetry {dev:.3e} exceeds "
                    f"herm_tol*scale = {bound:.3e}")
            else:
                assert hermitian_part(m, tol).tobytes() == hermitize(m).tobytes()
        assert 0 < rejected < 300

    @pytest.mark.parametrize("m,message", [
        ([[1.0, 0.0, 0.0]], "square matrix"),
        ([1.0, 2.0], "square matrix"),
        ([[1.0, 0.0], [0.0, np.nan]], "non-finite"),
        ([[np.inf, 0.0], [0.0, 1.0]], "non-finite"),
    ], ids=["1x3", "vector", "nan", "inf"])
    def test_rejects_malformed_matrices(self, m, message):
        with pytest.raises(InputError, match=message):
            validate_psd(m)

    def test_clamps_rounding_noise(self):
        m = np.diag([1.0, -1e-12])
        out, min_eig = validate_psd(m)
        assert min_eig == -1e-12
        assert np.linalg.eigvalsh(out).min() >= 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            validate_psd(np.diag([1.0, -1.0]))

    def test_overflowing_norm(self):
        # eigenvalues -1e200 and 3e200 although the Frobenius norm overflows
        with pytest.raises(NotPsdError):
            validate_psd([[1e200, 2e200], [2e200, 1e200]])
        _, min_eig = validate_psd([[1e200] * 2] * 2)
        assert min_eig == 0.0

    def test_entries_near_the_float_limit(self):
        # m + m* overflows here; each half does not
        _, min_eig = validate_psd(np.diag([1e308, 1e308]))
        assert min_eig == 1e308
        h = hermitize(np.array([[1e308, 1.5e308], [1.7e308, 1e308]]))
        assert h[0, 1] == h[1, 0] == 1.6e308

    def test_spectrum_beyond_the_float_limit(self):
        # eigenvalues +-1.97e308: finite entries, spectrum out of range
        m = np.array([[1e308, 1.7e308], [1.7e308, -1e308]])
        with pytest.raises(NumericError, match="float64 range"):
            eig_hermitian(m)
        with pytest.raises(NumericError):
            _jacobi_eig(m.astype(np.complex128))
        with pytest.raises(NumericError, match="float64 range"):
            _jacobi_eig(np.eye(2), m)


_NONPSD = np.diag([1.0, -1.0])
_NONHERM = np.array([[0.0, 1.0], [0.0, 0.0]])
_PSD = np.diag([2.0, 1.0])
_OUT_OF_RANGE = np.array([[1e308, 1.7e308], [1.7e308, -1e308]])


class TestPairValidation:
    """``a`` and ``b`` are solved side by side, but a bad pair raises what
    validating ``a`` and then ``b`` would."""

    @pytest.mark.parametrize("a,b,error,match", [
        (_NONPSD, _NONHERM, NotPsdError, "eigenvalue -1.000000e"),
        (_NONPSD, np.eye(3), NotPsdError, "eigenvalue -1.000000e"),
        (_NONPSD, _OUT_OF_RANGE, NotPsdError, "eigenvalue -1.000000e"),
        (_NONPSD, 2.0 * _NONPSD, NotPsdError, "eigenvalue -1.000000e"),
        (_NONHERM, _NONPSD, InputError, "not Hermitian"),
        (_PSD, _NONHERM, InputError, "not Hermitian"),
        (_PSD, np.eye(3), InputError, "differ in size"),
        (_PSD, _OUT_OF_RANGE, NumericError, "float64 range"),
        (_PSD, _NONPSD, NotPsdError, "eigenvalue -1.000000e"),
    ], ids=["nonpsd-nonherm", "nonpsd-size", "nonpsd-range", "nonpsd-nonpsd",
            "nonherm-nonpsd", "psd-nonherm", "psd-size", "psd-range", "psd-nonpsd"])
    def test_a_is_reported_first(self, a, b, error, match):
        with pytest.raises(error, match=match):
            _validated_pair(a, b, ToleranceConfig())
        with pytest.raises(error, match=match):
            build_rep(a, b)
        # the sum and a state share the validating call, so a call that
        # fails carries them; the fallback validates a and then b alone
        state = np.eye(a.shape[0]) / a.shape[0]
        with pytest.raises(error, match=match), linalg._kernel_record() as calls:
            _validated_pair(a, b, ToleranceConfig(), sum_too=True, also=state)
        if b is _OUT_OF_RANGE:
            assert [len(call) for call in calls[:2]] == [4, 1]
        with pytest.raises(error, match=match):
            pw_pairing(a, b, entropy(), state)

    def test_same_bits_as_validating_in_turn(self, rng):
        tol = ToleranceConfig()
        clamped = 0
        for trial in range(40):
            n = int(rng.integers(2, 9))
            a = rand_psd(rng, n, int(rng.integers(0, n + 1)))
            a = a.real if trial % 2 else a
            # a rank-deficient b shifted by rounding-level negatives, which
            # validation clamps
            b = rand_psd(rng, n, n // 2) - 1e-17 * np.eye(n)
            got = _validated_pair(a, b, tol)
            want = (*_validated(a, tol), *_validated(b, tol))
            for x, y in zip(got[::2], want[::2]):
                assert x.tobytes() == y.tobytes()
            for x, y in zip(got[1::2], want[1::2]):
                assert x.eigenvalues.tobytes() == y.eigenvalues.tobytes()
                assert x.basis.tobytes() == y.basis.tobytes()
            clamped += got[3].eigenvalues[0] < 0.0
        assert clamped > 10

    def test_extra_members_have_the_bits_of_their_own_solves(self, rng):
        tol = ToleranceConfig()

        def deep(dec):
            # a clamp below minus the support threshold
            w = dec.eigenvalues
            return w.size and w[0] < -tol.support_threshold(w.size, w[-1])

        used = missed = rounding_clamps = certified = 0
        for trial in range(40):
            n = int(rng.integers(1, 9))
            a = rand_psd(rng, n, int(rng.integers(0, n + 1)))
            b = rand_psd(rng, n, int(rng.integers(0, n + 1)))
            rho = hermitian_part(rand_psd(rng, n, int(rng.integers(1, n + 1))))
            if trial % 3 == 2 and n > 1:
                # a rank-deficient b shifted down by 1e-12 of its norm:
                # within psd_tol, but below minus the support threshold
                b = rand_psd(rng, n, int(rng.integers(1, n))) - 1e-12 * np.eye(n)
            if trial % 2:
                a, b = a.real, b.real
            with linalg._kernel_record() as record:
                av, a_dec, bv, b_dec, sum_dec, rho_solved = _validated_pair(
                    a, b, tol, sum_too=True, also=rho)
            calls = [len(call) for call in record]
            # the state may leave certified positive, alone as in the call
            alone = _jacobi_eig(rho, certify=(0,))
            if alone is linalg.CERTIFIED:
                assert rho_solved is alone
                certified += 1
            else:
                assert rho_solved[0].tobytes() == alone[0].tobytes()
                assert rho_solved[1].tobytes() == alone[1].tobytes()
            if calls == [4]:
                # no clamp, or only rounding-level ones: the speculative sum
                # of the Hermitian parts serves
                assert not (deep(a_dec) or deep(b_dec))
                want = eig_hermitian(hermitize(hermitian_part(a) + hermitian_part(b)), tol)
                rounding_clamps += min(a_dec.eigenvalues[0], b_dec.eigenvalues[0]) < 0.0
                used += 1
            else:
                # only a deep clamp makes the speculative sum a miss, and
                # the sum of the clamped pair is then solved in a call of
                # its own
                assert calls == [4, 1]
                assert deep(a_dec) or deep(b_dec)
                want = eig_hermitian(hermitize(av + bv), tol)
                missed += 1
            assert sum_dec.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert sum_dec.basis.tobytes() == want.basis.tobytes()
        assert used > 5 and missed > 5 and rounding_clamps > 5
        assert 5 < certified < 35

    def test_extra_members_only_where_they_apply(self):
        tol = ToleranceConfig()
        got = _validated_pair(_PSD, _PSD, tol, also=np.eye(4))
        assert got[4] is None and got[5] is None
        # a sum beyond float64 is solved only on request, and then
        # reported after the pair's verdict
        assert _validated_pair([[1e308]], [[1e308]], tol)[4] is None
        with pytest.raises(NumericError, match=r"a \+ b overflows"):
            _validated_pair([[1e308]], [[1e308]], tol, sum_too=True)
        with pytest.raises(NotPsdError):
            _validated_pair(np.diag([1e308, -1e308]), np.diag([1e308, 0.0]), tol,
                            sum_too=True)


_CERTIFICATE_KINDS = ("full", "pure", "near_singular", "rounding_negative", "tiny",
                      "overflow", "indefinite", "tiny_rank_deficient",
                      "tiny_near_singular", "tiny_rounding_negative")
_RANK_ONE_KINDS = ("rank_one", "rank_one_inside", "rank_one_outside", "rank_one_below")


def _certificate_states():
    """``(kind, m)``: seeded Hermitian states ``U diag(d) U*``, n 1-32, real
    and complex, of each kind: full rank (``d`` in [0.2, 1]), pure, near
    singular (one ``d`` at 1e-14..1e-6), rounding-negative (one ``d`` at
    -1e-18), full rank at 1e-150, scaled by a power of two so the largest
    entry lies in ``[2**1022, 2**1023)`` (the norm overflows; a pure one's
    trace does too), indefinite (one ``d`` at -0.5), and at 1e-150 rank
    ``n - 1``, near singular and rounding-negative: there the squares of
    the smallest entries underflow unless the solve is scaled."""
    rng = np.random.default_rng(2026)
    for k in range(12 * len(_CERTIFICATE_KINDS)):
        kind = _CERTIFICATE_KINDS[k % len(_CERTIFICATE_KINDS)]
        n = int(rng.integers(1, 33))
        real = bool(k // len(_CERTIFICATE_KINDS) % 2)
        g = rng.standard_normal((n, n)) if real else rand_complex(rng, n, n)
        u, _ = np.linalg.qr(g)
        d = rng.uniform(0.2, 1.0, size=n)
        if kind == "pure" or (kind == "overflow" and k % 3 == 0):
            d[1:] = 0.0
        elif kind.endswith("near_singular"):
            d[0] = 10.0 ** rng.uniform(-14.0, -6.0)
        elif kind.endswith("rounding_negative"):
            d[0] = -1e-18
        elif kind == "tiny_rank_deficient":
            d[0] = 0.0
        elif kind == "indefinite":
            d[0] = -0.5
        m = hermitize((u * d) @ u.conj().T)
        if kind.startswith("tiny"):
            m = 1e-150 * m
        elif kind == "overflow":
            m = m * 2.0 ** -int(np.frexp(np.abs(m).max())[1]) * 2.0 ** 1023
        yield kind, m
    yield from _rank_one_states()


def _margin(h):
    """:func:`linalg._certified`'s margin for ``h`` at unit scale."""
    n = h.shape[0]
    target = n * float(np.finfo(np.float64).eps) * frobenius(h)
    return linalg._ROUND_ROUNDING * linalg.MAX_JACOBI_SWEEPS * n * target


def _rank_one_states():
    """``(kind, m)``: seeded ``m = c I - t v v*``, n 3-32, real and complex,
    with ``t = 0.96`` and ``|v_i| = n**-1/2``, so ``m`` is at unit scale.

    Its off-diagonal part ``e = -t (v v* - I/n)`` is that of a rank-one
    matrix: ``||e||_2 = t (1 - 1/n)``, its Schatten-4 norm lies above that
    by about ``t / (4 n**3)`` and ``||e||_F`` by about ``t / (2 n)``, and
    Weyl's bound ``min_i m_ii - ||e||_2 = c - t`` is the smallest eigenvalue
    exactly. ``c - t`` is, by kind, ``t / 4`` (``rank_one``, certified
    before any rotation by either bound), the margin plus twice the
    Schatten-4 excess (``rank_one_inside``: the unrotated ``m`` clears the
    margin by the Schatten-4 bound but not by ``||e||_F``), the margin plus
    half of it (``rank_one_outside``: it clears by neither), and half the
    margin (``rank_one_below``: no bound on ``||e||_2`` can certify it)."""
    rng = np.random.default_rng(2027)
    t = 0.96
    for k in range(6 * len(_RANK_ONE_KINDS)):
        kind = _RANK_ONE_KINDS[k % len(_RANK_ONE_KINDS)]
        n = int(rng.integers(3, 33))
        real = bool(k // len(_RANK_ONE_KINDS) % 2)
        phase = (rng.choice([-1.0, 1.0], size=n) if real
                 else np.exp(2j * np.pi * rng.uniform(size=n)))
        v = phase / np.sqrt(n)
        rank_one = -t * np.outer(v, v.conj())
        sigma = t * (1 - 1 / n)
        excess = t * ((1 - 1 / n) ** 4 + (n - 1) / n ** 4) ** 0.25 - sigma
        margin = _margin(hermitize(t * np.eye(n) + rank_one))
        gap = {"rank_one": t / 4, "rank_one_inside": margin + 2 * excess,
               "rank_one_outside": margin + excess / 2,
               "rank_one_below": margin / 2}[kind]
        yield kind, hermitize((t + gap) * np.eye(n) + rank_one)


def _frobenius_certified(h, off, e, target, k):
    """:func:`linalg._certified` with the bound ``||e||_F`` alone."""
    d = h.diagonal().real
    margin = linalg._ROUND_ROUNDING * linalg.MAX_JACOBI_SWEEPS * h.shape[0] * target
    if float(d.min()) - off <= margin:
        return False
    return bool(np.isfinite(np.ldexp(float(d.max()) + off + margin, k)))


def _certified(m):
    try:
        return _jacobi_eig(hermitian_part(m), certify=(0,)) is linalg.CERTIFIED
    except NumericError:  # the spectral norm overflows
        return False


def _outcome(op):
    try:
        return op()
    except (NotPsdError, NumericError) as exc:
        return type(exc), str(exc)


class TestCertificate:
    """A solve that may stop once Weyl's bound certifies its member
    positive gives the PSD verdict and validated matrix of the full solve."""

    def test_sound_and_same_bits(self):
        tol = ToleranceConfig()
        certified = dict.fromkeys(_CERTIFICATE_KINDS + _RANK_ONE_KINDS, 0)
        errors = 0
        for kind, m in _certificate_states():
            got = _outcome(lambda: _validated(m, tol, certify=True))
            want = _outcome(lambda: validate_psd(m, tol))
            if isinstance(want[0], type):
                # every error keeps its type and message
                assert got == want, kind
                errors += 1
                continue
            assert got[0].tobytes() == want[0].tobytes(), kind
            if _certified(m):
                # the full solve would have ended with no negative eigenvalue
                assert want[1] >= 0.0, kind
                assert got[1] is None
                certified[kind] += 1
            else:
                assert got[1].eigenvalues[0] == want[1]
        assert errors > 8
        assert certified["full"] > 4 and certified["tiny"] > 4
        assert certified["overflow"] and certified["near_singular"]
        assert not certified["pure"]
        assert certified["rank_one"] == certified["rank_one_inside"] == 6
        assert not certified["rank_one_below"]

    def test_the_schatten_bound_certifies_where_frobenius_refuses(self, monkeypatch):
        # the certificate bounds ||e||_2 by min(||e||_F, s), so it passes at
        # the first test where the Frobenius bound alone would, or earlier;
        # the rounds and the tests between them do not depend on it
        sooner = only_schatten = neither = 0
        for kind, m in _certificate_states():
            h = hermitian_part(m)
            runs = []
            for test in (linalg._certified, _frobenius_certified):
                with monkeypatch.context() as patch:
                    patch.setattr(linalg, "_certified", test)
                    runs.append((_outcome(lambda: rounds(h, (0,))), _certified(m)))
            (got, got_certified), (frob, frob_certified) = runs
            if frob_certified:
                assert got_certified and got <= frob, kind
                sooner += got < frob
            elif got_certified:
                only_schatten += 1
            else:
                neither += 1
            if kind == "rank_one_inside":
                assert got_certified and got == 0 and frob > 0
            if kind == "rank_one_outside":
                assert got > 0
        assert sooner > 25 and only_schatten > 0 and neither > 50

    def test_a_real_member_runs_the_rounds_of_its_complex_twin(self):
        # a real member shares a call with a complex one, so it is rotated
        # in complex128; the certificate reads a complex128 copy of its
        # off-diagonal either way, so it passes at the same round
        twins = 0
        for kind, m in _certificate_states():
            h = hermitian_part(m)
            n = h.shape[0]
            if h.imag.any() or n < 2:
                continue
            # certified at the first test, before any rotation
            z = np.eye(n) + 1e-3j * (np.eye(n, k=1) - np.eye(n, k=-1))
            counts = []
            for mats in ((h,), (h, z)):
                with linalg._kernel_record() as calls:
                    try:
                        got = _jacobi_eig(*mats, certify=(0, 1))
                    except NumericError:  # the spectral norm overflows
                        got = None
                if len(mats) == 2 and got is not None:
                    assert got[1] is linalg.CERTIFIED
                    got = got[0]
                counts.append((calls[0][0].rounds, got is linalg.CERTIFIED))
            assert counts[0] == counts[1], kind
            twins += 1
        assert twins > 50

    def test_state_rounds_are_pinned(self):
        # kernel_rounds.py's seeded n=24 states: the mean rounds to the
        # certificate under the Schatten-4 bound (the Frobenius bound alone
        # took 50.7 and 51.6), and to convergence; a change to the
        # certificate or the kernel restates them
        for real, want in ((True, 33.0), (False, 27.0)):
            certificate, convergence = state_rounds(real, 20)
            assert sum(certificate) / len(certificate) == want
            assert set(convergence) == {168}

    @pytest.mark.parametrize("k", [-5, 5])
    def test_decision_is_scale_invariant(self, k):
        decisions = []
        for kind, m in _certificate_states():
            if kind == "overflow" and k > 0:
                continue  # beyond float64
            decision = _certified(m)
            assert _certified(4.0 ** k * m) == decision, kind
            decisions.append(decision)
        assert 0 < sum(decisions) < len(decisions)

    @pytest.mark.parametrize("k", [-5, 5])
    def test_full_solve_is_scale_invariant(self, k):
        # every member is solved at unit scale, so the solve of 4**k m has
        # the eigenvectors of m's and its eigenvalues times 4**k, bit for bit
        t = 4.0 ** k
        for kind, m in _certificate_states():
            if kind == "overflow" and k > 0:
                continue  # beyond float64
            try:
                vals, vecs = _jacobi_eig(hermitian_part(m))
            except NumericError:
                continue  # a spectrum beyond float64
            got_vals, got_vecs = _jacobi_eig(hermitian_part(t * m))
            assert got_vals.tobytes() == (t * vals).tobytes(), kind
            assert got_vecs.tobytes() == vecs.tobytes(), kind

    def test_states_certify_between_sweep_ends(self):
        # the certificate is tested inside a sweep as well as at its ends,
        # and a state leaves at the first test it passes: after a number of
        # rounds that no sweep ends at, with the full solve's bits and verdict
        tol = ToleranceConfig()
        between = 0
        for kind, m in _certificate_states():
            if not _certified(m):
                continue
            h = hermitian_part(m)
            if rounds(h, (0,)) % len(linalg._round_plan(h.shape[0], 1)):
                between += 1
                want = validate_psd(m, tol)
                got = _validated(m, tol, certify=True)
                assert got[0].tobytes() == want[0].tobytes(), kind
                assert got[1] is None and want[1] >= 0.0, kind
        assert between > 10

    def test_an_overflowing_spectrum_is_not_certified(self):
        # Weyl's lower bound clears the margin, but the largest eigenvalue,
        # 2.2e308, leaves float64 when the scaled solve scales it back
        m = np.array([[1.7e308, 0.5e308], [0.5e308, 1.7e308]])
        tol = ToleranceConfig()
        want = _outcome(lambda: validate_psd(m, tol))
        assert want[0] is NumericError
        assert _outcome(lambda: _validated(m, tol, certify=True)) == want
        assert not _certified(m)
        assert _certified(0.5 * m)

    def test_only_marked_members_leave_certified(self, rng):
        m = rand_psd(rng, 12) + 0.5 * np.eye(12)
        full = _jacobi_eig(m, m)
        got = _jacobi_eig(m, m, certify=(1,))
        assert got[1] is linalg.CERTIFIED
        for x, y in zip(got[0], full[0]):
            assert x.tobytes() == y.tobytes()


class TestNumericInput:
    """Only arrays of numbers are matrices: strings, objects and ``bool``
    raise :class:`InputError` instead of being parsed or compared."""

    @pytest.mark.parametrize("m", [
        np.array([[1, 0], [0, 1]], dtype=object),
        np.array([["1", "0"], ["0", "1"]]),
        np.array([[True, False], [False, True]]),
        [[1.0, 0.0], [0.0]],
        [["1", 0.0], [0.0, 1.0]],
    ], ids=["object", "string", "bool", "ragged", "mixed"])
    def test_every_entry_point_types_it(self, m):
        eye = np.eye(2)
        for op in (lambda: validate_psd(m), lambda: hermitian_part(m),
                   lambda: parallel_sum(m, eye), lambda: parallel_sum(eye, m),
                   lambda: entropy_pairing(eye, eye, m), lambda: kron(m, eye),
                   lambda: polar_isometry(m), lambda: hermitian_norm(m)):
            with pytest.raises(InputError, match="numbers"):
                op()

    @pytest.mark.parametrize("xi", [np.array(["1", "0"]), np.array([1, 0], dtype=object),
                                    np.array([True, False]), [1.0, [0.0]]],
                             ids=["string", "object", "bool", "ragged"])
    def test_vector(self, xi):
        with pytest.raises(InputError, match="numbers"):
            rn_quadratic_form(np.eye(2), np.eye(2), xi)

    def test_a_non_numeric_state_is_reported_after_the_pair(self):
        rho = np.array([[1, 0], [0, 1]], dtype=object)
        with pytest.raises(NotPsdError):
            entropy_pairing(np.diag([1.0, -1.0]), np.eye(2), rho)
        with pytest.raises(InputError, match="must hold numbers, got dtype object"):
            entropy_pairing(np.eye(2), np.eye(2), rho)


class TestHermitianNorm:
    """:func:`hermitian_norm` takes the square, finite arrays of numbers
    that every other entry point takes."""

    @pytest.mark.parametrize("m,match", [
        (np.ones((2, 3)), r"square matrix, got shape \(2, 3\)"),
        (np.ones(3), r"square matrix, got shape \(3,\)"),
        ([[math.inf]], "non-finite"),
        ([[math.nan]], "non-finite"),
    ], ids=["not-square", "vector", "inf", "nan"])
    def test_rejects_what_validation_rejects(self, m, match):
        with pytest.raises(InputError, match=match):
            hermitian_norm(m)

    def test_same_bits_as_the_solver_on_valid_input(self, rng):
        for trial in range(20):
            n = int(rng.integers(1, 7))
            m = rand_hermitian(rng, n)
            m = m.real if trial % 2 else m
            vals, _ = _jacobi_eig(hermitize(np.asarray(m, dtype=np.complex128)))
            assert hermitian_norm(m) == float(np.abs(vals).max())
        assert hermitian_norm(np.zeros((0, 0))) == 0.0


class TestSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-12)

    def test_zero(self):
        assert np.abs(psd_sqrt(np.zeros((2, 2)))).max() == 0.0

    def test_squares_back(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            m = rand_psd(rng, n)
            root = psd_sqrt(m)
            scale = max(np.linalg.norm(m, 2), 1e-300)
            assert np.abs(root @ root - m).max() <= 1e-9 * scale

    def test_commutes_with_input(self, rng):
        for _ in range(20):
            m = rand_psd(rng, 6)
            root = psd_sqrt(m)
            comm = root @ m - m @ root
            assert np.linalg.norm(comm, 2) < 1e-9 * np.linalg.norm(m, 2)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_rank_matches_support_projection(self, rng):
        # rounding noise on the kernel must not leave a ~1e-8 root behind
        rank_of = np.linalg.matrix_rank
        for _ in range(30):
            n = int(rng.integers(2, 9))
            rank = int(rng.integers(1, n))
            m = rand_psd(rng, n, rank)
            assert rank_of(psd_sqrt(m)) == rank_of(support_projection(m)) == rank


@pytest.mark.parametrize("fn", [validate_psd, psd_sqrt, support_projection])
class TestSharedPsdCheck:
    # the three entry points draw the PSD line at -psd_tol * norm alike
    def test_same_floor(self, fn):
        fn(np.diag([2.0, -0.5e-9 * 2.0]))
        with pytest.raises(NotPsdError):
            fn(np.diag([2.0, -2e-9 * 2.0]))

    def test_empty(self, fn):
        out = fn(np.zeros((0, 0)))
        out = out[0] if isinstance(out, tuple) else out
        assert out.shape == (0, 0)


def _sqrtm(m):
    w, v = np.linalg.eigh(m)
    return v @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


class TestSupportProjection:
    def test_diagonal(self):
        np.testing.assert_allclose(support_projection(np.diag([5.0, 0.0])),
                                   np.diag([1.0, 0.0]), atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(support_projection(np.eye(3)), np.eye(3),
                                   atol=1e-12)

    def test_rank_one_formula(self, rng):
        x = rand_complex(rng, 5, 1)
        m = x @ x.conj().T
        ref = m / float(np.linalg.norm(x) ** 2)
        np.testing.assert_allclose(support_projection(m), ref, atol=1e-10)

    def test_projection_properties(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            m = rand_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            p = support_projection(m)
            assert np.abs(p @ p - p).max() < 1e-10
            assert np.abs(p - p.conj().T).max() < 1e-12
            assert np.abs(p @ m - m).max() <= 1e-9 * max(np.linalg.norm(m, 2), 1e-300)


class TestPolarIsometry:
    def test_psd_input_gives_support(self):
        np.testing.assert_allclose(polar_isometry(np.diag([2.0, 3.0])),
                                   np.eye(2), atol=1e-12)

    def test_zero(self):
        assert np.abs(polar_isometry(np.zeros((3, 2)))).max() == 0.0

    def test_reconstruction(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            r = int(rng.integers(1, 8))
            m = rand_complex(rng, n, r)
            w = polar_isometry(m)
            assert np.abs(w @ _sqrtm(m.conj().T @ m) - m).max() < 1e-9 * max(
                1.0, np.abs(m).max())
            gram_supp = support_projection(m.conj().T @ m)
            assert np.abs(w.conj().T @ w - gram_supp).max() < 1e-9

    def test_gram_beyond_the_float_range(self):
        # the factor is taken at unit scale: a Gram m* m with an entry of
        # 1e400 is no error, and one of 1e-400 is not lost to underflow.
        # Both factors are diag(1, 0), since 1e-400 lies below the support
        # threshold of diag(1, 1e-400)
        want = np.diag([1.0, 0.0]).astype(np.complex128).tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert polar_isometry(np.diag([1e200, 1.0])).tobytes() == want
            assert polar_isometry(np.diag([1.0, 1e-200])).tobytes() == want
            m = np.array([[2.0, 1.0], [0.0, 1.0]])
            w = polar_isometry(m)
            for t in (2.0 ** -560, 2.0 ** 560):
                assert polar_isometry(t * m).tobytes() == w.tobytes()

    def test_an_explicit_support_tol_bounds_the_gram_of_m(self):
        # the Gram of 1e-100 m at unit scale has its top eigenvalue in
        # [1/4, 1), far above a support_tol of 1e-11; that still cuts the
        # Gram of 1e-100 m itself, diag(1e-200, 1e-212), whole
        tol = ToleranceConfig(support_tol=1e-11)
        m = np.diag([1.0, 1e-6])
        assert polar_isometry(m, tol).tobytes() == polar_isometry(
            np.diag([1.0, 0.0]), tol).tobytes()
        assert np.abs(polar_isometry(1e-100 * m, tol)).max() == 0.0
        assert np.abs(polar_isometry(1e100 * m, tol) - np.eye(2)).max() < 1e-15


class TestOverflowIsTyped:
    """Finite input whose result leaves the float64 range, and non-finite
    input to :func:`polar_isometry`, raise a typed error and warn nothing."""

    @pytest.mark.parametrize("op,error,message", [
        (lambda: polar_isometry([[math.inf, 1.0], [1.0, 1.0]]), InputError,
         "matrix contains non-finite entries"),
        (lambda: build_rep(1e300 * np.eye(2), 1e300 * np.eye(2)).from_support(
            1e300 * np.eye(2)), NumericError, "T\\* m T overflows"),
        (lambda: rn_quadratic_form(np.eye(2), np.eye(2), [1e160, 1.0]), NumericError,
         "quadratic form outside the float64 range"),
    ], ids=["polar-inf", "from-support", "quadratic-form"])
    def test_raises_quietly(self, op, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                op()


class TestKron:
    def test_identity(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = kron(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
        np.testing.assert_allclose(out, np.diag([10.0, 14.0, 15.0, 21.0]))

    def test_trace_multiplicative(self, rng):
        for _ in range(20):
            m = rand_hermitian(rng, 3)
            k = rand_hermitian(rng, 2)
            assert abs(np.trace(kron(m, k)) - np.trace(m) * np.trace(k)) < 1e-10

    def test_mixed_product(self, rng):
        for _ in range(20):
            m, mp = rand_complex(rng, 2, 2), rand_complex(rng, 2, 2)
            k, kp = rand_complex(rng, 3, 3), rand_complex(rng, 3, 3)
            lhs = kron(m, k) @ kron(mp, kp)
            rhs = kron(m @ mp, k @ kp)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_bilinear(self, rng):
        m, mp = rand_complex(rng, 2, 2), rand_complex(rng, 2, 2)
        k = rand_complex(rng, 3, 3)
        lhs = kron(2.0 * m + mp, k)
        rhs = 2.0 * kron(m, k) + kron(mp, k)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_dimension_guard(self):
        with pytest.raises(InputError):
            kron(np.eye(70), np.eye(70))

    def test_overflow_is_a_numeric_error(self):
        # finite factors, so the overflow is the product's; no warning leaks
        for a, b in (([[1e200]], [[1e200]]), ([[1e200j]], [[1e200 + 1e200j]])):
            with pytest.raises(NumericError, match="Kronecker product outside"):
                kron(a, b)
        huge = kron(np.eye(2), [[1e308]])
        assert huge.tobytes() == np.diag([1e308, 1e308]).astype(complex).tobytes()


class TestToleranceConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            ToleranceConfig(zero_tol=0.0)
        with pytest.raises(InputError):
            ToleranceConfig(max_doublings=0)

    @pytest.mark.parametrize("field", ["herm_tol", "psd_tol", "support_tol",
                                       "zero_tol", "one_tol", "weight_tol",
                                       "conv_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, True, np.float32(np.inf),
                                       np.float64(-1e-3), np.bool_(True)],
                             ids=["inf", "nan", "bool", "numpy-inf", "numpy-negative",
                                  "numpy-bool"])
    def test_rejects_non_finite_and_bool(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be a finite"):
            ToleranceConfig(**{field: value})

    def test_rejects_bool_max_doublings(self):
        for value in (True, np.bool_(True), np.int64(0), np.float64(5.0), 5.0):
            with pytest.raises(InputError, match="max_doublings"):
                ToleranceConfig(max_doublings=value)

    @pytest.mark.parametrize("field", ["herm_tol", "psd_tol", "support_tol",
                                       "zero_tol", "one_tol", "weight_tol",
                                       "conv_tol"])
    def test_numpy_tolerances_are_stored_as_float(self, field):
        for value in (np.float16(1e-3), np.float32(1e-3), np.float64(1e-3)):
            got = getattr(ToleranceConfig(**{field: value}), field)
            assert type(got) is float and got == float(value)

    def test_numpy_max_doublings_is_stored_as_int(self):
        for value in (np.int64(5), np.uint8(5), np.int32(5)):
            got = ToleranceConfig(max_doublings=value).max_doublings
            assert type(got) is int and got == 5

    def test_rejects_overlapping_windows(self):
        # an eigenvalue in [0.3, 0.7] would be classified both 0 and 1
        with pytest.raises(InputError, match="below 1"):
            ToleranceConfig(zero_tol=0.7, one_tol=0.7)
        with pytest.raises(InputError):
            ToleranceConfig(zero_tol=0.5, one_tol=0.5)
        for zero_tol, one_tol in ((0.5, 1e-8), (1e-8, 0.5), (0.2, 0.3)):
            ToleranceConfig(zero_tol=zero_tol, one_tol=one_tol)

    def test_support_threshold_auto(self):
        tol = ToleranceConfig()
        assert tol.support_threshold(4, 2.0) == pytest.approx(
            4 * np.finfo(float).eps * 2.0)
        assert ToleranceConfig(support_tol=1e-5).support_threshold(4, 2.0) == 1e-5


# a joint scale at which squaring an entry overflows although every entry,
# value and norm is finite
HUGE = 1e300
HUGE_B = HUGE * np.array([[2.0, 1.0], [1.0, 2.0]])


class TestSafeFrobenius:
    def test_same_bits_as_the_plain_norm_when_finite(self, rng):
        for k in range(100):
            n = int(rng.integers(0, 9))
            m = rand_complex(rng, n, n) * 10.0 ** rng.uniform(-150.0, 150.0)
            if k % 2:
                m = m.real
            assert repr(safe_frobenius(m)) == repr(frobenius(m))

    def test_scales_only_when_the_plain_norm_overflows(self, rng):
        for k in range(40):
            m = rand_complex(rng, 5, 5)
            if k % 2:
                m = m.real
            big = m * 2.0 ** 1000
            with np.errstate(over="ignore"):
                assert frobenius(big) == np.inf
            assert safe_frobenius(big) == frobenius(m) * 2.0 ** 1000

    def test_scales_when_the_squares_underflow(self, rng):
        # the squares of 2**-1000 m underflow to 0 or lose their bits
        for k in range(40):
            m = rand_complex(rng, 5, 5)
            if k % 2:
                m = m.real
            small = m * 2.0 ** -1000
            assert frobenius(small) != frobenius(m) * 2.0 ** -1000
            assert repr(safe_frobenius(small)) == repr(frobenius(m) * 2.0 ** -1000)

    def test_inf_only_beyond_the_float_range(self):
        assert safe_frobenius([[1.7e308, 1.7e308]]) == np.inf
        assert safe_frobenius([[np.inf, 0.0]]) == np.inf
        assert np.isnan(safe_frobenius([[np.nan, 1e300]]))
        assert safe_frobenius(np.zeros((0, 0))) == 0.0


class TestHugeScaleCallers:
    # every caller-side norm used to overflow here: a wrong verdict or a
    # nan/inf diagnostic, and "overflow encountered in dot" leaked

    def test_to_support_raises_when_not_dominated(self):
        rep = build_rep(HUGE * np.diag([1.0, 0.0]), HUGE * np.diag([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DominationError, match="round-trip residual"):
                rep.to_support(HUGE * np.eye(2))
            # a dominated matrix still round-trips: a + b = 2e300 diag(1, 0)
            ct = rep.to_support(HUGE * np.diag([0.5, 0.0]))
        np.testing.assert_allclose(ct, [[0.25]], rtol=1e-14)

    @pytest.mark.parametrize("op", [
        rn_factor, lambda a, b: kubo_ando_form(a, b, parallel())],
        ids=["rn_factor", "kubo_ando_form"])
    def test_derivative_factor_residual(self, op):
        a = np.diag([2.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = op(HUGE * a, HUGE_B)
        assert 0.0 <= res.residual <= 1e-14
        assert np.isfinite(res.value).all()

    def test_lebesgue_residual_sum(self):
        a = np.diag([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = lebesgue_decompose(HUGE * a, HUGE_B)
        assert dec.warnings == ()
        assert 0.0 <= dec.residual_sum <= 1e-14 * np.linalg.norm(HUGE_B / HUGE) * HUGE
        ref = lebesgue_decompose(a, HUGE_B / HUGE)
        np.testing.assert_allclose(dec.sing_part / HUGE, ref.sing_part, atol=1e-14)
        np.testing.assert_allclose(dec.abs_part / HUGE, ref.abs_part, atol=1e-14)

    def test_parallel_sum_limit_gaps(self):
        a = np.diag([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lim = parallel_sum_limit(HUGE * a, HUGE_B)
        ref = parallel_sum_limit(a, HUGE_B / HUGE)
        gaps = np.array(lim.gaps[:len(ref.gaps)])
        assert np.isfinite(gaps).all()
        np.testing.assert_allclose(gaps / HUGE, ref.gaps, rtol=0.0, atol=1e-14)


class TestTinyScaleCallers:
    # below about 1e-154 the squares of an unscaled stopping test or norm
    # underflow: each of these read a wrong verdict or value until every
    # solve and norm ran at unit scale

    def test_validate_psd_rejects_an_indefinite_matrix(self):
        with pytest.raises(NotPsdError, match="not positive semidefinite"):
            validate_psd(4.0 ** -300 * np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_hermitian_norm(self):
        assert hermitian_norm(1e-165 * np.array([[0.0, 1.0], [1.0, 0.0]])) == 1e-165

    def test_to_support_raises_when_not_dominated(self):
        rep = build_rep(1e-200 * np.diag([1.0, 0.0]), 1e-200 * np.diag([1.0, 0.0]))
        with pytest.raises(DominationError, match="round-trip residual"):
            rep.to_support(1e-200 * np.eye(2))
        ct = rep.to_support(1e-200 * np.diag([0.5, 0.0]))
        np.testing.assert_allclose(ct, [[0.25]], rtol=1e-14)

    @pytest.mark.parametrize("op", [
        rn_factor, lambda a, b: kubo_ando_form(a, b, parallel())],
        ids=["rn_factor", "kubo_ando_form"])
    def test_derivative_factor_residual(self, op):
        a = np.diag([2.0, 1.0])
        want = op(a, HUGE_B / HUGE).residual
        assert 0.0 < want <= 1e-14
        assert op(4.0 ** -330 * a, 4.0 ** -330 * HUGE_B / HUGE).residual == want

    @pytest.mark.parametrize("t", [1.0, 1e-305, 1e-310])
    def test_to_support_decides_domination_at_unit_scale(self, t):
        # the residual used to be held against max(norm, 1e-300), so a
        # matrix whose norm lies below that floor passed as dominated
        rep = build_rep(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        with pytest.raises(DominationError, match="round-trip residual"):
            rep.to_support(t * np.eye(2))
        np.testing.assert_allclose(rep.to_support(t * np.diag([0.5, 0.0])),
                                   [[0.25 * t]], rtol=1e-12)

    def test_to_support_on_a_subnormal_pair(self):
        # S = basis diag(sum_eigs)^(-1/2) has entries near 7e154, so S* c S
        # overflows at unit scale of c unless S is scaled too
        t = 1e-310
        rep = build_rep(t * np.diag([1.0, 0.0]), t * np.diag([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DominationError, match="round-trip residual"):
                rep.to_support(t * np.eye(2))
            np.testing.assert_allclose(rep.to_support(t * np.diag([0.5, 0.0])),
                                       [[0.25]], rtol=1e-12)
            with pytest.raises(NumericError, match="S\\* c S overflows"):
                rep.to_support(np.diag([0.5, 0.0]))

    @pytest.mark.parametrize("op", [
        rn_factor, lambda a, b: kubo_ando_form(a, b, parallel())],
        ids=["rn_factor", "kubo_ando_form"])
    def test_derivative_factor_residual_needs_no_floor(self, op):
        # the target's norm used to be floored at 1e-300, and already at
        # 4**-495 the norm of value - target, about 1e-313, was rounded to a
        # subnormal before the division
        a = np.diag([2.0, 1.0])
        want = op(a, HUGE_B / HUGE).residual
        for k in (-495, -505):
            assert op(4.0 ** k * a, 4.0 ** k * HUGE_B / HUGE).residual == want

    def test_zero_target_has_zero_residual(self):
        res = kubo_ando_form(np.diag([2.0, 1.0]), np.zeros((2, 2)), parallel())
        assert res.residual == 0.0
        assert not res.value.any()
