"""Tests for derivative factorizations over a positive definite base."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from pwcalc import (ExtendedValueError, InputError, NumericError, PwFunction,
                    abs_cont_part, abs_part, build_rep, geometric, kubo_ando_form,
                    left, parallel, parallel_sum, pw_eval, rn_cutoff, rn_factor,
                    rn_quadratic_form, entropy)
from pwcalc import radon_nikodym
from pwcalc.fileio import load_matrix

from conftest import (eigmin, geometric_mean_oracle, np_sqrtm, rand_complex,
                      rand_pair, rand_psd, rand_unitary, spec_norm)

FIXTURES = Path(__file__).parent / "fixtures"
EPS = float(np.finfo(np.float64).eps)


def definite(rng, n, floor=0.2):
    return rand_psd(rng, n) + floor * np.eye(n)


class TestRnFactor:
    def test_identity_pair(self):
        res = rn_factor(np.eye(3), np.eye(3))
        np.testing.assert_allclose(res.factor, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(res.value, np.eye(3), atol=1e-10)
        assert res.infinite_directions == 0

    def test_zero_second_slot(self):
        res = rn_factor(np.eye(3), np.zeros((3, 3)))
        assert np.abs(res.factor).max() < 1e-12
        assert np.abs(res.root).max() < 1e-12
        assert np.abs(res.value).max() < 1e-12

    def test_recovers_b_for_definite_base(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            a = definite(rng, n)
            b = rand_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            res = rn_factor(a, b)
            # over a definite base the continuous part is b itself
            scale = max(spec_norm(b), 1e-300)
            assert spec_norm(res.value - b) <= 1e-6 * max(res.condition, 1.0) * scale + 1e-12
            assert res.residual <= 1e-6 * max(res.condition, 1.0)

    def test_root_gram_matches_abs_part_oracle(self, rng):
        a = definite(rng, 5)
        b = rand_psd(rng, 5, rank=3)
        res = rn_factor(a, b)
        bc = abs_cont_part(a, b)
        assert spec_norm(res.root.conj().T @ res.root - bc) < 1e-8

    def test_rejects_singular_base(self, rng):
        with pytest.raises(InputError):
            rn_factor(np.diag([1.0, 0.0]), np.eye(2))

    def test_monotone_cutoff_approximation(self, rng):
        # truncated ratios applied to the outer Gram increase toward the factor
        a = definite(rng, 4)
        b = rand_psd(rng, 4)
        rep = build_rep(a, b)
        res = rn_factor(a, b)
        xx = rep.contr_a @ rep.contr_a.conj().T
        w, v = np.linalg.eigh(xx)
        prev = None
        for n in (1, 2, 4, 16, 256, 65536):
            hv = np.where(w >= 1.0 / n, (1.0 - np.minimum(w, 1.0)) / np.maximum(w, 1e-300), 0.0)
            approx = rep.a_half @ (v @ np.diag(hv) @ v.conj().T) @ rep.a_half
            if prev is not None:
                assert eigmin(approx - prev) >= -1e-9
            prev = approx
        assert spec_norm(prev - res.value) < 1e-8


def test_empty_base_is_definite():
    # the 0x0 pair: rn_factor, kubo_ando_form and rn_quadratic_form accept
    # it as every other operation does
    empty = np.zeros((0, 0))
    for res in (rn_factor(empty, empty), kubo_ando_form(empty, empty, geometric(0.5))):
        assert res.factor.shape == res.root.shape == res.value.shape == (0, 0)
        assert res.residual == res.condition == 0.0
        assert res.infinite_directions == res.near_singular == 0
        assert res.margin == math.inf
    assert rn_quadratic_form(empty, empty, np.zeros(0)) == 0.0


def _same_bits(x, y):
    # field-wise bit equality of two factorizations
    for field in dataclasses.fields(x):
        u, v = getattr(x, field.name), getattr(y, field.name)
        if isinstance(u, np.ndarray):
            assert u.dtype == v.dtype and u.shape == v.shape, field.name
            assert u.tobytes() == v.tobytes(), field.name
        else:
            assert repr(u) == repr(v), field.name


class TestRnIsKuboWithAbsPart:
    def test_random_pairs(self, rng):
        for trial in range(20):
            n = int(rng.integers(2, 7))
            real = trial % 2 == 0
            a = definite(rng, n).real if real else definite(rng, n)
            b = rand_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            b = b.real if real else b
            _same_bits(rn_factor(a, b), kubo_ando_form(a, b, abs_part()))

    def test_fixture_pair(self):
        a = load_matrix(str(FIXTURES / "a2pd.json"))
        b = load_matrix(str(FIXTURES / "b2sing.json"))
        _same_bits(rn_factor(a, b), kubo_ando_form(a, b, abs_part()))

    def test_quadratic_form_uses_the_same_factor(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = definite(rng, n)
            b = rand_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            xi = rand_complex(rng, n, 1).reshape(-1)
            ref = float((xi.conj() @ rn_factor(a, b).factor @ xi).real)
            assert rn_quadratic_form(a, b, xi) == pytest.approx(
                ref, rel=1e-12, abs=1e-14)


class TestKuboAndoForm:
    def test_parallel_profile_gives_parallel_sum(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 7))
            a = definite(rng, n)
            b = rand_psd(rng, n)
            res = kubo_ando_form(a, b, parallel())
            assert spec_norm(res.value - parallel_sum(a, b)) < 1e-8
            assert res.residual < 1e-7 * max(res.condition, 1.0)

    def test_left_profile_gives_base(self, rng):
        a = definite(rng, 4)
        b = rand_psd(rng, 4)
        res = kubo_ando_form(a, b, left())
        assert spec_norm(res.value - a) < 1e-8

    def test_geometric_profile(self, rng):
        a = definite(rng, 4)
        b = definite(rng, 4)
        res = kubo_ando_form(a, b, geometric(0.5))
        ref = geometric_mean_oracle(a, b, 0.5)
        assert spec_norm(res.value - ref) < 1e-7 * max(res.condition, 1.0)

    def test_reconstruction_residual_vs_direct_eval(self, rng):
        for fn in (parallel(), left(), geometric(0.5)):
            for _ in range(10):
                n = int(rng.integers(1, 9))
                a = definite(rng, n)
                b = rand_psd(rng, n)
                res = kubo_ando_form(a, b, fn)
                direct = pw_eval(a, b, fn)
                scale = max(spec_norm(direct), 1e-300)
                assert spec_norm(res.value - direct) <= \
                    1e-7 * max(res.condition, 1.0) * scale

    def test_requires_vanishing_at_zero(self, rng):
        from pwcalc import right
        a = definite(rng, 3)
        with pytest.raises(InputError):
            kubo_ando_form(a, a, right())

    def test_requires_bounded_profile(self, rng):
        a = definite(rng, 3)
        with pytest.raises(InputError):
            kubo_ando_form(a, a, entropy())

    def test_rejects_negative_profile(self, rng):
        neg = PwFunction("neg", lambda x: -x * (1.0 - x), 0.0, 0.0, True)
        a = definite(rng, 3)
        with pytest.raises(InputError, match="negative on the spectrum"):
            kubo_ando_form(a, rand_psd(rng, 3), neg)

    def test_infinite_inside_raises_before_any_matrix(self):
        # gram_a's spectrum is {1/4, 1/2}, both where the profile is +inf;
        # eval's error comes first, with no invalid-value warning
        spike = PwFunction(
            "spike", lambda x: math.inf if 0.2 < x < 0.8 else x * (1.0 - x),
            0.0, 0.0, True)
        a, b = np.eye(2), np.diag([1.0, 3.0])
        with pytest.raises(ExtendedValueError) as err:
            kubo_ando_form(a, b, spike)
        with pytest.raises(ExtendedValueError) as direct:
            build_rep(a, b).eval(spike)
        assert str(err.value) == str(direct.value)


class TestQuadraticForm:
    def test_identity_pair_is_norm_squared(self, rng):
        xi = rand_complex(rng, 4, 1).reshape(-1)
        val = rn_quadratic_form(np.eye(4), np.eye(4), xi)
        assert val == pytest.approx(float(np.linalg.norm(xi) ** 2), rel=1e-10)

    def test_zero_second_slot(self, rng):
        xi = rand_complex(rng, 3, 1).reshape(-1)
        assert rn_quadratic_form(np.eye(3), np.zeros((3, 3)), xi) == \
            pytest.approx(0.0, abs=1e-12)

    def test_matches_continuous_part_quadratic(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            a = definite(rng, n)
            b = rand_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            bc = abs_cont_part(a, b)
            xi = rand_complex(rng, n, 1).reshape(-1)
            lifted = np_sqrtm(a) @ xi
            val = rn_quadratic_form(a, b, lifted)
            ref = float((xi.conj() @ bc @ xi).real)
            assert val == pytest.approx(ref, rel=1e-7, abs=1e-9)

    def test_dimension_guard(self, rng):
        with pytest.raises(InputError):
            rn_quadratic_form(np.eye(2), np.eye(2), np.ones(3))

    # n entries are not enough: a matrix or a column is not flattened
    @pytest.mark.parametrize("n,xi", [(4, np.ones((2, 2))), (2, np.ones((2, 1))),
                                      (1, 1.0)],
                             ids=["matrix", "column", "scalar"])
    def test_rejects_non_vector(self, n, xi):
        with pytest.raises(InputError, match="vector of length"):
            rn_quadratic_form(np.eye(n), np.eye(n), xi)

    @pytest.mark.parametrize("xi", [[math.nan, 1.0], [math.inf, 1.0],
                                    [1.0, complex(0.0, -math.inf)]],
                             ids=["nan", "inf", "complex-inf"])
    def test_rejects_non_finite_vector(self, xi):
        with pytest.raises(InputError, match="non-finite"):
            rn_quadratic_form(np.eye(2), np.diag([1.0, 0.0]), xi)

    def test_huge_vector_with_a_finite_form(self):
        # |B* xi|^2 = 2.25e308 overflows, but the weight (1 - x)/x = 1e-7
        # brings the form back into range: it is summed again with xi
        # scaled by a power of two, and equals the form at xi / 2^512
        # scaled by 4^512
        eye = np.eye(2)
        val = rn_quadratic_form(eye, 1e-7 * eye, [1.5e154, 0.0])
        assert val == pytest.approx(2.25e301, rel=1e-8)
        small = rn_quadratic_form(eye, 1e-7 * eye, [math.ldexp(1.5e154, -512), 0.0])
        assert val == pytest.approx(math.ldexp(small, 1024), rel=1e-15)

    def test_form_beyond_float64_raises(self):
        # (1 - x)/x = 1 on I, I: the form at (1e160, 1) is 1e320
        with pytest.raises(NumericError, match="quadratic form outside the float64 range"):
            rn_quadratic_form(np.eye(2), np.eye(2), [1e160, 1.0])


def _conditioned_pairs(count):
    """Seeded definite ``a`` (n 1-8, real and complex, cond(a) up to 1e6,
    spectral norm 1) with ``b`` of random rank."""
    rng = np.random.default_rng(12)
    for k in range(count):
        n = int(rng.integers(1, 9))
        u = rand_unitary(rng, n)
        a = (u * np.logspace(0.0, -rng.uniform(0.0, 6.0), n)[None, :]) @ u.conj().T
        b = rand_psd(rng, n, rank=int(rng.integers(0, n + 1)))
        if k % 2:
            a, b = a.real, b.real
        yield a, b


class TestRatioFromGramA:
    """``_ratio`` takes the eigenbasis of ``X X*`` as the normalized columns
    of ``X W``, with ``W`` the eigenbasis of ``gram_a = X* X``."""

    def test_factor_and_basis_against_numpy(self, monkeypatch):
        decs = []
        real = radon_nikodym._ratio

        def recording(rep, fn):
            out = real(rep, fn)
            decs.append(out[0])
            return out

        monkeypatch.setattr(radon_nikodym, "_ratio", recording)
        for a, b in _conditioned_pairs(400):
            n = a.shape[0]
            w, v = np.linalg.eigh(a)
            a_inv_half = (v * w ** -0.5) @ v.conj().T
            oracle = a_inv_half @ b @ a_inv_half
            noise = 10 * n * EPS * (w[-1] / w[0])
            res = rn_factor(a, b)
            assert res.infinite_directions == 0
            assert (spec_norm(res.factor - oracle)
                    <= noise * max(1.0, spec_norm(oracle)))
            basis = decs[-1].basis
            assert spec_norm(basis.conj().T @ basis - np.eye(n)) <= noise

    def test_reads_gram_a_spectrum(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            rep = build_rep(definite(rng, n), rand_psd(rng, n, rank=2))
            dec, _, _ = radon_nikodym._ratio(rep, rep.values(abs_part()))
            x = rep.gram_a_spec.eigenvalues
            assert dec.eigenvalues.tobytes() == x.tobytes()
            outer = rep.contr_a @ rep.contr_a.conj().T
            assert np.abs(outer @ dec.basis - dec.basis * x[None, :]).max() < 1e-12

    def test_near_singular_base_stays_finite(self):
        t = np.pi / 7
        r = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        a = r @ np.diag([1.0, 1e-12]) @ r.T
        res = rn_factor(a, np.eye(2))
        assert res.infinite_directions == 1
        for m in (res.factor, res.root, res.value):
            assert np.isfinite(m).all()
        assert math.isfinite(res.residual) and math.isfinite(res.margin)
