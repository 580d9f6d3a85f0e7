"""Package surface and eigensolve budget of the shared representation."""

import ast
import functools
import importlib
import importlib.util
import inspect
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import pwcalc
from pwcalc import cli, linalg
from pwcalc.fileio import load_matrix, load_vector

from conftest import rand_pair
from kernel_rounds import kernel_calls

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(pwcalc.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


class TestApiSurface:
    def test_every_export_resolves(self):
        missing = [name for name in pwcalc.__all__ if not hasattr(pwcalc, name)]
        assert missing == []
        assert len(set(pwcalc.__all__)) == len(pwcalc.__all__)

    def test_star_import(self):
        ns = {}
        exec("from pwcalc import *", ns)
        assert set(pwcalc.__all__) <= ns.keys()

    def test_public_names_are_exported(self):
        public = {name for name, value in vars(pwcalc).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)}
        assert public == set(pwcalc.__all__)

    def test_tracer_targets_resolve(self):
        # the benchmark's tracer wraps these by name when it is installed
        spec = importlib.util.spec_from_file_location("pwcalc_tracer", TRACER)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        missing = [f"{mod}.{attr}" for mod, attr in tracer.FUNCTIONS
                   if not callable(getattr(importlib.import_module(mod), attr, None))]
        missing += [f"{mod}.{cls}.{attr}" for mod, cls, attr in tracer.METHODS
                    if attr not in vars(getattr(importlib.import_module(mod), cls))]
        assert missing == []
        for mod in tracer.WHOLE_MODULES:
            importlib.import_module(mod)


def _fixture(name):
    return load_matrix(str(FIXTURES / name))


def _fixture_pair(a, b):
    return _fixture(a), _fixture(b)


# Jacobi solves per operation. A change here adds or removes an eigensolve
# and should be deliberate.
SOLVES = [
    ("build_rep", "a3.json", "b3.json", lambda a, b: pwcalc.build_rep(a, b), 4),
    ("lebesgue_decompose", "a3.json", "b3.json", pwcalc.lebesgue_decompose, 4),
    ("abs_continuity_projection", "a3.json", "b3.json",
     pwcalc.abs_continuity_projection, 4),
    ("build_rep", "a2pd.json", "b2sing.json",
     lambda a, b: pwcalc.build_rep(a, b), 4),
    # a member clamped at rounding level: the sum solved in the validating
    # call differs from the sum of the clamped pair by less than its
    # support cutoff, so it serves
    ("build_rep", "a3clamp.json", "b3.json",
     lambda a, b: pwcalc.build_rep(a, b), 4),
    # a clamp below minus the support threshold: the sum of the clamped
    # pair is solved again
    ("build_rep", "a3deep.json", "b3.json",
     lambda a, b: pwcalc.build_rep(a, b), 5),
    ("lebesgue_decompose", "a2pd.json", "b2sing.json",
     pwcalc.lebesgue_decompose, 4),
    ("rn_factor", "a2pd.json", "b2sing.json", pwcalc.rn_factor, 4),
    ("kubo_ando_form", "a2pd.json", "b2sing.json",
     lambda a, b: pwcalc.kubo_ando_form(a, b, pwcalc.parallel()), 4),
    ("rn_quadratic_form", "a2pd.json", "b2sing.json",
     lambda a, b: pwcalc.rn_quadratic_form(
         a, b, load_vector(str(FIXTURES / "xi2.json"))), 4),
    ("solvable_subspace_projection", "a2pd.json", "b2sing.json",
     pwcalc.solvable_subspace_projection, 3),
    ("trace_functional", "a2pd.json", "b2sing.json",
     lambda a, b: pwcalc.trace_functional(a, b, pwcalc.entropy()), 4),
    ("is_abs_continuous", "a3.json", "b3.json", pwcalc.is_abs_continuous, 4),
    # a mutually singular pair: gram_a is 0 on T(ker a) and 1 on T(ker b),
    # which fill the support, so it is not solved
    ("is_mutually_singular", "sing_a2.json", "sing_b2.json",
     pwcalc.is_mutually_singular, 3),
    ("pw_eval", "a3.json", "b3.json",
     lambda a, b: pwcalc.pw_eval(a, b, pwcalc.parallel()), 4),
    ("abs_cont_part", "a3.json", "b3.json", pwcalc.abs_cont_part, 4),
    ("parallel_sum", "a3.json", "b3.json", pwcalc.parallel_sum, 4),
    ("parallel_sum_expressions", "a3.json", "b3.json",
     pwcalc.parallel_sum_expressions, 4),
    ("parallel_sum_limit", "a3.json", "b3.json", pwcalc.parallel_sum_limit, 4),
    ("weighted_geometric_mean", "a3.json", "b3.json",
     lambda a, b: pwcalc.weighted_geometric_mean(a, b, 0.3), 4),
    # the state is validated once more
    ("pw_pairing", "a3.json", "b3.json",
     lambda a, b: pwcalc.pw_pairing(
         a, b, pwcalc.entropy(), _fixture("rho3.json")), 5),
    ("eval_sequence", "a3.json", "b3.json",
     lambda a, b: pwcalc.eval_sequence(
         a, b, [pwcalc.power(1.5), pwcalc.power(2.0)],
         _fixture("rho3.json")), 5),
    ("power_pairing", "a3.json", "b3.json",
     lambda a, b: pwcalc.power_pairing(a, b, 2.0, _fixture("rho3.json")), 5),
    ("entropy_pairing", "a3.json", "b3.json",
     lambda a, b: pwcalc.entropy_pairing(a, b, _fixture("rho3.json")), 5),
    # three representatives (the Kronecker pair and each slot), each with
    # its state
    ("tensor_pairing_check", "t2a.json", "t2b.json",
     lambda a, b: pwcalc.tensor_pairing_check(
         a, b, a, b, _fixture("t2rho.json"), _fixture("t2rho.json"),
         pwcalc.power(2.0)), 15),
]


@pytest.mark.parametrize("name,fa,fb,op,expected", SOLVES,
                         ids=[f"{s[0]}-{s[1][:-5]}" for s in SOLVES])
def test_solve_count(monkeypatch, name, fa, fb, op, expected):
    a, b = _fixture_pair(fa, fb)
    calls = []
    real = linalg._jacobi_eig

    def counting(*mats, **kwargs):
        # one count per member: a side-by-side call solves each of them
        calls.extend(m.shape[0] for m in mats)
        return real(*mats, **kwargs)

    monkeypatch.setattr(linalg, "_jacobi_eig", counting)
    op(a, b)
    assert len(calls) == expected, f"{name}: {len(calls)} solves"


def _kernel_calls(monkeypatch, op, *args):
    """Members of each ``_jacobi_eig`` call that ``op(*args)`` makes."""
    calls = []
    real = linalg._jacobi_eig

    def counting(*mats, **kwargs):
        calls.append(len(mats))
        return real(*mats, **kwargs)

    monkeypatch.setattr(linalg, "_jacobi_eig", counting)
    op(*args)
    return calls


def _rho3():
    return _fixture("rho3.json")


# Kernel calls per operation. The validating call of a pair also solves
# the sum and, for a one-shot pairing, the state; gram_a's solve is the
# second call. A member clamped at rounding level (a3clamp) keeps that
# sum; a clamp below minus the support threshold (a3deep) adds a call, for
# the sum of the clamped pair.
CALLS = [
    ("build_rep", "a3.json", lambda a, b: pwcalc.build_rep(a, b), [3, 1]),
    ("build_rep", "a3clamp.json", lambda a, b: pwcalc.build_rep(a, b), [3, 1]),
    ("build_rep", "a3deep.json", lambda a, b: pwcalc.build_rep(a, b), [3, 1, 1]),
    ("pw_pairing", "a3.json",
     lambda a, b: pwcalc.pw_pairing(a, b, pwcalc.entropy(), _rho3()), [4, 1]),
    ("pw_pairing", "a3clamp.json",
     lambda a, b: pwcalc.pw_pairing(a, b, pwcalc.entropy(), _rho3()), [4, 1]),
    ("pw_pairing", "a3deep.json",
     lambda a, b: pwcalc.pw_pairing(a, b, pwcalc.entropy(), _rho3()), [4, 1, 1]),
    ("eval_sequence", "a3.json",
     lambda a, b: pwcalc.eval_sequence(a, b, [pwcalc.power(2.0)], _rho3()), [4, 1]),
    ("power_pairing", "a3.json",
     lambda a, b: pwcalc.power_pairing(a, b, 2.0, _rho3()), [4, 1]),
    ("entropy_pairing", "a3.json",
     lambda a, b: pwcalc.entropy_pairing(a, b, _rho3()), [4, 1]),
    ("tensor_pairing_check", "a3.json",
     lambda a, b: pwcalc.tensor_pairing_check(
         a, b, a[:1, :1], b[:1, :1], _rho3(), _rho3()[:1, :1], pwcalc.power(2.0)),
     [4, 1] * 3),
]


@pytest.mark.parametrize("name,fa,op,expected", CALLS,
                         ids=[f"{c[0]}-{c[1][:-5]}" for c in CALLS])
def test_kernel_calls(monkeypatch, name, fa, op, expected):
    calls = _kernel_calls(monkeypatch, op, _fixture(fa), _fixture("b3.json"))
    assert calls == expected, name


def test_gram_a_solves_only_its_retained_block(monkeypatch):
    # sing_a2 and sing_b2 are mutually singular: gram_a is 0 on T(ker a)
    # and 1 on T(ker b), which fill the support, so only the validating
    # call runs, with the state folded into it for a pairing
    sing = _fixture_pair("sing_a2.json", "sing_b2.json")
    rho = np.eye(2)
    assert _kernel_calls(monkeypatch, pwcalc.build_rep, *sing) == [3]
    assert _kernel_calls(monkeypatch, pwcalc.pw_pairing, *sing,
                         pwcalc.entropy(), rho) == [4]
    monkeypatch.undo()
    # a3 and b3 have rank 2 each and a sum of rank 3: one direction each
    # is split off, and the second call solves one member of size 1
    with kernel_calls() as calls:
        pwcalc.build_rep(*_fixture_pair("a3.json", "b3.json"))
    assert [[m.shape[0] for m in mats] for mats in calls] == [[3, 3, 3], [1]]


def test_cli_pair_folds_its_state(monkeypatch, capsys):
    argv = ["pair", "--phi", "entropy"] + [
        arg for flag, name in (("--a", "a3"), ("--b", "b3"), ("--rho", "rho3"))
        for arg in (flag, str(FIXTURES / f"{name}.json"))]
    assert _kernel_calls(monkeypatch, cli.main, argv) == [4, 1]
    assert capsys.readouterr().out


def _error(op):
    with pytest.raises(pwcalc.PwCalcError) as info:
        op()
    return type(info.value), str(info.value)


_STATE_OPS = {
    "pw_pairing": lambda a, b, rho: pwcalc.pw_pairing(a, b, pwcalc.parallel(), rho),
    "power_pairing": lambda a, b, rho: pwcalc.power_pairing(a, b, 2.0, rho),
    "entropy_pairing": lambda a, b, rho: pwcalc.entropy_pairing(a, b, rho),
    "eval_sequence": lambda a, b, rho: pwcalc.eval_sequence(
        a, b, [pwcalc.parallel(), pwcalc.power(2.0)], rho),
    "tensor_pairing_check": lambda a, b, rho: pwcalc.tensor_pairing_check(
        a, b, np.eye(1), np.eye(1), rho, np.eye(1), pwcalc.power(2.0)),
    # a bad profile or parameter is reported after the state, one-shot or
    # on a reused rep
    "eval_sequence_empty": lambda a, b, rho: pwcalc.eval_sequence(a, b, [], rho),
    "eval_sequence_not_iterable": lambda a, b, rho: pwcalc.eval_sequence(
        a, b, pwcalc.parallel(), rho),
    "power_pairing_alpha_half": lambda a, b, rho: pwcalc.power_pairing(a, b, 0.5, rho),
    "pw_pairing_not_a_profile": lambda a, b, rho: pwcalc.pw_pairing(a, b, "parallel", rho),
    "rep_eval_sequence_empty": lambda a, b, rho: pwcalc.build_rep(a, b).eval_sequence(
        [], rho),
    "rep_pairing_not_a_profile": lambda a, b, rho: pwcalc.build_rep(a, b).pairing(
        "parallel", rho),
}
# what the ops above that carry a bad profile or parameter raise for a good state
_PROFILE_ERRORS = {
    "eval_sequence_empty": "profile sequence must be nonempty",
    "eval_sequence_not_iterable": "a profile sequence must be iterable, got PwFunction",
    "power_pairing_alpha_half": "power exponent must be finite and exceed 1, got 0.5",
    "pw_pairing_not_a_profile": "a profile must be a PwFunction, got str",
    "rep_eval_sequence_empty": "profile sequence must be nonempty",
    "rep_pairing_not_a_profile": "a profile must be a PwFunction, got str",
}
_BAD_STATES = {
    "not_psd": np.diag([1.0, -0.25]),
    "not_hermitian": np.array([[1.0, 0.5], [0.0, 1.0]]),
    "wrong_size": np.eye(3),
    "not_square": np.ones((2, 3)),
    "non_finite": np.array([[1.0, 0.0], [0.0, np.inf]]),
    "object_dtype": np.array([[1, 0], [0, 1]], dtype=object),
}


@pytest.mark.parametrize("state", _BAD_STATES, ids=list(_BAD_STATES))
@pytest.mark.parametrize("name", _STATE_OPS, ids=list(_STATE_OPS))
def test_a_bad_state_raises_after_the_pair(name, state):
    op = _STATE_OPS[name]
    rho = _BAD_STATES[state]
    good = np.diag([2.0, 1.0]), np.diag([1.0, 3.0])
    # a reused rep validates the state on its own, as every call did
    # before the state was folded into the pair's call
    kind, message = _error(lambda: pwcalc.build_rep(*good).pairing(pwcalc.parallel(), rho))
    assert _error(lambda: op(*good, rho)) == (kind, message)
    # a non-PSD a is reported first, and so is a failure of the pair that
    # build_rep finds after validating it
    bad_a = np.diag([1.0, -0.5]), good[1]
    assert _error(lambda: op(*bad_a, rho)) == _error(lambda: pwcalc.validate_psd(bad_a[0]))
    overflowing = np.diag([1e308, 1.0]), np.diag([1e308, 1.0])
    assert _error(lambda: op(*overflowing, rho)) == _error(
        lambda: pwcalc.build_rep(*overflowing))


@pytest.mark.parametrize("name", _PROFILE_ERRORS, ids=list(_PROFILE_ERRORS))
def test_a_bad_profile_raises_after_a_good_state(name):
    good = np.diag([2.0, 1.0]), np.diag([1.0, 3.0])
    assert _error(lambda: _STATE_OPS[name](*good, np.eye(2))) == (
        pwcalc.InputError, _PROFILE_ERRORS[name])


# one-shot operations without a state, each with a bad profile, parameter or
# vector, and what that raises for a good pair
_ARGUMENT_OPS = {
    "pw_eval": (lambda a, b: pwcalc.pw_eval(a, b, "parallel"),
                "a profile must be a PwFunction, got str"),
    "trace_functional": (lambda a, b: pwcalc.trace_functional(a, b, None),
                         "a profile must be a PwFunction, got NoneType"),
    "weighted_geometric_mean": (lambda a, b: pwcalc.weighted_geometric_mean(a, b, 2.0),
                                "geometric mean weight must lie in (0, 1), got 2.0"),
    "kubo_ando_form_unbounded": (
        lambda a, b: pwcalc.kubo_ando_form(a, b, pwcalc.entropy()),
        "profile 'entropy' is unbounded; the congruence form requires a bounded profile"),
    "kubo_ando_form_not_vanishing": (
        lambda a, b: pwcalc.kubo_ando_form(a, b, pwcalc.arithmetic()),
        "profile 'arith' must vanish on the ray x = 0"),
    "kubo_ando_form_not_a_profile": (lambda a, b: pwcalc.kubo_ando_form(a, b, "parallel"),
                                     "a profile must be a PwFunction, got str"),
    "rn_quadratic_form": (lambda a, b: pwcalc.rn_quadratic_form(a, b, np.ones(3)),
                          "expected a vector of length 2, got shape (3,)"),
}


@pytest.mark.parametrize("name", _ARGUMENT_OPS, ids=list(_ARGUMENT_OPS))
def test_a_bad_argument_raises_after_the_pair(name):
    op, message = _ARGUMENT_OPS[name]
    good = np.diag([2.0, 1.0]), np.diag([1.0, 3.0])
    assert _error(lambda: op(*good)) == (pwcalc.InputError, message)
    bad_a = np.diag([1.0, -1.0]), np.eye(2)
    assert _error(lambda: op(*bad_a)) == _error(lambda: pwcalc.validate_psd(bad_a[0]))


def test_kubo_ando_form_needs_a_definite_base_before_a_profile():
    singular = np.diag([1.0, 0.0]), np.eye(2)
    kind, message = _error(lambda: pwcalc.kubo_ando_form(*singular, pwcalc.entropy()))
    assert kind is pwcalc.InputError and message.startswith(
        "base matrix must be positive definite")


# the public operations that take a tol, and a valid value of every other
# parameter they take
_TOL_OPS = [name for name in pwcalc.__all__
            if inspect.isfunction(getattr(pwcalc, name))
            and "tol" in inspect.signature(getattr(pwcalc, name)).parameters]
_ARGUMENTS = {
    "a": np.diag([2.0, 1.0]), "b": np.diag([1.0, 3.0]), "m": np.eye(2),
    "rho": np.eye(2), "xi": np.ones(2), "alpha": 2.0, "fn": pwcalc.parallel(),
    "fns": [pwcalc.parallel()], "a1": np.eye(2), "b1": np.eye(2), "a2": np.eye(1),
    "b2": np.eye(1), "rho1": np.eye(2), "rho2": np.eye(1),
}
_OVERRIDES = {"weighted_geometric_mean": {"alpha": 0.5},
              "tensor_pairing_check": {"fn": pwcalc.power(2.0)}}


@pytest.mark.parametrize("name", _TOL_OPS)
def test_a_tol_that_is_no_tolerance_config_is_an_input_error(name):
    op = getattr(pwcalc, name)
    args = {p: _ARGUMENTS[p] for p in inspect.signature(op).parameters if p != "tol"}
    args.update(_OVERRIDES.get(name, {}))
    op(**args, tol=pwcalc.DEFAULT_TOL)
    assert _error(lambda: op(**args, tol=1e-8)) == (
        pwcalc.InputError, "tol must be a ToleranceConfig, got float")


def test_a_failing_extra_member_falls_back(monkeypatch):
    a, b = _fixture_pair("a3.json", "b3.json")
    rho = _rho3()
    want = pwcalc.pw_pairing(a, b, pwcalc.entropy(), rho)
    calls = []
    real = linalg._jacobi_eig

    def failing(*mats, **kwargs):
        calls.append(len(mats))
        if len(mats) > 2:
            raise linalg.NumericError("an extra member did not converge")
        return real(*mats, **kwargs)

    monkeypatch.setattr(linalg, "_jacobi_eig", failing)
    assert repr(pwcalc.pw_pairing(a, b, pwcalc.entropy(), rho)) == repr(want)
    # a and b validated in turn, then the sum, gram_a and the state on
    # their own
    assert calls == [4, 1, 1, 1, 1, 1]
    # a bad pair keeps its own error, not the size mismatch of the
    # fallback that validates in turn
    with pytest.raises(pwcalc.NotPsdError, match="eigenvalue -1.0"):
        pwcalc.build_rep(np.diag([1.0, -1.0, 1.0]), b)


def _unclamped_pairs(count):
    """Seeded pairs (n 1-8, real and complex, random ranks) on which PSD
    validation clamps nothing, so one decomposition per input must give
    the bits of the repeated ones."""
    rng = np.random.default_rng(7)
    pairs = []
    while len(pairs) < count:
        n = int(rng.integers(1, 9))
        a, b = rand_pair(rng, n, int(rng.integers(0, n + 1)),
                         int(rng.integers(0, n + 1)))
        if len(pairs) % 2:
            a, b = a.real, b.real
        if min(pwcalc.validate_psd(a)[1], pwcalc.validate_psd(b)[1]) >= 0.0:
            pairs.append((a, b))
    return pairs


def _ando_by_repeated_solves(a, b, tol=pwcalc.DEFAULT_TOL):
    # the composition that diagonalized a twice and b three times
    av, _ = pwcalc.validate_psd(a, tol)
    bv, _ = pwcalc.validate_psd(b, tol)
    n = av.shape[0]
    pa = pwcalc.support_projection(av, tol)
    g = (np.eye(n, dtype=np.complex128) - pa) @ pwcalc.psd_sqrt(bv, tol)
    dec = pwcalc.eig_hermitian(pwcalc.hermitize(g.conj().T @ g), tol)
    th = tol.support_threshold(n, pwcalc.hermitian_norm(bv))
    return pwcalc.hermitize(dec.apply(np.where(dec.eigenvalues <= th, 1.0, 0.0)))


@pytest.mark.parametrize("pair", _unclamped_pairs(20))
def test_one_decomposition_per_input_is_bit_exact(pair):
    a, b = pair
    ref = _ando_by_repeated_solves(a, b)
    assert pwcalc.solvable_subspace_projection(a, b).tobytes() == ref.tobytes()
    rho = np.eye(a.shape[0])
    # the old trace_functional validated a before build_rep validated it again
    rep = pwcalc.build_rep(pwcalc.validate_psd(a)[0], b)
    for fn in (pwcalc.entropy(), pwcalc.parallel(), pwcalc.power(2.0)):
        expected = rep.pairing(fn, rho).value
        assert repr(pwcalc.trace_functional(a, b, fn)) == repr(expected)


def _min_max_eigs(m):
    w = linalg._validated(m, pwcalc.DEFAULT_TOL)[1].eigenvalues
    return float(w[0]), float(w[-1])


@functools.cache
def _rounding_clamped_pairs(count):
    """Seeded pairs (n 2-24, real and complex, random ranks) on which PSD
    validation clamps a member, every clamp at or above minus the support
    threshold."""
    tol = pwcalc.DEFAULT_TOL
    rng = np.random.default_rng(11)
    pairs = []
    while len(pairs) < count:
        n = int(rng.integers(2, 25))
        a, b = rand_pair(rng, n, int(rng.integers(1, n)), int(rng.integers(1, n + 1)))
        if len(pairs) % 2:
            a, b = a.real, b.real
        eigs = [_min_max_eigs(a), _min_max_eigs(b)]
        if (min(lo for lo, _ in eigs) < 0.0
                and all(lo >= -tol.support_threshold(n, hi) for lo, hi in eigs)):
            pairs.append((a, b))
    return pairs


def test_a_rounding_clamp_keeps_the_folded_sum():
    # the sum of the Hermitian parts, solved in the validating call, stands
    # in for the sum of the clamped pair that build_rep of the clamped
    # members solves: the same classification, and the same parts to
    # rounding on the scale of the pair. Each value is read off the rep as
    # the public operation reads it: is_abs_continuous from split.zero,
    # is_mutually_singular from split.retained, lebesgue_decompose's
    # abs_part and parallel_sum from eval
    for a, b in _rounding_clamped_pairs(100):
        got = pwcalc.build_rep(a, b)
        want = pwcalc.build_rep(pwcalc.validate_psd(a)[0], pwcalc.validate_psd(b)[0])
        assert got.rank == want.rank
        assert got.split.zero.sum() == want.split.zero.sum()
        assert got.split.one.sum() == want.split.one.sum()
        assert got.split.zero.any() == want.split.zero.any()
        assert got.split.retained.any() == want.split.retained.any()
        scale = max(np.linalg.norm(a), np.linalg.norm(b))
        for fn in (pwcalc.abs_part(), pwcalc.parallel()):
            assert np.linalg.norm(got.eval(fn) - want.eval(fn)) <= 1e-13 * scale, fn.name


def _structural_counts(a, b, rep):
    """``(k0, k1)``: the rank of the pair's sum less the rank of ``a`` and
    of ``b``, each rank taken at the sum's support threshold."""
    tol = rep.tol
    cut = tol.support_threshold(rep.n, float(rep.sum_eigs[-1]) if rep.rank else 0.0)
    ranks = [int((linalg._validated(m, tol)[1].eigenvalues > cut).sum()) for m in (a, b)]
    return rep.rank - ranks[0], rep.rank - ranks[1]


def test_a_rounding_clamp_takes_no_third_call(monkeypatch):
    # the second call solves gram_a's retained block, and only a pair that
    # has one, such as a pair that is not mutually singular, makes it
    retained = 0
    for a, b in _rounding_clamped_pairs(100):
        rep = pwcalc.build_rep(a, b)
        k0, k1 = _structural_counts(a, b, rep)
        assert k0 >= 0 and k1 >= 0 and k0 + k1 <= rep.rank
        expected = [3, 1] if rep.rank > k0 + k1 else [3]
        retained += rep.rank > k0 + k1
        assert _kernel_calls(monkeypatch, pwcalc.build_rep, a, b) == expected
        monkeypatch.undo()
    assert 0 < retained < 100


def test_a_clamp_above_a_custom_support_tol_takes_the_third_call(monkeypatch):
    # support_tol = 1e-10 lies far above the rounding cutoff 2 * EPS of a,
    # so a's clamp of -5e-11, within psd_tol, is deeper than rounding. The
    # sum of the Hermitian parts would shift b's small retained eigenvalue
    # (about 2e-10) by that clamp and put gram_a outside [0, 1]; the sum of
    # the clamped pair is solved again, as build_rep of the clamped a does.
    # gram_a is not solved: the pair is mutually singular at the cut, so
    # its retained block is empty
    tol = pwcalc.ToleranceConfig(support_tol=1e-10)
    a = np.diag([1.0, -5e-11])
    w = np.array([10.0, 1.414e-4])
    b = np.outer(w, w)
    assert _kernel_calls(monkeypatch, pwcalc.build_rep, a, b, tol) == [3, 1]
    monkeypatch.undo()
    got = pwcalc.build_rep(a, b, tol)
    want = pwcalc.build_rep(pwcalc.validate_psd(a, tol)[0], b, tol)
    assert got.rank == want.rank == 2
    for fn in (pwcalc.abs_part(), pwcalc.parallel(), pwcalc.left()):
        assert got.eval(fn).tobytes() == want.eval(fn).tobytes(), fn.name


# The solves that the eigenbasis formulas replaced: Y Y* diagonalized for
# the projection, the root of W0* gram_b W0 for the singular part and the
# root of the ratio factor for the Kubo-Ando root.
def _projection_by_solve(rep):
    dec = pwcalc.eig_hermitian(
        pwcalc.hermitize(rep.contr_b @ rep.contr_b.conj().T), rep.tol)
    keep = np.arange(rep.n) < rep.n - int(rep.split.zero.sum())
    return pwcalc.hermitize(dec.apply(np.where(keep, 1.0, 0.0)))


def _singular_part_by_solve(rep):
    v0 = rep.gram_a_spec.basis[:, rep.split.zero]
    if v0.shape[1] == 0:
        return np.zeros((rep.n, rep.n), dtype=np.complex128)
    core = pwcalc.hermitize(v0.conj().T @ rep.gram_b @ v0)
    factor = pwcalc.psd_sqrt(core, rep.tol) @ v0.conj().T @ rep.coord_map
    return pwcalc.hermitize(factor.conj().T @ factor)


def _kubo_root_by_solve(rep, factor):
    return pwcalc.psd_sqrt(factor, rep.tol) @ rep.a_half


def _scaled_pairs(count, definite):
    """Seeded pairs, n 2-12, random ranks (``a`` definite if asked), real
    and complex, jointly scaled by 1e-6..1e6; yields ``(a, b, scale)``."""
    rng = np.random.default_rng(8)
    for k in range(count):
        n = int(rng.integers(2, 13))
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        rank_a = n if definite else int(rng.integers(0, n + 1))
        a, b = rand_pair(rng, n, rank_a, int(rng.integers(0, n + 1)), scale)
        if k % 2:
            a, b = a.real, b.real
        yield a, b, scale


# zero_tol = 0.3 classifies eigenvalues well inside (0, 1) as 0, where
# y0 = 1 - x0 is far from 1
@pytest.mark.parametrize("tol", [pwcalc.DEFAULT_TOL,
                                 pwcalc.ToleranceConfig(zero_tol=0.3)],
                         ids=["default", "zero_tol=0.3"])
def test_lebesgue_parts_match_the_solves_they_replace(tol):
    zero_dirs = 0
    for a, b, scale in _scaled_pairs(48, definite=False):
        rep = pwcalc.build_rep(a, b, tol)
        dec = pwcalc.lebesgue_decompose(a, b, tol)
        zero_dirs += dec.num_zero_eigs
        assert np.abs(dec.projection - _projection_by_solve(rep)).max() <= 1e-12
        assert (np.abs(dec.sing_part - _singular_part_by_solve(rep)).max()
                <= 1e-12 * scale)
        assert (pwcalc.abs_continuity_projection(a, b, tol).tobytes()
                == dec.projection.tobytes())
    assert zero_dirs > 0  # the pairs exercise the killed directions


@pytest.mark.parametrize("fn", [pwcalc.abs_part(), pwcalc.parallel(),
                                pwcalc.geometric(0.3)], ids=lambda fn: fn.name)
def test_kubo_root_matches_the_solve_it_replaced(fn):
    for a, b, _ in _scaled_pairs(40, definite=True):
        rep = pwcalc.build_rep(a, b)
        res = pwcalc.kubo_ando_form(a, b, fn)
        ref = _kubo_root_by_solve(rep, res.factor)
        assert (np.abs(res.root - ref).max()
                <= 1e-10 * np.linalg.norm(ref, 2))


def test_residual_is_relative_frobenius():
    tiny = 0
    for a, b, _ in _scaled_pairs(24, definite=True):
        n = a.shape[0]
        res = pwcalc.rn_factor(a, b)
        target = pwcalc.build_rep(a, b).eval(pwcalc.abs_part())
        err = res.value - target
        expected = linalg.frobenius(err) / max(linalg.frobenius(target), 1e-300)
        assert repr(res.residual) == repr(expected)
        # the spectral residual it replaced
        spectral = (pwcalc.hermitian_norm(err)
                    / max(pwcalc.hermitian_norm(target), 1e-300))
        assert spectral / math.sqrt(n) <= res.residual <= math.sqrt(n) * spectral
        tiny += 0.0 < res.residual < 1e-12
    assert tiny >= 20  # rounding-level, and not all exactly zero


def test_residual_sum_is_frobenius():
    moved = 0
    for a, b, _ in _scaled_pairs(24, definite=False):
        dec = pwcalc.lebesgue_decompose(a, b)
        gap = pwcalc.validate_psd(b)[0] - dec.abs_part - dec.sing_part
        assert repr(dec.residual_sum) == repr(linalg.frobenius(gap))
        moved += dec.residual_sum > 0.0
    assert moved >= 20  # rounding-level, and not all exactly zero


def _numpy_linalg_uses(tree):
    """``(line, name)`` of every ``numpy.linalg`` attribute a module reaches,
    through ``np.linalg.x``, ``from numpy import linalg`` or
    ``from numpy.linalg import x``."""
    numpy_names, linalg_names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy.linalg" and alias.asname:
                    linalg_names.add(alias.asname)
                elif alias.name in ("numpy", "numpy.linalg"):
                    numpy_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "numpy":
                linalg_names.update(alias.asname or alias.name
                                    for alias in node.names
                                    if alias.name == "linalg")
            elif node.module == "numpy.linalg":
                yield from ((node.lineno, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if ((isinstance(base, ast.Name) and base.id in linalg_names)
                or (isinstance(base, ast.Attribute) and base.attr == "linalg"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in numpy_names)):
            yield node.lineno, node.attr


def test_the_jacobi_kernel_is_the_only_eigensolver():
    # the tracer and test_solve_count count solves at linalg._jacobi_eig, and
    # the goldens rely on its determinism; numpy.linalg may only take norms
    uses = {path.name: list(_numpy_linalg_uses(ast.parse(path.read_text())))
            for path in sorted(SRC.glob("*.py"))}
    assert "norm" in {name for _, name in uses["linalg.py"]}
    found = [f"src/pwcalc/{file}:{line}: numpy.linalg.{name}"
             for file, hits in uses.items() for line, name in hits
             if name != "norm"]
    assert found == []


def _owners(tree):
    """Innermost enclosing function of every node inside a function."""
    owner = {}
    for func in ast.walk(tree):  # breadth first: inner functions come later
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner.update((node, getattr(func, "name", "<lambda>"))
                         for node in ast.walk(func))
    return owner


def _readers(tree, name):
    """Innermost enclosing function (None at module level) of every read
    or import of ``name``."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and node.name == name)):
            yield owner.get(node)


def test_only_the_kernel_entry_reads_the_round_plan():
    # every eigensolve enters through linalg._jacobi_eig, where the tracer
    # and test_solve_count see it; a solve that read the plan elsewhere
    # would bypass both
    readers = [(path.name, owner) for path in sorted(SRC.glob("*.py"))
               for owner in _readers(ast.parse(path.read_text()), "_round_plan")]
    assert readers == [("linalg.py", "_jacobi_eig")]


def test_the_round_plan_cache_holds_the_benchmark_mix(monkeypatch):
    # one seeded lib-medium cycle (seed 3 solves at the most sizes of seeds
    # 1-5), then one rep-sweep pair's build and first queries, in one
    # process: every plan built stays cached. The benchmark is imported as
    # it stands, with no bytecode written beside it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(TRACER.parent))
    workloads = importlib.import_module("workloads")
    gen = importlib.import_module("inputs").Gen
    linalg._round_plan.cache_clear()
    for name, seed, count in (("lib-medium", 3, None), ("rep-sweep", 1, 60)):
        for op in next(workloads.WORKLOADS[name](gen(np.random.default_rng(seed)), {}))[:count]:
            op.run()
    info = linalg._round_plan.cache_info()
    assert info.misses == info.currsize <= info.maxsize, info


def _loads(tree, name):
    """Innermost enclosing function (None at module level) of every load
    of ``name``, as a variable or an attribute; stores, such as a field
    declaration or the assignment that builds a value, are not reads."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)
                and name in (getattr(node, "id", None), getattr(node, "attr", None))):
            yield owner.get(node)


def test_only_build_rep_and_from_support_read_the_coordinate_map():
    # every calculus value, pairing weight and singular part reads the one
    # map eig_map = W* T; T itself serves from_support's arbitrary
    # support-side matrices, so a second push formula cannot come back
    readers = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
               for owner in _loads(ast.parse(path.read_text()), "coord_map")}
    assert readers == {("calculus.py", "_build_rep"),
                       ("calculus.py", "from_support")}


def _callers(tree, name):
    """Innermost enclosing function (None at module level) of every call
    of ``name``, as a variable or an attribute."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
            yield owner.get(node)


def test_one_function_takes_the_rank_decisions_at_the_cut():
    # the split's record is built, and the kernel bases pivoted, in one
    # function, and the sum's cut is read only where it is taken and there,
    # so a second rank decision at the cut cannot come back
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for name in ("SpectrumSplit", "_pivoted_columns"):
        callers = {(file, owner) for file, tree in trees.items()
                   for owner in _callers(tree, name)}
        assert callers == {("calculus.py", "_split_spectrum")}, name
    readers = {(file, owner) for file, tree in trees.items() for owner in _loads(tree, "cut")}
    assert readers == {("calculus.py", "_build_rep"), ("calculus.py", "_split_spectrum")}


def _raisers(tree, name):
    """Innermost enclosing function of every ``raise`` of the exception
    class ``name``, called or bare."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == name:
                yield owner.get(node)


def test_every_psd_verdict_is_taken_in_checked():
    # validate_psd, both members of a pair and a folded state are checked
    # by one function, so the verdict and its message cannot drift apart
    raisers = [(path.name, owner) for path in sorted(SRC.glob("*.py"))
               for owner in _raisers(ast.parse(path.read_text()), "NotPsdError")]
    assert raisers == [("linalg.py", "_checked")]


def _state_passers(tree):
    """Innermost enclosing function of every call of ``_validated_pair``
    that passes a state, as ``also=`` or as its sixth argument."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and "_validated_pair" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))
                and (len(node.args) > 4 or any(k.arg in ("also", None)
                                               for k in node.keywords))):
            yield owner.get(node)


def test_only_build_rep_folds_a_state_into_the_pair():
    # one path for the one-shot state: every pairing hands its state to
    # calculus._build_rep, which alone decides how it is validated
    callers = [(path.name, owner) for path in sorted(SRC.glob("*.py"))
               for owner in _state_passers(ast.parse(path.read_text()))]
    assert callers == [("calculus.py", "_build_rep")]


def _side_by_side_solvers(tree):
    """Innermost enclosing function of every call of ``_jacobi_eig`` with
    more than one positional argument or a starred one."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and "_jacobi_eig" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))
                and (len(node.args) > 1
                     or any(isinstance(arg, ast.Starred) for arg in node.args))):
            yield owner.get(node)


def test_only_the_pair_validation_solves_members_side_by_side():
    # one side-by-side call with one fallback: a failing call is recovered
    # by validating each member on its own, not by another shared call
    callers = [(path.name, owner) for path in sorted(SRC.glob("*.py"))
               for owner in _side_by_side_solvers(ast.parse(path.read_text()))]
    assert callers == [("linalg.py", "_validated_pair")]


def _eigenvector_reads(tree):
    """Innermost enclosing function of every use of ``gram_a_spec`` that
    can reach its eigenvectors: any use but ``.eigenvalues``, directly or
    through a local name bound to it."""
    owner = _owners(tree)
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    aliases = {(owner.get(node), target.id) for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Attribute)
               and node.value.attr == "gram_a_spec"
               for target in node.targets if isinstance(target, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if not ((isinstance(node, ast.Attribute) and node.attr == "gram_a_spec")
                or (isinstance(node, ast.Name)
                    and (owner.get(node), node.id) in aliases)):
            continue
        up = parent[node]
        if isinstance(up, ast.Attribute) and up.attr == "eigenvalues":
            continue
        if (isinstance(node, ast.Attribute) and isinstance(up, ast.Assign)
                and all(isinstance(t, ast.Name) for t in up.targets)):
            continue  # binds aliases, whose own uses are checked
        yield owner.get(node)


def test_only_the_transfer_step_reads_the_eigenvectors_of_gram_a():
    # Ando's projection and the derivative basis take their columns from
    # one place, PwRep._outer_basis, so a second copy cannot come back
    readers = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
               for owner in _eigenvector_reads(ast.parse(path.read_text()))}
    assert readers == {("calculus.py", "_outer_basis")}


def test_only_the_kernel_takes_the_plain_frobenius_norm():
    # the plain norm overflows above about 1e154 per entry and underflows
    # below about 1e-154; the kernel and its certificate take it at unit
    # scale themselves, every other caller takes safe_frobenius
    readers = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
               for owner in _readers(ast.parse(path.read_text()), "frobenius")}
    assert readers == {("linalg.py", "safe_frobenius"),
                       ("linalg.py", "_offdiag_norm"),
                       ("linalg.py", "_certified"),
                       ("linalg.py", "_jacobi_eig")}


def _profile_evaluations(tree):
    """Innermost enclosing function (None at module level) of every
    ``.values(...)`` call with more than one argument:
    ``PwFunction.values(x, zero_mask, one_mask)`` meets the split, while
    ``PwRep.values(fn)`` and ``dict.values()`` do not."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "values"
                and len(node.args) + len(node.keywords) > 1):
            yield owner.get(node)


def test_profiles_meet_the_split_only_in_pwrep_values():
    # one evaluator, so a change to how a profile reads the split is made once
    calls = [(path.name, owner) for path in sorted(SRC.glob("*.py"))
             for owner in _profile_evaluations(ast.parse(path.read_text()))]
    assert calls == [("calculus.py", "values")]


@pytest.mark.parametrize("op", [
    pwcalc.rn_factor,
    lambda a, b: pwcalc.kubo_ando_form(a, b, pwcalc.parallel()),
    lambda a, b: pwcalc.kubo_ando_form(a, b, pwcalc.geometric(0.3)),
], ids=["rn_factor", "kubo_parallel", "kubo_geom"])
def test_kubo_ando_evaluates_its_profile_once(monkeypatch, op):
    calls = []
    real = pwcalc.PwFunction.values

    def counting(fn, *args):
        calls.append(fn.name)
        return real(fn, *args)

    monkeypatch.setattr(pwcalc.PwFunction, "values", counting)
    op(*_fixture_pair("a2pd.json", "b2sing.json"))
    assert len(calls) == 1, calls
