"""Package surface and eigensolve budget of the shared representation."""

import types
from pathlib import Path

import pytest

import pwcalc
from pwcalc import linalg
from pwcalc.fileio import load_matrix, load_vector

FIXTURES = Path(__file__).parent / "fixtures"


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


def _fixture_pair(a, b):
    return load_matrix(str(FIXTURES / a)), load_matrix(str(FIXTURES / b))


# Jacobi solves per operation. A change here adds or removes an eigensolve
# and should be deliberate.
SOLVES = [
    ("build_rep", "a3.json", "b3.json", lambda a, b: pwcalc.build_rep(a, b), 4),
    ("lebesgue_decompose", "a3.json", "b3.json", pwcalc.lebesgue_decompose, 7),
    ("build_rep", "a2pd.json", "b2sing.json",
     lambda a, b: pwcalc.build_rep(a, b), 4),
    ("lebesgue_decompose", "a2pd.json", "b2sing.json",
     pwcalc.lebesgue_decompose, 6),
    ("rn_factor", "a2pd.json", "b2sing.json", pwcalc.rn_factor, 8),
    ("kubo_ando_form", "a2pd.json", "b2sing.json",
     lambda a, b: pwcalc.kubo_ando_form(a, b, pwcalc.parallel()), 8),
    ("rn_quadratic_form", "a2pd.json", "b2sing.json",
     lambda a, b: pwcalc.rn_quadratic_form(
         a, b, load_vector(str(FIXTURES / "xi2.json"))), 5),
]


@pytest.mark.parametrize("name,fa,fb,op,expected", SOLVES,
                         ids=[f"{s[0]}-{s[1][:-5]}" for s in SOLVES])
def test_solve_count(monkeypatch, name, fa, fb, op, expected):
    a, b = _fixture_pair(fa, fb)
    calls = []
    real = linalg._jacobi_eig

    def counting(m):
        calls.append(m.shape[0])
        return real(m)

    monkeypatch.setattr(linalg, "_jacobi_eig", counting)
    op(a, b)
    assert len(calls) == expected, f"{name}: {len(calls)} solves"
