"""The four workloads: seeded operations on pwcalc and their output checks.

A workload is an endless sequence of batches; a batch is a list of
``Op``. The runner times ``op.run()`` and, outside the timed interval,
calls ``op.check(result)``, which returns None when the output is correct
and a reason otherwise. Each batch is a fixed cycle of operation templates
(operation, pair kind, n); the seed draws the matrix entries, real or
complex entries, and the joint scale. Keeping the template order fixed
means two seeds run the same mix, so the timings compare across seeds.
"""

import contextlib
import io
import itertools
import json
import math
import os

import numpy as np

import pwcalc as pw
import pwcalc.cli
import oracles as O
from inputs import write_array


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


# ---------------------------------------------------------------- checks

def _err(x, ref):
    x, ref = np.asarray(x), np.asarray(ref)
    if x.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(x - ref))) if x.size else 0.0


def want(x, ref, scale, what):
    if O.close(x, ref, scale):
        return None
    return f"{what} off by {_err(x, ref):.3e} at scale {scale:.3e}"


def want_scalar(x, ref, scale, what):
    if O.close_scalar(float(x), float(ref), scale):
        return None
    return f"{what} = {x!r}, oracle {ref!r}"


def first(*reasons):
    return next((r for r in reasons if r), None)


def check_parallel(a, b, s, value):
    return want(value, O.anderson_duffin(a, b), s, "parallel sum")


def check_lebesgue(a, b, s, abs_part, sing_part, projection):
    bac = O.abs_cont_part(a, b)
    return first(
        want(abs_part, bac, s, "B_ac"),
        want(abs_part + sing_part, b, s, "B_ac + B_sing - B"),
        None if O.psd_ok(abs_part, s) else "B_ac not PSD",
        None if O.psd_ok(sing_part, s) else "B_sing not PSD",
        check_projection(a, b, s, projection))


def check_projection(a, b, s, p):
    bh = O.sqrtm(b)
    return first(want(p @ p, p, 1.0, "P^2 - P"),
                 want(bh @ p @ bh, O.abs_cont_part(a, b), s, "b^1/2 P b^1/2"))


def check_limit(a, b, s, value, gaps):
    # the doubling limit stops on an absolute Frobenius gap (conv_tol), and
    # the iterates approach the limit at ratio 1/2, so the distance left is
    # about the last gap
    slack = O.RTOL * s + 2.0 * (gaps[-1] if gaps else 0.0)
    err = _err(value, O.abs_cont_part(a, b))
    return None if err <= slack else f"limit off by {err:.3e}, allowed {slack:.3e}"


def check_rep(a, b, s, rank, sum_eigs, gram_a, gram_b):
    want_rank = O.rank(a + b)
    if rank != want_rank:
        return f"rank {rank}, oracle {want_rank}"
    lam = np.linalg.eigvalsh(a + b)[a.shape[0] - rank:]
    return first(want(np.asarray(sum_eigs), lam, s, "sum eigenvalues"),
                 want(gram_a + gram_b, np.eye(rank), 1.0, "gram_a + gram_b - I"))


def check_pairing(a, b, s, fn, rho, value, alpha=None):
    ref = O.pairing(a, b, fn, rho, alpha)
    return want_scalar(value, ref, max(s, abs(ref) if math.isfinite(ref) else 0.0),
                       f"{fn.name} pairing")


def check_rn(a, b, s, factor, root, value):
    ahi = np.linalg.inv(O.sqrtm(a))
    h = ahi @ b @ ahi
    return first(want(value, O.abs_cont_part(a, b), s, "Z* Z"),
                 want(factor, h, max(1.0, O.norm(h)), "ratio factor"),
                 want(root.conj().T @ root, value, s, "root* root - value"))


def check_form(a, b, xi, value):
    ahi = np.linalg.inv(O.sqrtm(a))
    h = ahi @ b @ ahi
    ref = float(np.real(xi.conj() @ h @ xi))
    return want_scalar(value, ref, max(1.0, O.norm(h)), "quadratic form")


def check_tensor(pairs, rhos, lhs, rhs, consistent):
    (a1, b1, s1), (a2, b2, s2) = pairs
    if not consistent:
        return "+inf on one side of the tensor identity only"
    inf = O.pairing_is_infinite(np.kron(a1, a2), np.kron(b1, b2),
                                np.kron(rhos[0], rhos[1]))
    if math.isinf(lhs) != inf:
        return f"lhs {lhs!r}, oracle infinite={inf}"
    if math.isfinite(lhs):
        return want_scalar(lhs, rhs, max(s1 * s2, abs(rhs)), "tensor lhs - rhs")
    return None


def expect_error(kind):
    def check(r):
        if isinstance(r, kind):
            return None
        return f"expected {kind.__name__}, got {type(r).__name__}"
    return check


def fails(check):
    """Wrap a result check so that an exception result is a failure."""
    def wrapped(r):
        if isinstance(r, BaseException):
            return f"raised {type(r).__name__}: {r}"
        return check(r)
    return wrapped


# ------------------------------------------------- one-shot library ops

def lib_op(g, name, kind, n):
    """One in-process call of a public pwcalc operation on a fresh pair."""
    real = g.real()
    a, b, s = g.pair(kind, n, real)
    rho = g.state(n, real)
    if name == "build_rep":
        def run():
            return pw.build_rep(a, b)

        def check(r):
            return check_rep(a, b, s, r.rank, r.sum_eigs, r.gram_a, r.gram_b)
    elif name == "pw_eval":
        def run():
            return pw.pw_eval(a, b, pw.parallel())

        def check(r):
            return check_parallel(a, b, s, r)
    elif name == "rep_eval":
        alpha = float(g.rng.uniform(0.1, 0.9))

        def run():
            return pw.build_rep(a, b).eval(pw.geometric(alpha))

        def check(r):
            if kind == "full":
                return want(r, O.geometric_mean(a, b, alpha), s, "geometric mean")
            return want(r, O.PairOracle(a, b).eval(pw.geometric(alpha)), s,
                        "geometric mean")
    elif name == "pw_pairing":
        def run():
            return pw.pw_pairing(a, b, pw.power(2.0), rho)

        def check(r):
            return check_pairing(a, b, s, pw.power(2.0), rho, r, 2.0)
    elif name == "eval_sequence":
        fns = [pw.scaled_parallel(2.0 ** k) for k in range(6)]

        def run():
            return pw.eval_sequence(a, b, fns, rho)

        def check(r):
            return first(*(check_pairing(a, b, s, fn, rho, v)
                           for fn, v in zip(fns, r.values)))
    elif name == "lebesgue_decompose":
        def run():
            return pw.lebesgue_decompose(a, b)

        def check(r):
            return check_lebesgue(a, b, s, r.abs_part, r.sing_part, r.projection)
    elif name == "abs_cont_part":
        def run():
            return pw.abs_cont_part(a, b)

        def check(r):
            return want(r, O.abs_cont_part(a, b), s, "B_ac")
    elif name in ("abs_continuity_projection", "solvable_subspace_projection"):
        def run():
            return getattr(pw, name)(a, b)

        def check(r):
            return check_projection(a, b, s, r)
    elif name == "is_mutually_singular":
        def run():
            return pw.is_mutually_singular(a, b)

        def check(r):
            ref = O.is_singular(a, b)
            return None if r.is_singular == ref else f"singular={r.is_singular}"
    elif name == "is_abs_continuous":
        def run():
            return pw.is_abs_continuous(a, b)

        def check(r):
            ref = O.is_abs_continuous(a, b)
            return None if r == ref else f"abs_continuous={r}"
    elif name == "parallel_sum":
        def run():
            return pw.parallel_sum(a, b)

        def check(r):
            return check_parallel(a, b, s, r)
    elif name == "parallel_sum_expressions":
        def run():
            return pw.parallel_sum_expressions(a, b)

        def check(r):
            return first(*(check_parallel(a, b, s, r[k]) for k in sorted(r)))
    elif name == "parallel_sum_limit":
        def run():
            return pw.parallel_sum_limit(a, b)

        def check(r):
            return check_limit(a, b, s, r.value, r.gaps)
    elif name == "weighted_geometric_mean":
        alpha = float(g.rng.uniform(0.1, 0.9))

        def run():
            return pw.weighted_geometric_mean(a, b, alpha)

        def check(r):
            return want(r, O.geometric_mean(a, b, alpha), s, "geometric mean")
    elif name in ("power_pairing", "entropy_pairing"):
        alpha = float(g.rng.uniform(1.5, 3.0))
        if name == "power_pairing":
            fn = pw.power(alpha)
        else:
            fn, alpha = pw.entropy(), None

        def run():
            if name == "power_pairing":
                return pw.power_pairing(a, b, alpha, rho)
            return pw.entropy_pairing(a, b, rho)

        def check(r):
            return check_pairing(a, b, s, fn, rho, r.value, alpha)
    elif name == "trace_functional":
        def run():
            return pw.trace_functional(a, b, pw.arithmetic())

        def check(r):
            return want_scalar(r, float(np.real(np.trace(a + b))), s, "trace")
    elif name == "rn_factor":
        def run():
            return pw.rn_factor(a, b)

        def check(r):
            return check_rn(a, b, s, r.factor, r.root, r.value)
    elif name == "kubo_ando_form":
        def run():
            return pw.kubo_ando_form(a, b, pw.parallel())

        def check(r):
            return check_parallel(a, b, s, r.value)
    elif name == "rn_quadratic_form":
        xi = g.vector(n, real)

        def run():
            return pw.rn_quadratic_form(a, b, xi)

        def check(r):
            return check_form(a, b, xi, r)
    # documented typed errors
    elif name == "eval_inf":
        def run():
            return pw.pw_eval(a, b, pw.entropy())
        return Op(name, run, expect_error(pw.ExtendedValueError))
    elif name == "rn_singular_base":
        def run():
            return pw.rn_factor(a, b)
        return Op(name, run, expect_error(pw.InputError))
    elif name == "not_psd":
        neg = g.not_psd(n, real)

        def run():
            return pw.parallel_sum(neg, b)
        return Op(name, run, expect_error(pw.NotPsdError))
    else:
        raise ValueError(f"unknown operation {name!r}")
    return Op(name, run, fails(check))


def tensor_pairs(g, kinds, dims, real):
    """Factor pairs at scale sqrt(s) each, so the Kronecker pair the
    identity is checked on has the joint scale s of every other input."""
    root = math.sqrt(g.scale())
    return [g.pair(k, d, real, scale=root) for k, d in zip(kinds, dims)]


def tensor_op(g, kinds, dims, profile):
    real = g.real()
    pairs = tensor_pairs(g, kinds, dims, real)
    rhos = [g.state(d, real) for d in dims]
    fn = pw.power(2.0) if profile == "power" else pw.entropy()
    (a1, b1, _), (a2, b2, _) = pairs

    def run():
        return pw.tensor_pairing_check(a1, b1, a2, b2, rhos[0], rhos[1], fn)

    def check(r):
        return check_tensor(pairs, rhos, r.lhs, r.rhs, r.infinity_consistent)
    return Op("tensor_pairing_check", run, fails(check))


def _cycle(templates):
    def batches(g, ctx):
        while True:
            yield [tensor_op(g, *t[1:]) if t[0] == "tensor" else lib_op(g, *t)
                   for t in templates]
    return batches


LIB_SMALL = [
    ("build_rep", "full", 3), ("lebesgue_decompose", "a_def", 6),
    ("pw_eval", "a_def", 5), ("rep_eval", "full", 4),
    ("pw_pairing", "b_def", 4), ("eval_sequence", "a_def", 5),
    ("abs_cont_part", "a_def", 5), ("abs_continuity_projection", "a_def", 4),
    ("solvable_subspace_projection", "singular", 6),
    ("is_mutually_singular", "singular", 5), ("is_abs_continuous", "ac", 6),
    ("parallel_sum", "full", 8), ("parallel_sum_expressions", "full", 4),
    ("parallel_sum_limit", "a_def", 5), ("weighted_geometric_mean", "full", 6),
    ("power_pairing", "b_def", 6), ("entropy_pairing", "full", 5),
    ("trace_functional", "a_def", 7), ("tensor", ("full", "full"), (2, 3), "power"),
    ("rn_factor", "b_def", 5), ("kubo_ando_form", "full", 6),
    ("rn_quadratic_form", "full", 4), ("eval_inf", "b_def", 4),
    ("build_rep", "singular", 7), ("lebesgue_decompose", "singular", 4),
    ("lebesgue_decompose", "ac", 7), ("lebesgue_decompose", "a_zero", 3),
    ("is_mutually_singular", "full", 3), ("is_abs_continuous", "a_def", 4),
    ("parallel_sum", "b_zero", 2), ("power_pairing", "full", 3),
    ("entropy_pairing", "singular", 4), ("tensor", ("full", "b_def"), (2, 4), "entropy"),
    ("rn_factor", "full", 8), ("rn_singular_base", "a_def", 5), ("not_psd", "full", 3),
]

# Three cost classes, so that p50 and the p85 tail each fall inside a block
# of templates of about equal cost instead of between two templates whose
# order shifts with the host's speed: five cheaper calls at n = 16; six
# calls of 8-9 solves at n = 20, holding the median; five of 11-13 solves at
# n = 22-24 and one at n = 32, holding the tail.
LIB_MEDIUM = [
    ("entropy_pairing", "full", 16), ("rep_eval", "full", 20),
    ("rn_factor", "b_def", 22), ("tensor", ("full", "b_def"), (4, 4), "entropy"),
    ("parallel_sum_limit", "a_def", 20), ("lebesgue_decompose", "a_def", 24),
    ("power_pairing", "b_def", 16), ("rep_eval", "b_def", 20),
    ("rn_factor", "full", 22), ("lebesgue_decompose", "ac", 16),
    ("parallel_sum_limit", "ac", 20), ("lebesgue_decompose", "singular", 24),
    ("kubo_ando_form", "full", 16), ("power_pairing", "full", 20),
    ("entropy_pairing", "singular", 20), ("parallel_sum_limit", "full", 32),
]


# --------------------------------------------------------- rep reuse

REP_N = 24
REP_KINDS = ("full", "a_def", "b_def", "singular", "a_zero")
REP_EVALS_PER_SOLVE_QUERY = 4
REP_SOLVE_QUERIES = 50


def rep_sweep(g, ctx):
    """One ``build_rep`` per pair at n = 24, then 200 bounded-profile
    ``eval`` queries over a parameter grid and 50 queries that validate a
    state or matrix (pairings and ``eval_sequence`` against a pool of three
    states, ``to_support`` against a pool of two matrices)."""
    eval_fns = ([pw.geometric(k / 10.0) for k in range(1, 10)]
                + [pw.scaled_parallel(2.0 ** k) for k in range(-3, 4)]
                + [pw.parallel(), pw.abs_part(), pw.arithmetic(), pw.left(),
                   pw.right()]
                + [pw.rn_cutoff(2.0 ** k) for k in range(1, 5)])
    pair_fns = [(pw.power(1.5), 1.5), (pw.power(2.0), 2.0), (pw.power(3.0), 3.0),
                (pw.entropy(), None), (pw.parallel(), None),
                (pw.geometric(0.5), None)]
    seq_fns = [pw.scaled_parallel(2.0 ** k) for k in range(8)]
    for i in itertools.count():
        kind = REP_KINDS[i % len(REP_KINDS)]
        real = g.real()
        a, b, s = g.pair(kind, REP_N, real)
        states = [g.state(REP_N, real) for _ in range(3)]
        doms = [g.dominated(a + b) for _ in range(2)]
        held = {}
        oracle = {}

        def rep_oracle(a=a, b=b, oracle=oracle):
            if "o" not in oracle:
                oracle["o"] = O.PairOracle(a, b)
            return oracle["o"]

        def build(a=a, b=b, held=held):
            held["rep"] = pw.build_rep(a, b)
            return held["rep"]

        def check_build(r, a=a, b=b, s=s):
            t = r.coord_map
            return first(check_rep(a, b, s, r.rank, r.sum_eigs, r.gram_a, r.gram_b),
                         want(t.conj().T @ t, a + b, s, "T* T - (a + b)"))

        ops = [Op("build_rep", build, fails(check_build))]
        evals = itertools.cycle(eval_fns)
        for j in range(REP_SOLVE_QUERIES):
            for _ in range(REP_EVALS_PER_SOLVE_QUERY):
                ops.append(_rep_eval(held, next(evals), rep_oracle, s))
            rho = states[j % 3]
            slot = j % 10
            if slot < 8:
                fn, alpha = pair_fns[j % len(pair_fns)]
                ops.append(_rep_pairing(held, fn, alpha, rho, a, b, s))
            elif slot == 8:
                ops.append(_rep_sequence(held, seq_fns, rho, a, b, s))
            else:
                ops.append(_rep_to_support(held, doms[j % 2], s))
        yield ops


def _rep_eval(held, fn, rep_oracle, s):
    def run():
        return held["rep"].eval(fn)

    def check(r):
        return want(r, rep_oracle().eval(fn), s, f"eval {fn.name}")
    return Op("eval", run, fails(check))


def _rep_pairing(held, fn, alpha, rho, a, b, s):
    def run():
        return held["rep"].pairing(fn, rho)

    def check(r):
        return check_pairing(a, b, s, fn, rho, r.value, alpha)
    return Op("pairing", run, fails(check))


def _rep_sequence(held, fns, rho, a, b, s):
    def run():
        return held["rep"].eval_sequence(fns, rho)

    def check(r):
        return first(*(check_pairing(a, b, s, fn, rho, v)
                       for fn, v in zip(fns, r.values)))
    return Op("eval_sequence", run, fails(check))


def _rep_to_support(held, c, s):
    def run():
        return held["rep"].to_support(c)

    def check(r):
        # the support-side basis is the library's own; build_rep's check
        # confirms T* T = a + b for that basis
        t = held["rep"].coord_map
        return first(want(t.conj().T @ r @ t, c, s, "T* ct T - c"),
                     None if O.psd_ok(r, 1.0) else "support-side matrix not PSD")
    return Op("to_support", run, fails(check))


# --------------------------------------------------------------- CLI

def _scalar(x):
    return math.inf if x == "+inf" else float(x)


def _mat(payload):
    return np.array(payload["re"]) + 1j * np.array(payload["im"])


CLI_TEMPLATES = [
    # (subcommand, pair kind, n, extra flags, expected exit code)
    ("rep", "full", 3, (), 0),
    ("eval", "a_def", 4, ("--phi", "parallel"), 0),
    ("lebesgue", "a_def", 5, (), 0),
    ("psum", "full", 6, (), 0),
    ("psum-limit", "a_def", 3, (), 0),
    ("singular", "singular", 4, (), 0),
    ("abscont", "ac", 5, (), 0),
    ("rn", "b_def", 4, (), 0),
    ("kubo", "full", 3, ("--phi", "parallel"), 0),
    ("pair", "b_def", 5, ("--phi", "power:2"), 0),
    ("trace", "full", 2, ("--phi", "arith"), 0),
    ("tensor-check", "full", 2, ("--phi", "power:2"), 0),
    ("form-p", "full", 4, (), 0),
    ("eval", "b_def", 3, ("--phi", "entropy"), 4),
    ("psum", "not_psd", 3, (), 3),
    ("lebesgue", "malformed", 2, (), 2),
]


def cli_small(g, ctx):
    """Seeded matrix files for every subcommand, rewritten each cycle."""
    work = ctx["work"]
    for _ in itertools.count():
        ops = []
        for idx, (sub, kind, n, extra, code) in enumerate(CLI_TEMPLATES):
            ops.append(_cli_op(g, ctx, os.path.join(work, f"t{idx:02d}"),
                               sub, kind, n, list(extra), code))
        yield ops


def _cli_op(g, ctx, stem, sub, kind, n, argv, code):
    real = g.real()
    files = {}

    def put(flag, m):
        path = f"{stem}_{flag}.json"
        write_array(path, m)
        argv.extend([f"--{flag}", path])
        files[flag] = m

    if kind == "not_psd":
        neg = g.not_psd(n, real)
        _, b, s = g.pair("full", n, real)
        put("a", neg)
        put("b", b)
    elif kind == "malformed":
        path = f"{stem}_a.json"
        with open(path, "w") as fh:
            fh.write('{"n": 2, "re": [[1, 0], [0, 1]')
        argv.extend(["--a", path])
        _, b, s = g.pair("full", n, real)
        put("b", b)
    elif sub == "tensor-check":
        (a, b, s), (a2, b2, files["s2"]) = tensor_pairs(g, (kind, kind), (n, n + 1), real)
        put("a", a)
        put("b", b)
        put("rho", g.state(n, real))
        put("a2", a2)
        put("b2", b2)
        put("rho2", g.state(n + 1, real))
    else:
        a, b, s = g.pair(kind, n, real)
        put("a", a)
        put("b", b)
        if sub == "pair":
            put("rho", g.state(n, real))
        if sub == "form-p":
            put("xi", g.vector(n, real))
    argv = [sub] + argv

    def check(r):
        exit_code, out = r
        if exit_code != code:
            return f"exit {exit_code}, expected {code}"
        report = json.loads(out)
        if code:
            return None if report["status"] == "error" else "status not error"
        if report["status"] not in ("ok", "warning"):
            return f"status {report['status']}"
        return _check_cli_outputs(sub, files, s, report["outputs"])

    return Op(sub if code == 0 else f"{sub}-exit{code}",
              lambda: ctx["call"](argv), fails(check))


def _check_cli_outputs(sub, f, s, out):
    a, b = f["a"], f["b"]
    if sub == "rep":
        return check_rep(a, b, s, out["rank"], out["sum_eigs"],
                         _mat(out["gram_a"]), _mat(out["gram_b"]))
    if sub in ("eval", "psum", "kubo"):
        return check_parallel(a, b, s, _mat(out["value"]))
    if sub == "lebesgue":
        return check_lebesgue(a, b, s, _mat(out["abs_part"]),
                              _mat(out["sing_part"]), _mat(out["projection"]))
    if sub == "psum-limit":
        return check_limit(a, b, s, _mat(out["value"]), out["gaps"])
    if sub == "singular":
        return None if out["is_singular"] == O.is_singular(a, b) else "is_singular"
    if sub == "abscont":
        ok = out["is_abs_continuous"] == O.is_abs_continuous(a, b)
        return None if ok else "is_abs_continuous"
    if sub == "rn":
        return check_rn(a, b, s, _mat(out["factor"]), _mat(out["root"]),
                        _mat(out["value"]))
    if sub == "pair":
        return check_pairing(a, b, s, pw.power(2.0), f["rho"], _scalar(out["value"]),
                             2.0)
    if sub == "trace":
        return want_scalar(_scalar(out["value"]), float(np.real(np.trace(a + b))),
                           s, "trace")
    if sub == "tensor-check":
        pairs = [(a, b, s), (f["a2"], f["b2"], f["s2"])]
        return check_tensor(pairs, (f["rho"], f["rho2"]), _scalar(out["lhs"]),
                            _scalar(out["rhs"]), out["infinity_consistent"])
    if sub == "form-p":
        return check_form(a, b, f["xi"], _scalar(out["value"]))
    raise ValueError(f"no check for subcommand {sub!r}")


def inprocess_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pw.cli.main(argv)
    return code, buf.getvalue().encode()


WORKLOADS = {
    "cli-small": cli_small,
    "lib-small": _cycle(LIB_SMALL),
    "lib-medium": _cycle(LIB_MEDIUM),
    "rep-sweep": rep_sweep,
}

# tail percentile per workload: the highest that keeps at least ten samples
# beyond it in a 35 s run on a slow host, and, on rep-sweep, one that falls
# inside the state-validation queries (the top ~20% of latencies), away from
# the boundaries with the eval queries below and the build_rep/to_support
# calls above
TAIL_PERCENTILE = {"cli-small": 90, "lib-small": 99, "lib-medium": 85,
                   "rep-sweep": 90}

# share of operations rerun to check byte-identical results
RERUN_SHARE = {"cli-small": 1 / 16, "lib-small": 1 / 16, "lib-medium": 1 / 20,
               "rep-sweep": 1 / 50}
