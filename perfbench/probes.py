"""Fixed-input measurements made by every traced run.

The solve table counts eigensolves and bit-identical repeats for each
public operation at n = 6 on fixed inputs, so the counts repeat exactly
from run to run. The kernel sweep times single Jacobi solves at the sizes
the kernel's performance targets are stated for.
"""

import statistics
import time

import numpy as np

import pwcalc.linalg
from inputs import Gen
from tracer import Tracer
from workloads import lib_op, tensor_op

TABLE_SEED = 20240811
TABLE_N = 6
TABLE_OPS = (
    ("build_rep", "a_def"), ("lebesgue_decompose", "a_def"),
    ("rn_factor", "full"), ("kubo_ando_form", "full"),
    ("is_abs_continuous", "a_def"), ("pw_eval", "a_def"),
    ("pw_pairing", "full"), ("eval_sequence", "full"),
    ("abs_cont_part", "a_def"), ("abs_continuity_projection", "a_def"),
    ("solvable_subspace_projection", "a_def"),
    ("is_mutually_singular", "singular"), ("parallel_sum", "full"),
    ("parallel_sum_expressions", "full"), ("parallel_sum_limit", "a_def"),
    ("weighted_geometric_mean", "full"), ("power_pairing", "full"),
    ("entropy_pairing", "full"), ("trace_functional", "full"),
    ("rn_quadratic_form", "full"),
)

SWEEP = ((4, 31), (16, 9), (64, 1), (128, 1))   # (n, timed solves)


def solve_table():
    """{operation: (solves, repeats)}, and the checks that failed."""
    g = Gen(np.random.default_rng(TABLE_SEED))
    ops = [lib_op(g, name, kind, TABLE_N) for name, kind in TABLE_OPS]
    ops.append(tensor_op(g, ("full", "full"), (3, 4), "power"))
    table, failures = {}, []
    for op in ops:
        with Tracer() as tr:
            tr.active = True
            result = op.run()
            tr.active = False
        table[op.name] = (tr.solves, tr.repeats)
        why = op.check(result)
        if why:
            failures.append(f"solve table {op.name}: {why}")
    return table, failures


def kernel_sweep():
    """{n: median ms per solve}, and the solves that came out wrong."""
    rng = np.random.default_rng(TABLE_SEED)
    out, failures = {}, []
    for n, reps in SWEEP:
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        m = 0.5 * (g + g.conj().T)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            vals, vecs = pwcalc.linalg._jacobi_eig(m)
            times.append(time.perf_counter() - t0)
        ref = np.linalg.eigvalsh(m)
        resid = np.max(np.abs(vecs @ np.diag(vals) @ vecs.conj().T - m))
        scale = np.max(np.abs(ref))
        if np.max(np.abs(vals - ref)) > 1e-10 * scale or resid > 1e-10 * scale:
            failures.append(f"kernel sweep n={n}: eigenpairs disagree with LAPACK")
        out[n] = statistics.median(times) * 1e3
    return out, failures
