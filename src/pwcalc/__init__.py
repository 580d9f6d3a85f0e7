"""Functional calculus and Lebesgue decomposition for PSD matrix pairs.

The library evaluates homogeneous binary functions of two positive
semidefinite matrices by transporting the pair to a commuting pair on
the support of their sum. On top of that single mechanism it provides
the Lebesgue decomposition of one positive matrix relative to another,
parallel sums and their doubling limits, weighted geometric means,
power and entropy pairings with extended (+inf) values, and
derivative-style factorizations over a positive definite base.

Entry points: :func:`build_rep` for the reusable pair representation,
:func:`pw_eval` / :func:`pw_pairing` for one-shot use, and the module
functions re-exported below. The ``pwcalc`` command line wraps the same
operations with JSON matrix files and deterministic reports.

``import pwcalc`` loads neither numpy nor any submodule: the first access
to a public name (or ``dir(pwcalc)``) imports every module and binds all
of ``__all__`` at once, so the command line pays only for the code its
subcommand runs.
"""

__version__ = "0.1.0"


def _bind_exports():
    # the one list of exports; the package __getattr__ runs it
    from .calculus import (PairingResult, PwRep, SequenceResult, SpectrumSplit,
                           build_rep, eval_sequence, pw_eval, pw_pairing)
    from .config import DEFAULT_TOL, ToleranceConfig
    from .errors import (DominationError, ExtendedValueError, InputError,
                         NotPsdError, NumericError, PwCalcError)
    from .functions import (PwFunction, abs_part, arithmetic, entropy,
                            geometric, left, named_function, parallel, power,
                            right, rn_cutoff, scaled_parallel)
    from .lebesgue import (LebesgueDecomposition, ParallelSumLimit,
                           SingularityCheck, abs_cont_part,
                           abs_continuity_projection, is_abs_continuous,
                           is_mutually_singular, lebesgue_decompose,
                           parallel_sum, parallel_sum_expressions,
                           parallel_sum_limit, solvable_subspace_projection)
    from .linalg import (SpectralDecomposition, eig_hermitian,
                         hermitian_norm, hermitian_part, hermitize, kron,
                         polar_isometry, psd_sqrt, support_projection,
                         validate_psd)
    from .means import (TensorCheck, entropy_pairing, power_pairing,
                        tensor_pairing_check, trace_functional,
                        weighted_geometric_mean)
    from .radon_nikodym import (RnFactorization, kubo_ando_form, rn_factor,
                                rn_quadratic_form)
    globals().update(locals())


__all__ = [
    "DEFAULT_TOL", "DominationError", "ExtendedValueError", "InputError",
    "LebesgueDecomposition", "NotPsdError", "NumericError", "PairingResult",
    "ParallelSumLimit", "PwCalcError", "PwFunction", "PwRep",
    "RnFactorization", "SequenceResult", "SingularityCheck",
    "SpectralDecomposition", "SpectrumSplit", "TensorCheck",
    "ToleranceConfig", "abs_cont_part", "abs_continuity_projection",
    "abs_part", "arithmetic", "build_rep", "eig_hermitian", "entropy",
    "entropy_pairing", "eval_sequence", "geometric", "hermitian_norm",
    "hermitian_part", "hermitize", "is_abs_continuous",
    "is_mutually_singular", "kron", "kubo_ando_form", "lebesgue_decompose",
    "left", "named_function", "parallel", "parallel_sum",
    "parallel_sum_expressions", "parallel_sum_limit",
    "polar_isometry", "power", "power_pairing", "psd_sqrt", "pw_eval",
    "pw_pairing", "right", "rn_cutoff", "rn_factor", "rn_quadratic_form",
    "scaled_parallel", "solvable_subspace_projection", "support_projection",
    "tensor_pairing_check", "trace_functional", "validate_psd",
    "weighted_geometric_mean",
]


def __getattr__(name):
    _bind_exports()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    _bind_exports()
    return sorted(globals())
