"""Command-line front end.

Every subcommand reads JSON matrix files, runs one library operation and
prints a deterministic JSON report to standard output (optionally also
to ``--out``). The report is emitted on errors too, with ``status`` set
and the message in the diagnostics; only usage errors (unknown
subcommand, missing or unexpected flag) exit 2 without a report. A
report that cannot be written to ``--out`` is replaced by one error
report on standard output that names the file. ``main`` flushes the report
to standard output; where that fails (descriptor 1 closed, a full disk, a
reader that closed the pipe), one line on standard error says so and the
call exits 1.

Exit codes: 0 success, 1 internal failure, 2 invalid input (parsing,
validation, preconditions, an unwritable ``--out``), 3 numeric failure
(eigensolver, matrices that are not PSD, a sum, Kronecker product or
quadratic form beyond float64, a -inf value, which a report cannot
hold), 4 when a bounded result was requested but the value is +inf.

The environment variable ``PWCALC_TOL_ZERO`` overrides the default of
``--tol-zero``; an explicit flag wins over the environment.

Each input path is read once per call: the report's ``sha256`` is the
digest of the bytes the handler parses, and a pipe such as ``/dev/stdin``
can be an input.

A call builds only its subcommand's parser and imports only the modules
its handler runs: ``lebesgue``, ``means`` and ``radon_nikodym`` are
imported inside the handlers that call them (as ``from .lebesgue import``,
since ``from . import lebesgue`` would load the whole package surface).
"""

import argparse
import dataclasses
import hashlib
import os
import sys

import numpy as np

from .calculus import _build_rep, build_rep
from .config import ToleranceConfig
from .errors import (ExtendedValueError, InputError, NotPsdError, NumericError,
                     PwCalcError)
from .fileio import dumps_report, matrix_payload, parse_input, read_input
from .functions import named_function
from .linalg import hermitian_norm, safe_frobenius

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_EXTENDED = 4

# flag -> (help, type); COMMANDS says which subcommands take it
_FLAGS = {
    "a": ("first matrix file", str),
    "b": ("second matrix file", str),
    "rho": ("state matrix file", str),
    "xi": ("vector file", str),
    "phi": ("profile name, NAME or NAME:PARAM", str),
    "alpha": ("profile parameter", float),
    "a2": ("second-slot first matrix", str),
    "b2": ("second-slot second matrix", str),
    "rho2": ("second-slot state", str),
}
# report key order of the input files
_FILE_FLAGS = ("a", "b", "rho", "xi", "a2", "b2", "rho2")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it is
    one; the usage line lists every subcommand either way."""
    parser = argparse.ArgumentParser(
        prog="pwcalc",
        description="Functional calculus and Lebesgue decomposition for "
                    "pairs of positive semidefinite matrices.")
    if command in COMMANDS:
        # the default metavar would list only the one subcommand added
        names, metavar = [command], "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = list(COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in names:
        _, required, optional = COMMANDS[name]
        p = sub.add_parser(name)
        for flag in ("a", "b", *required, *optional):
            help_text, kind = _FLAGS[flag]
            p.add_argument(f"--{flag}", type=kind, help=help_text,
                           required=flag not in optional)
        p.add_argument("--tol-zero", type=float, dest="tol_zero")
        p.add_argument("--tol-one", type=float, dest="tol_one")
        p.add_argument("--max-doublings", type=int, dest="max_doublings")
        p.add_argument("--out", help="also write the report to this file")
    return parser


def _tolerances(args) -> ToleranceConfig:
    # PWCALC_TOL_ZERO fills a missing --tol-zero; a flag left out keeps
    # the ToleranceConfig default
    zero = args.tol_zero
    env = os.environ.get("PWCALC_TOL_ZERO")
    if zero is None and env is not None:
        try:
            zero = float(env)
        except ValueError:
            raise InputError(f"PWCALC_TOL_ZERO is not a number: {env!r}")
    given = {"zero_tol": zero, "one_tol": args.tol_one,
             "max_doublings": args.max_doublings}
    return ToleranceConfig(**{k: v for k, v in given.items() if v is not None})


def _margin_diagnostics(rep) -> dict:
    split = rep.split
    return {
        "spectral_margin": split.margin,
        "num_zero_eigs": int(split.zero.sum()),
        "num_one_eigs": int(split.one.sum()),
    }


def _cmd_rep(args, load, tol, warnings):
    rep = build_rep(load(args.a), load(args.b), tol)
    eye = np.eye(rep.rank, dtype=np.complex128)
    diagnostics = _margin_diagnostics(rep)
    diagnostics["identity_residual"] = safe_frobenius(
        rep.contr_a.conj().T @ rep.contr_a
        + rep.contr_b.conj().T @ rep.contr_b - eye)
    outputs = {
        "n": rep.n,
        "rank": rep.rank,
        "sum_eigs": [float(v) for v in rep.sum_eigs],
        "gram_a": matrix_payload(rep.gram_a),
        "gram_b": matrix_payload(rep.gram_b),
    }
    return outputs, diagnostics


def _cmd_eval(args, load, tol, warnings):
    fn = named_function(args.phi, args.alpha)
    rep = build_rep(load(args.a), load(args.b), tol)
    value = rep.eval(fn)
    return {"value": matrix_payload(value)}, _margin_diagnostics(rep)


def _cmd_lebesgue(args, load, tol, warnings):
    from .lebesgue import lebesgue_decompose
    dec = lebesgue_decompose(load(args.a), load(args.b), tol)
    warnings.extend(dec.warnings)
    outputs = {
        "abs_part": matrix_payload(dec.abs_part),
        "sing_part": matrix_payload(dec.sing_part),
        "projection": matrix_payload(dec.projection),
    }
    diagnostics = {
        "rank": dec.rank,
        "num_zero_eigs": dec.num_zero_eigs,
        "spectral_margin": dec.spectral_margin,
        "residual_sum": dec.residual_sum,
    }
    return outputs, diagnostics


def _cmd_psum(args, load, tol, warnings):
    from .lebesgue import parallel_sum
    value = parallel_sum(load(args.a), load(args.b), tol)
    return {"value": matrix_payload(value)}, {}


def _cmd_psum_limit(args, load, tol, warnings):
    from .lebesgue import parallel_sum_limit
    res = parallel_sum_limit(load(args.a), load(args.b), tol)
    if not res.converged:
        warnings.append(
            f"no convergence within max_doublings={tol.max_doublings}: "
            f"final Frobenius gap {res.gaps[-1]:.3e} above conv_tol="
            f"{tol.conv_tol:g}")
    outputs = {
        "value": matrix_payload(res.value),
        "gaps": [float(g) for g in res.gaps],
        "converged": res.converged,
        "doublings": res.doublings,
    }
    return outputs, {}


def _cmd_singular(args, load, tol, warnings):
    from .lebesgue import is_mutually_singular
    res = is_mutually_singular(load(args.a), load(args.b), tol)
    outputs = {
        "is_singular": res.is_singular,
        "witness": None if res.witness is None else float(res.witness),
        "distance": float(res.distance),
    }
    return outputs, {}


def _cmd_abscont(args, load, tol, warnings):
    from .lebesgue import lebesgue_decompose
    # this report carries no warnings, so the decomposition's are dropped
    dec = lebesgue_decompose(load(args.a), load(args.b), tol)
    proj = dec.projection
    deviation = hermitian_norm(proj - np.eye(len(proj), dtype=np.complex128))
    return {"is_abs_continuous": dec.num_zero_eigs == 0,
            "projection_deviation": deviation}, {}


def _rn_outputs(res) -> tuple[dict, dict]:
    outputs = {
        "factor": matrix_payload(res.factor),
        "root": matrix_payload(res.root),
        "value": matrix_payload(res.value),
    }
    diagnostics = {
        "residual": res.residual,
        "condition": res.condition,
        "infinite_directions": res.infinite_directions,
        "near_singular": res.near_singular,
        "suppression_margin": res.margin,
    }
    return outputs, diagnostics


def _cmd_rn(args, load, tol, warnings):
    from .radon_nikodym import rn_factor
    res = rn_factor(load(args.a), load(args.b), tol)
    if res.near_singular:
        warnings.append(
            f"{res.near_singular} ratio eigenvalue(s) retained within "
            f"10*zero_tol={10 * tol.zero_tol:g} of the suppression threshold "
            f"zero_tol={tol.zero_tol:g}; margin={res.margin:.3e}")
    return _rn_outputs(res)


def _cmd_kubo(args, load, tol, warnings):
    from .radon_nikodym import kubo_ando_form
    fn = named_function(args.phi, args.alpha)
    res = kubo_ando_form(load(args.a), load(args.b), fn, tol)
    return _rn_outputs(res)


def _cmd_pair(args, load, tol, warnings):
    fn = named_function(args.phi, args.alpha)
    rep, w = _build_rep(load(args.a), load(args.b), tol,
                        lambda: load(args.rho))
    res = rep._pairing(fn, w)
    outputs = {
        "value": res.value,
        "finite_part": res.finite_part,
        "infinite_weight": res.infinite_weight,
    }
    return outputs, _margin_diagnostics(rep)


def _cmd_trace(args, load, tol, warnings):
    from .means import trace_functional
    fn = named_function(args.phi, args.alpha)
    value = trace_functional(load(args.a), load(args.b), fn, tol)
    return {"value": value}, {}


def _cmd_tensor_check(args, load, tol, warnings):
    from .means import tensor_pairing_check
    fn = named_function(args.phi, args.alpha)
    res = tensor_pairing_check(
        load(args.a), load(args.b), load(args.a2), load(args.b2),
        load(args.rho), load(args.rho2), fn, tol)
    if not res.infinity_consistent:
        warnings.append("one side of the tensor identity is +inf and the "
                        "other is finite")
    outputs = {
        "lhs": res.lhs,
        "rhs": res.rhs,
        "residual": None if res.residual is None else float(res.residual),
        "infinity_consistent": res.infinity_consistent,
    }
    return outputs, {}


def _cmd_form_p(args, load, tol, warnings):
    from .radon_nikodym import rn_quadratic_form
    value = rn_quadratic_form(load(args.a), load(args.b),
                              load(args.xi, 1), tol)
    return {"value": value}, {}


# subcommand -> (handler, required flags besides --a/--b, optional flags)
COMMANDS = {
    "rep": (_cmd_rep, (), ()),
    "eval": (_cmd_eval, ("phi",), ("alpha",)),
    "lebesgue": (_cmd_lebesgue, (), ()),
    "psum": (_cmd_psum, (), ()),
    "psum-limit": (_cmd_psum_limit, (), ()),
    "singular": (_cmd_singular, (), ()),
    "abscont": (_cmd_abscont, (), ()),
    "rn": (_cmd_rn, (), ()),
    "kubo": (_cmd_kubo, ("phi",), ("alpha",)),
    "pair": (_cmd_pair, ("phi", "rho"), ("alpha",)),
    "trace": (_cmd_trace, ("phi",), ("alpha",)),
    "tensor-check": (_cmd_tensor_check, ("phi", "rho", "a2", "b2", "rho2"),
                     ("alpha",)),
    "form-p": (_cmd_form_p, ("xi",), ()),
}


def _read_inputs(args) -> tuple[dict, dict]:
    """The report's ``inputs`` and, for each input path of the call, its
    bytes or the ``InputError`` reading it raised. A path is read once, so
    the report hashes the bytes the handler parses and a pipe such as
    ``/dev/stdin`` can be an input."""
    data, inputs = {}, {}
    for key in _FILE_FLAGS:
        path = getattr(args, key, None)
        if path is None:
            continue
        if path not in data:
            try:
                data[path] = read_input(path)
            except InputError as exc:
                data[path] = exc
        if path:  # an empty path is left out; its handler reports it
            raw = data[path]
            digest = (None if isinstance(raw, InputError)
                      else hashlib.sha256(raw).hexdigest())
            inputs[key] = {"path": path, "sha256": digest}
    return data, inputs


def _exit_code(exc: PwCalcError) -> int:
    if isinstance(exc, ExtendedValueError):
        return EXIT_EXTENDED
    if isinstance(exc, (NotPsdError, NumericError)):
        return EXIT_NUMERIC
    if isinstance(exc, InputError):
        return EXIT_INPUT
    return EXIT_INTERNAL


def _error_text(report: dict, warnings: list[str], error: str) -> str:
    report["outputs"] = {}
    report["diagnostics"] = {"warnings": list(warnings), "error": error}
    report["status"] = "error"
    return dumps_report(report)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    data, inputs = _read_inputs(args)

    def load(path, ndim=2):
        # a file that could not be read fails where its handler parses it
        if isinstance(data[path], InputError):
            raise data[path]
        return parse_input(data[path], path, ndim)

    report = {
        "operation": args.command,
        "inputs": inputs,
        "config": None,
        "outputs": {},
        "diagnostics": {"warnings": []},
        "status": "error",
    }
    warnings: list[str] = []
    try:
        tol = _tolerances(args)
        report["config"] = dataclasses.asdict(tol)
        handler = COMMANDS[args.command][0]
        outputs, diagnostics = handler(args, load, tol, warnings)
        report["outputs"] = outputs
        report["diagnostics"] = {"warnings": list(warnings), **diagnostics}
        report["status"] = "warning" if warnings else "ok"
        text, code = dumps_report(report), EXIT_OK
    except PwCalcError as exc:
        text, code = _error_text(report, warnings, str(exc)), _exit_code(exc)
    except Exception as exc:  # pragma: no cover - defensive
        text = _error_text(report, warnings, f"internal failure: {exc}")
        code = EXIT_INTERNAL
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            # one report, on stdout only: the file is what failed
            text = _error_text(report, warnings, f"cannot write the report "
                               f"to {args.out}: {exc.strerror or exc}")
            code = EXIT_INPUT
    return code if _write_stdout(text) else EXIT_INTERNAL


def _write_stdout(text: str) -> bool:
    """Write ``text`` to standard output and flush it; where that fails,
    say why in one line on standard error and return False."""
    try:
        if sys.stdout is None:  # descriptor 1 was closed when Python started
            raise OSError("it is closed")
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"pwcalc: cannot write the report to standard output: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    print("pwcalc.cli runs no call; use python -m pwcalc",
          file=sys.stderr)
    sys.exit(EXIT_INPUT)
