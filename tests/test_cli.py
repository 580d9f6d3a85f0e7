"""End-to-end tests of the command line: golden files, determinism, exit codes."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES, GOLDEN_CASES, rand_pair, run_cli
from pwcalc import InputError, NumericError, build_rep
from pwcalc.cli import COMMANDS, build_parser, main
from pwcalc.fileio import dumps_report, load_matrix, load_vector, matrix_payload

GOLDEN = Path(__file__).parent / "golden"

EXPECTED_EXIT = {"eval_entropy_extended": 4}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(name):
    proc = run_cli(GOLDEN_CASES[name])
    assert proc.returncode == EXPECTED_EXIT.get(name, 0), proc.stderr.decode()
    golden = (GOLDEN / f"{name}.json").read_bytes()
    assert proc.stdout == golden


def run_report(argv, code=0, **kwargs):
    """Run the CLI, check its exit code and return the parsed report."""
    proc = run_cli(argv, **kwargs)
    assert proc.returncode == code, proc.stderr.decode()
    return json.loads(proc.stdout)


def test_byte_identical_rerun():
    first = run_cli(GOLDEN_CASES["lebesgue"])
    second = run_cli(GOLDEN_CASES["lebesgue"])
    for proc in (first, second):
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout
    assert first.stdout == second.stdout


class TestHandValues:
    def test_lebesgue_report_values(self):
        rep = json.loads((GOLDEN / "lebesgue.json").read_text())
        bc = np.array(rep["outputs"]["abs_part"]["re"])
        bs = np.array(rep["outputs"]["sing_part"]["re"])
        np.testing.assert_allclose(bc, np.diag([5.0, 0.0, 0.0]), atol=1e-10)
        np.testing.assert_allclose(bs, np.diag([0.0, 0.0, 3.0]), atol=1e-10)
        assert rep["status"] == "ok"

    def test_ando_singular_via_cli(self):
        rep = run_report(["singular", "--a", "ando_a.json", "--b", "ando_b.json"])
        assert rep["outputs"]["is_singular"] is True
        assert rep["outputs"]["distance"] < 1e-10

    def test_ando_lebesgue_via_cli(self):
        rep = run_report(["lebesgue", "--a", "ando_a.json", "--b", "ando_b.json"])
        proj = np.array(rep["outputs"]["projection"]["re"])
        np.testing.assert_allclose(proj, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-10)
        assert np.abs(np.array(rep["outputs"]["abs_part"]["re"])).max() < 1e-10

    def test_extended_value_report(self):
        rep = json.loads((GOLDEN / "eval_entropy_extended.json").read_text())
        assert rep["status"] == "error"
        assert "extended value" in rep["diagnostics"]["error"]
        assert rep["outputs"] == {}


class TestExitCodes:
    def test_ok(self):
        run_report(["psum", "--a", "a3.json", "--b", "b3.json"])

    def test_invalid_input_parse(self):
        rep = run_report(["psum", "--a", "bad_syntax.json", "--b", "b3.json"], 2)
        assert rep["status"] == "error"

    # input errors print an error report, which tells them apart from
    # argparse usage errors with the same exit code
    def test_invalid_input_missing_file(self):
        rep = run_report(["psum", "--a", "nope.json", "--b", "b3.json"], 2)
        assert rep["status"] == "error"
        assert rep["inputs"]["a"] == {"path": "nope.json", "sha256": None}
        assert rep["diagnostics"]["error"].startswith(
            "cannot read nope.json: [Errno 2] No such file or directory")

    def test_invalid_input_non_hermitian(self):
        rep = run_report(["psum", "--a", "bad_nonherm.json", "--b", "b3.json"], 2)
        assert rep["status"] == "error"

    def test_invalid_input_precondition(self):
        # derivative factorization needs a definite base
        rep = run_report(["rn", "--a", "b2sing.json", "--b", "a2pd.json"], 2)
        assert "positive definite" in rep["diagnostics"]["error"]

    @pytest.mark.parametrize("data,message", [
        (bytes.fromhex("fffefd7b7d"), "is not UTF-8, UTF-16 or UTF-32 text"),
        (b'{"n": 2, "re": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
         "nests its JSON too deeply"),
    ], ids=["not-text", "too-deep"])
    def test_unreadable_json_is_invalid_input(self, tmp_path, data, message):
        (tmp_path / "bad.json").write_bytes(data)
        proc = run_cli(["rep", "--a", "bad.json", "--b", str(FIXTURES / "a1.json")],
                       cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr.decode()
        rep = json.loads(proc.stdout)
        assert rep["status"] == "error"
        assert rep["diagnostics"]["error"].startswith(f"bad.json {message}")

    def test_missing_required_flag(self):
        proc = run_cli(["pair", "--a", "a3.json", "--b", "b3.json",
                        "--phi", "parallel"])
        assert proc.returncode == 2  # --rho missing
        assert proc.stdout == b""   # usage errors print no report

    @pytest.mark.parametrize("argv", [
        ["lebesgue", "--rho", "rho3.json"],
        ["psum", "--phi", "parallel"],
        ["rn", "--xi", "xi2.json"],
        ["form-p", "--xi", "xi2.json", "--alpha", "0.5"],
        ["pair", "--phi", "parallel", "--rho", "rho3.json", "--a2", "a3.json"],
    ])
    def test_flag_not_taken_is_usage_error(self, argv):
        proc = run_cli([*argv, "--a", "a3.json", "--b", "b3.json"])
        assert proc.returncode == 2
        assert b"unrecognized arguments" in proc.stderr
        assert proc.stdout == b""

    def test_numeric_failure_overflowing_sum(self, tmp_path):
        # both members are finite; their sum leaves the float64 range
        path = tmp_path / "big.json"
        path.write_text('{"n": 1, "re": [[1e308]]}')
        proc = run_cli(["psum", "--a", str(path), "--b", str(path)], cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr.decode()
        assert proc.stderr == b""  # no warning leaks
        assert "a + b overflows" in json.loads(proc.stdout)["diagnostics"]["error"]

    def test_negative_value_beyond_float64(self, tmp_path):
        # tr of entropy on 1.25e307 I and 3.75e307 I (n = 20) is
        # 1e309 * 0.25 * ln(1/3), about -2.75e308: -inf is no report value
        for name, scale in (("a.json", 1.25e307), ("b.json", 3.75e307)):
            (tmp_path / name).write_text(json.dumps(matrix_payload(scale * np.eye(20))))
        proc = run_cli(["trace", "--phi", "entropy", "--a", "a.json", "--b", "b.json"],
                       cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr.decode()
        assert proc.stderr == b""
        report = json.loads(proc.stdout)
        assert report["status"] == "error"
        assert "-inf is not representable" in report["diagnostics"]["error"]

    def test_tensor_sum_rule_of_opposite_infinities(self, tmp_path):
        # the entropy sum rule -inf * 1 + inf * inf has no value
        eye = np.eye(20)
        for name, m in (("a.json", 1.25e307 * eye), ("b.json", 3.75e307 * eye),
                        ("rho.json", eye), ("one.json", np.eye(1)),
                        ("zero.json", np.zeros((1, 1)))):
            (tmp_path / name).write_text(json.dumps(matrix_payload(m)))
        proc = run_cli(["tensor-check", "--phi", "entropy", "--a", "a.json",
                        "--b", "b.json", "--rho", "rho.json", "--a2", "one.json",
                        "--b2", "zero.json", "--rho2", "one.json"], cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr.decode()
        assert proc.stderr == b""
        assert "terms are -inf and +inf" in json.loads(proc.stdout)["diagnostics"]["error"]

    def test_quadratic_form_beyond_float64(self, tmp_path):
        # (1 - x)/x = 1 on I, I: the form at (1e160, 1) is 1e320
        (tmp_path / "i2.json").write_text('{"n": 2, "re": [[1, 0], [0, 1]]}')
        (tmp_path / "xi.json").write_text('{"n": 2, "re": [1e160, 1]}')
        proc = run_cli(["form-p", "--a", "i2.json", "--b", "i2.json", "--xi", "xi.json"],
                       cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr.decode()
        assert proc.stderr == b""
        assert "outside the float64 range" in json.loads(proc.stdout)["diagnostics"]["error"]

    def test_numeric_failure_not_psd(self):
        rep = run_report(["psum", "--a", "bad_nonpsd.json", "--b", "b3.json"], 3)
        assert "not positive semidefinite" in rep["diagnostics"]["error"]

    # a and b are validated together, but a's verdict still comes first
    @pytest.mark.parametrize("a,b,code,message", [
        ("bad_nonpsd.json", "bad_nonherm.json", 3, "not positive semidefinite"),
        ("bad_nonpsd.json", "a3.json", 3, "not positive semidefinite"),
        ("bad_nonherm.json", "bad_nonpsd.json", 2, "not Hermitian"),
        ("a2pd.json", "bad_nonherm.json", 2, "not Hermitian"),
        ("a2pd.json", "a3.json", 2, "differ in size"),
    ], ids=["nonpsd-nonherm", "nonpsd-size", "nonherm-nonpsd", "psd-nonherm",
            "psd-size"])
    def test_pair_error_precedence(self, a, b, code, message):
        rep = run_report(["psum", "--a", a, "--b", b], code)
        assert message in rep["diagnostics"]["error"]

    # the state file is read after the pair's verdict
    @pytest.mark.parametrize("a,b,rho,code,message", [
        ("bad_nonpsd.json", "a2pd.json", "nope.json", 3, "not positive semidefinite"),
        ("a3.json", "b3.json", "nope.json", 2, "cannot read nope.json"),
        ("a3.json", "b3.json", "bad_syntax.json", 2, "bad_syntax.json is not valid JSON"),
    ], ids=["nonpsd-missing", "good-missing", "good-syntax"])
    def test_pair_state_file_precedence(self, a, b, rho, code, message):
        rep = run_report(["pair", "--phi", "parallel", "--a", a, "--b", b,
                          "--rho", rho], code)
        assert message in rep["diagnostics"]["error"]

    def test_boolean_dimension_is_invalid_input(self, tmp_path):
        path = tmp_path / "bool_n.json"
        path.write_text('{"n": true, "re": [[2.0]]}')
        rep = run_report(["psum", "--a", str(path), "--b", str(path)], 2,
                         cwd=tmp_path)
        assert "nonnegative integer" in rep["diagnostics"]["error"]

    # a = I, b = diag(1, 0.1): (x/y)^400 y leaves float64 at y = 1/11
    @pytest.mark.parametrize("phi,code,message", [
        ("power:400", 3, "leaves the float64 range"),
        ("power:inf", 2, "must be finite"),
    ], ids=["overflow", "inf-exponent"])
    def test_power_profile_failures(self, tmp_path, phi, code, message):
        (tmp_path / "i2.json").write_text('{"n": 2, "re": [[1, 0], [0, 1]]}')
        (tmp_path / "b2.json").write_text('{"n": 2, "re": [[1, 0], [0, 0.1]]}')
        rep = run_report(["pair", "--phi", phi, "--a", "i2.json", "--b",
                          "b2.json", "--rho", "i2.json"], code, cwd=tmp_path)
        assert message in rep["diagnostics"]["error"]

    def test_extended_value(self):
        proc = run_cli(["eval", "--phi", "entropy", "--a", "a1.json",
                        "--b", "b1.json"])
        assert proc.returncode == 4

    # --phi is resolved before any file is read, so a bad profile name is
    # reported before a pair that fails on its own
    def test_profile_name_precedes_the_pair(self):
        pair = ["--a", "bad_nonpsd.json", "--b", "b1.json"]
        rep = run_report(["psum", *pair], 3)
        assert "not positive semidefinite" in rep["diagnostics"]["error"]
        rep = run_report(["eval", "--phi", "bogus", *pair], 2)
        assert "unknown profile 'bogus'" in rep["diagnostics"]["error"]

    def test_unknown_profile(self):
        rep = run_report(["eval", "--phi", "nope", "--a", "a3.json",
                          "--b", "b3.json"], 2)
        assert "unknown profile" in rep["diagnostics"]["error"]

    def test_overlapping_tolerance_windows(self):
        rep = run_report(["lebesgue", "--a", "a3.json", "--b", "b3.json",
                          "--tol-zero", "0.7", "--tol-one", "0.7"], 2)
        assert "zero_tol + one_tol" in rep["diagnostics"]["error"]

    def test_unknown_subcommand_is_usage_error(self):
        proc = run_cli(["frobnicate", "--a", "a3.json", "--b", "b3.json"])
        assert proc.returncode == 2


class TestFlagsAndEnv:
    def test_env_overrides_default(self):
        # absurdly large zero threshold classifies everything as zero
        rep = run_report(["lebesgue", "--a", "a3.json", "--b", "b3.json"],
                     env_extra={"PWCALC_TOL_ZERO": "0.5"})
        assert rep["config"]["zero_tol"] == 0.5
        bc = np.array(rep["outputs"]["abs_part"]["re"])
        assert np.abs(bc).max() < 1e-12

    def test_flag_wins_over_env(self):
        rep = run_report(["lebesgue", "--a", "a3.json", "--b", "b3.json",
                      "--tol-zero", "1e-8"],
                     env_extra={"PWCALC_TOL_ZERO": "0.5"})
        assert rep["config"]["zero_tol"] == 1e-8

    def test_env_fills_zero_tol_beside_another_flag(self):
        rep = run_report(["lebesgue", "--a", "a3.json", "--b", "b3.json",
                          "--tol-one", "1e-6"],
                         env_extra={"PWCALC_TOL_ZERO": "1e-7"})
        assert rep["config"]["zero_tol"] == 1e-7
        assert rep["config"]["one_tol"] == 1e-6

    def test_bad_env_value(self):
        rep = run_report(["psum", "--a", "a3.json", "--b", "b3.json"], 2,
                         env_extra={"PWCALC_TOL_ZERO": "abc"})
        assert "PWCALC_TOL_ZERO" in rep["diagnostics"]["error"]

    def test_max_doublings_flag(self):
        rep = run_report(["psum-limit", "--a", "a3.json", "--b", "b3.json",
                      "--max-doublings", "3"])
        assert rep["outputs"]["doublings"] == 3
        assert rep["outputs"]["converged"] is False
        assert rep["status"] == "warning"
        assert any("max_doublings" in w for w in rep["diagnostics"]["warnings"])

    def test_out_file_matches_stdout(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(["psum", "--a", str(FIXTURES / "a3.json"),
                        "--b", str(FIXTURES / "b3.json"), "--out", str(out)],
                       cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr.decode()
        assert out.read_bytes() == proc.stdout

    def test_unwritable_out_file_is_one_error_report(self, tmp_path):
        out = tmp_path / "missing" / "report.json"
        proc = run_cli(["psum", "--a", str(FIXTURES / "a3.json"),
                        "--b", str(FIXTURES / "b3.json"), "--out", str(out)],
                       cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == b""
        assert proc.stdout.count(b"\n") == 1  # one report, no second one
        rep = json.loads(proc.stdout)
        assert rep["status"] == "error" and rep["outputs"] == {}
        assert str(out) in rep["diagnostics"]["error"]
        assert not out.parent.exists()


class TestInputFiles:
    # a pipe can be read once only: the report hashes the bytes the
    # handler parses, and a path named twice is read once
    @pytest.mark.parametrize("argv,named", [
        (["rep", "--a", "/dev/stdin", "--b", "b3.json"],
         ["rep", "--a", "a3.json", "--b", "b3.json"]),
        (["rep", "--a", "/dev/stdin", "--b", "/dev/stdin"],
         ["rep", "--a", "a3.json", "--b", "a3.json"]),
        (["form-p", "--a", "a2pd.json", "--b", "b2sing.json",
          "--xi", "/dev/stdin"],
         ["form-p", "--a", "a2pd.json", "--b", "b2sing.json",
          "--xi", "xi2.json"]),
    ], ids=["matrix", "both-members", "vector"])
    def test_piped_input_reads_as_the_named_file(self, argv, named):
        stem = named[argv.index("/dev/stdin")]
        piped = run_cli(argv, stdin=(FIXTURES / stem).read_bytes())
        direct = run_cli(named)
        assert (piped.returncode, piped.stderr) == (direct.returncode,
                                                    direct.stderr)
        rep, expected = json.loads(piped.stdout), json.loads(direct.stdout)
        for key, value in rep["inputs"].items():
            assert value["path"] == argv[argv.index(f"--{key}") + 1]
            value["path"] = expected["inputs"][key]["path"]
        assert rep == expected


class TestFileRoundTrip:
    def test_matrix_round_trip_bit_identical(self, tmp_path, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        payload = matrix_payload(m)
        path = tmp_path / "m.json"
        path.write_text(dumps_report(payload))
        back = load_matrix(str(path))
        assert (back == m).all()

    def test_vector_round_trip(self, tmp_path, rng):
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        payload = {"n": 5, "re": [float(x) for x in v.real],
                   "im": [float(x) for x in v.imag]}
        path = tmp_path / "v.json"
        path.write_text(dumps_report(payload))
        assert (load_vector(str(path)) == v).all()

    def test_empty_matrix_round_trip(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(dumps_report(matrix_payload(np.zeros((0, 0)))))
        back = load_matrix(str(path))
        assert back.shape == (0, 0) and back.dtype == np.complex128

    def test_report_float_format_round_trips(self):
        values = [1.0 / 3.0, 5.0, 1e-300, math.pi, -0.0, 6.02e23]
        text = dumps_report(values)
        assert json.loads(text) == values

    def test_inf_sentinel(self):
        assert json.loads(dumps_report({"v": math.inf}))["v"] == "+inf"

    # every type a report may hold, and the bytes it is written as
    @pytest.mark.parametrize("value,text", [
        (None, "null"), (True, "true"), (False, "false"),
        ('a"b\\\n\xe9', '"a\\"b\\\\\\n\\u00e9"'), (np.str_("x"), '"x"'),
        (7, "7"), (10 ** 20, "100000000000000000000"), (np.int64(-5), "-5"),
        (np.uint8(255), "255"), (0.1, "0.10000000000000001"), (-0.0, "-0"),
        (1e300, "1.0000000000000001e+300"), (5e-324, "4.9406564584124654e-324"),
        (np.float32(0.1), "0.10000000149011612"), (np.float64(2.5), "2.5"),
        (math.inf, '"+inf"'), ({}, "{}"), ([], "[]"), ((), "[]"),
        ({"a": [1, (2.5, None)], "b": {"c": True}, 3: "k"},
         '{"a":[1,[2.5,null]],"b":{"c":true},"3":"k"}'),
    ])
    def test_report_bytes(self, value, text):
        assert dumps_report(value) == text + "\n"

    @pytest.mark.parametrize("value,message", [
        (math.nan, "NaN is not representable in a report"),
        ([1.0, {"v": -math.inf}], "-inf is not representable in a report"),
        (np.bool_(True), f"cannot serialize object of type {np.bool_!r}"),
        (1 + 2j, "cannot serialize object of type <class 'complex'>"),
        ({"v": object()}, "cannot serialize object of type <class 'object'>"),
    ], ids=["nan", "-inf", "np.bool_", "complex", "object"])
    def test_report_errors(self, value, message):
        with pytest.raises(NumericError) as info:
            dumps_report(value)
        assert type(info.value) is NumericError and str(info.value) == message

    def test_shape_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "re": [[1, 0]]}')
        with pytest.raises(InputError):
            load_matrix(str(path))

    @pytest.mark.parametrize("text,message", [
        ('[[1.0]]', "must contain a JSON object"),
        ('{"n": -1, "re": []}', "nonnegative integer"),
        ('{"n": 1.0, "re": [[1.0]]}', "nonnegative integer"),
        ('{"n": true, "re": [[1.0]]}', "nonnegative integer"),
        ('{"n": 1, "re": [[NaN]]}', "'re' contains non-finite"),
        ('{"n": 1, "re": [[1.0]], "im": [[Infinity]]}', "'im' contains non-finite"),
        ('{"n": 1, "re": [["abc"]]}', "'re' must be nested lists of JSON numbers"),
        ('{"n": 2, "re": [[1, 2], [3]]}', r"'re' must be .* of shape \(2, 2\)"),
        ('{"n": 1, "re": [[1.0]], "im": "x"}', "'im' must be nested lists"),
        ('{"n": 1, "re": [["2"]]}', "'re' must be nested lists of JSON numbers"),
        ('{"n": 1, "re": [[1.0]], "im": [[true]]}', "'im' must be nested lists"),
        ('{"n": 1, "re": [[1%s]]}' % ("0" * 400), "'re' holds an integer beyond"),
    ], ids=["array", "negative-n", "float-n", "bool-n", "nan", "inf-im",
            "string-entry", "ragged", "string-im", "numeric-string", "bool-im",
            "huge-int"])
    def test_malformed_matrix_files(self, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(InputError, match=message):
            load_matrix(str(path))

    @pytest.mark.parametrize("load", [load_matrix, load_vector])
    @pytest.mark.parametrize("data,message", [
        (bytes.fromhex("fffefd7b7d"), "is not UTF-8, UTF-16 or UTF-32 text"),
        (b"\xff\xff\xff\xff", "is not UTF-8, UTF-16 or UTF-32 text"),
        (b'{"n": 2, "re": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
         "nests its JSON too deeply"),
    ], ids=["utf16-bom", "no-encoding", "too-deep"])
    def test_unreadable_json(self, tmp_path, load, data, message):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(InputError, match=f"{re.escape(str(path))} {message}"):
            load(str(path))


class TestInProcessMain:
    def test_main_returns_exit_code(self, capsys):
        code = main(["trace", "--phi", "arith",
                     "--a", str(FIXTURES / "a3.json"),
                     "--b", str(FIXTURES / "b3.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["outputs"]["value"] == pytest.approx(10.0)

    def test_main_emits_report_on_error(self, capsys):
        code = main(["psum", "--a", str(FIXTURES / "bad_nonpsd.json"),
                     "--b", str(FIXTURES / "b3.json")])
        out = capsys.readouterr().out
        assert code == 3
        assert json.loads(out)["status"] == "error"

    def test_rep_identity_residual_is_frobenius(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, m in zip(paths, rand_pair(np.random.default_rng(11), 6, 4, 3)):
            path.write_text(json.dumps(matrix_payload(m)))
        assert main(["rep", "--a", str(paths[0]), "--b", str(paths[1])]) == 0
        report = json.loads(capsys.readouterr().out)
        rep = build_rep(*(load_matrix(str(p)) for p in paths))
        x, y = rep.contr_a, rep.contr_b
        gap = (x.conj().T @ x + y.conj().T @ y
               - np.eye(rep.rank, dtype=np.complex128))
        residual = report["diagnostics"]["identity_residual"]
        assert residual == float(np.linalg.norm(gap)) > 0.0

    def test_rn_warns_near_singular_base(self, capsys, tmp_path):
        # gram_a's small eigenvalue, 5e-8 / (1 + 5e-8), is retained within
        # 10 * zero_tol of the threshold
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, m in zip(paths, (np.diag([1.0, 5e-8]), np.eye(2))):
            path.write_text(json.dumps(matrix_payload(m)))
        assert main(["rn", "--a", str(paths[0]), "--b", str(paths[1])]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "warning"
        assert report["diagnostics"]["near_singular"] == 1
        [warning] = report["diagnostics"]["warnings"]
        assert warning.startswith("1 ratio eigenvalue(s) retained")

    @pytest.mark.parametrize("argv,outputs", [
        (["rn"], {name: {"n": 0, "re": [], "im": []}
                  for name in ("factor", "root", "value")}),
        (["kubo", "--phi", "geom:0.5"], {name: {"n": 0, "re": [], "im": []}
                                         for name in ("factor", "root", "value")}),
        (["form-p", "--xi", "empty.json"], {"value": 0}),
    ], ids=["rn", "kubo", "form-p"])
    def test_empty_base_is_definite(self, capsys, monkeypatch, tmp_path, argv, outputs):
        # the 0x0 pair, which every other subcommand accepts too
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.json").write_text('{"n": 0, "re": []}')
        assert main([*argv, "--a", "empty.json", "--b", "empty.json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ok"
        assert report["outputs"] == outputs

    def test_lebesgue_warns_when_parts_lose_b(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, m in zip(paths, rand_pair(np.random.default_rng(3), 5, 3, 4)):
            path.write_text(json.dumps(matrix_payload(m)))
        argv = ["lebesgue", "--a", str(paths[0]), "--b", str(paths[1])]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"
        assert main([*argv, "--tol-one", "0.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "warning"
        [warning] = report["diagnostics"]["warnings"]
        assert "residual_sum" in warning and "||b||_F" in warning


def _parsed(parser, argv, capsys):
    """What ``parser`` makes of ``argv``: namespace or exit code, stdout and
    stderr."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


def _parser_cases():
    yield []
    yield ["-h"]
    yield ["nope", "--a", "a.json"]
    for name, (_, required, _) in COMMANDS.items():
        flags = [x for flag in ("a", "b", *required) for x in (f"--{flag}", "1")]
        yield [name, "-h"]
        yield [name, *flags[:-2]]           # the last required flag missing
        yield [name, *flags]
        yield [name, *flags, "--bogus", "extra"]


@pytest.mark.parametrize("argv", list(_parser_cases()),
                         ids=lambda argv: "_".join(argv) or "no-args")
def test_one_subparser_parses_as_the_full_parser(argv, capsys):
    one = build_parser(argv[0] if argv else None)
    assert _parsed(one, argv, capsys) == _parsed(build_parser(), argv, capsys)
