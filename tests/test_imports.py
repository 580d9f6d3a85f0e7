"""Import footprint: what ``import pwcalc``, the first public name and one
CLI call load, each measured in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, GOLDEN_CASES, with_package_path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# modules a CLI handler imports on demand -> the subcommands that need it
ON_DEMAND = {
    "pwcalc.lebesgue": {"lebesgue", "psum", "psum-limit", "singular", "abscont"},
    "pwcalc.means": {"trace", "tensor-check"},
    "pwcalc.radon_nikodym": {"rn", "kubo", "form-p"},
}

LOADED = ("print(json.dumps(sorted(m for m in sys.modules"
          " if m == 'numpy' or m.startswith('pwcalc'))))")


def _fresh(code, cwd=FIXTURES):
    """Run ``code`` in a new interpreter and return what it printed last,
    parsed as JSON."""
    env = {k: v for k, v in os.environ.items() if k != "PWCALC_TOL_ZERO"}
    proc = subprocess.run([sys.executable, "-c", f"import json, sys\n{code}"],
                          capture_output=True, cwd=cwd, text=True,
                          env=with_package_path(env))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    assert _fresh(f"import pwcalc\n{LOADED}") == ["pwcalc"]


def test_first_public_name_loads_every_traced_module():
    # the benchmark's tracer looks its targets up in sys.modules; with the
    # command line imported as the benchmark imports it, it must install
    loaded = _fresh(f"""
import pwcalc
pwcalc.build_rep
first = sorted(m for m in sys.modules if m.startswith('pwcalc'))
import types
public = sorted(name for name, value in vars(pwcalc).items()
                if not name.startswith('_')
                and not isinstance(value, types.ModuleType))
assert public == sorted(pwcalc.__all__), set(public) ^ set(pwcalc.__all__)
import pwcalc.cli
sys.path.insert(0, {str(PERFBENCH)!r})
import tracer
with tracer.Tracer():
    pass
modules = {{mod for mod, *_ in (*tracer.FUNCTIONS, *tracer.METHODS)}}
print(json.dumps([first, sorted(modules | set(tracer.WHOLE_MODULES))]))
""")
    first, traced = loaded
    # only the command line's own modules wait for ``import pwcalc.cli``
    assert sorted(set(traced) - set(first)) == ["pwcalc.cli", "pwcalc.fileio"]


def test_unknown_name_raises_attribute_error():
    assert _fresh("""
import pwcalc
try:
    pwcalc.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
""") == "module 'pwcalc' has no attribute 'no_such_name'"


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cli_call_loads_only_its_handlers_modules(name):
    argv = GOLDEN_CASES[name]
    loaded = _fresh(f"""
import contextlib, io
from pwcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main({argv!r})
{LOADED}""")
    assert {m for m in ON_DEMAND if m in loaded} == {
        m for m, commands in ON_DEMAND.items() if argv[0] in commands}


def test_script_runs_the_process_entry():
    import tomllib
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml",
              "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"pwcalc": "pwcalc.__main__:run"}


def test_entry_module_loads_no_numpy_and_no_submodule():
    # the script imports the entry module before it calls ``run``; numpy
    # loaded then would be imported with the collector still on
    assert _fresh(f"import pwcalc.__main__\n{LOADED}") == [
        "pwcalc", "pwcalc.__main__"]


# ``run`` ends the process with ``os._exit``; in these probes it is replaced
# by a recorder that raises ``Exit`` with the code and what standard output
# held by then
RECORD_EXIT = """
import io, os

class Exit(Exception):
    pass

def record(code):
    raise Exit(code, sys.stdout.getvalue())

os._exit = record
"""

# ``run`` with the golden ``rep`` argv; a profile hook records the collector
# state when ``cli.main`` starts, and whether the module dicts of numpy and
# the command line are left out of the collector's tracked objects
ENTRY_STATE = RECORD_EXIT + f"""
import gc
sys.argv = ["pwcalc", *{GOLDEN_CASES["rep"]!r}]
seen = []

def probe(frame, event, arg):
    if (event == "call" and frame.f_code.co_name == "main"
            and frame.f_code.co_filename.endswith("cli.py") and not seen):
        tracked = {{id(obj) for obj in gc.get_objects()}}
        seen.append([gc.isenabled(), gc.get_freeze_count() > 0,
                     [id(vars(sys.modules[name])) in tracked
                      for name in ("numpy", "pwcalc.cli")]])

import contextlib, io
from pwcalc.__main__ import run
sys.setprofile(probe)
try:
    with contextlib.redirect_stdout(io.StringIO()):
        run()
except Exit as exc:
    code = exc.args[0]
sys.setprofile(None)
print(json.dumps([code, *seen]))
"""


def test_entry_freezes_the_imports_and_runs_main_collecting():
    code, (enabled, frozen, tracked) = _fresh(ENTRY_STATE)
    assert code == 0
    assert enabled and frozen
    assert tracked == [False, False]


def test_in_process_main_leaves_the_collector_alone():
    assert _fresh(f"""
import contextlib, gc, io
from pwcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({GOLDEN_CASES["rep"]!r})
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]))
""") == [0, True, 0]


# argv that make ``main`` return each of its exit codes but 1
EXIT_ARGV = {
    0: GOLDEN_CASES["rep"],
    2: ["psum", "--a", "nope.json", "--b", "b3.json"],
    3: ["psum", "--a", "bad_nonpsd.json", "--b", "b3.json"],
    4: GOLDEN_CASES["eval_entropy_extended"],
}


def _in_process(argv, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    from pwcalc.cli import main
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("code", sorted(EXIT_ARGV))
def test_entry_flushes_and_ends_the_process_with_mains_code(code, capsys,
                                                             monkeypatch):
    # standard output is a text layer that holds what is written until it
    # is flushed; the recorder sees only the flushed bytes
    left = _fresh(RECORD_EXIT + f"""
class Held(io.TextIOWrapper):
    def getvalue(self):
        return self.buffer.getvalue().decode()

sys.stdout = Held(io.BytesIO(), encoding="utf-8")
sys.argv = ["pwcalc", *{EXIT_ARGV[code]!r}]
from pwcalc.__main__ import run
try:
    run()
except Exit as exc:
    left = list(exc.args)
sys.stdout = sys.__stdout__
print(json.dumps(left))
""")
    assert left == list(_in_process(EXIT_ARGV[code], capsys, monkeypatch))
    assert left[0] == code


def test_entry_leaves_usage_errors_to_the_interpreter():
    assert _fresh(RECORD_EXIT + """
sys.argv = ["pwcalc", "rep", "--a", "a3.json"]
from pwcalc.__main__ import run
try:
    run()
except SystemExit as exc:
    print(json.dumps(exc.code))
""") == 2


def test_in_process_main_never_ends_the_process():
    assert _fresh(f"""
import contextlib, io, os
ends = []
os._exit = ends.append
from pwcalc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {list(EXIT_ARGV.values())!r}]
print(json.dumps([codes, ends]))
""") == [sorted(EXIT_ARGV), []]


def test_cli_module_is_no_process_entry():
    env = {k: v for k, v in os.environ.items() if k != "PWCALC_TOL_ZERO"}
    proc = subprocess.run([sys.executable, "-m", "pwcalc.cli",
                           *GOLDEN_CASES["rep"]], capture_output=True,
                          cwd=FIXTURES, env=with_package_path(env))
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"pwcalc.cli runs no call; use python -m pwcalc\n"


def test_cold_start_probe_runs_one_round():
    proc = subprocess.run([sys.executable, str(Path(__file__).parent
                                               / "cold_start.py"),
                           "--rounds", "1"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert [row[:22].rstrip() for row in rows] == [
        "python -c pass", "import numpy", "import pwcalc.cli",
        "python -m pwcalc rep"]
