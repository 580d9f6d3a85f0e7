"""The counts that ``kernel_rounds.py`` prints, pinned byte for byte."""

import subprocess
import sys
from pathlib import Path

import kernel_rounds

# the script's output at SOLVES 2: the kernel's sweeps and rounds per
# solve, to the certificate and to convergence, and build_rep's second call
PINNED = Path(__file__).parent / "golden" / "kernel_rounds_2.txt"


def test_the_script_prints_the_pinned_counts():
    proc = subprocess.run([sys.executable, kernel_rounds.__file__, "2"],
                          capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == PINNED.read_bytes()
