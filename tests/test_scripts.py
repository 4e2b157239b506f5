"""Each program in scripts/ runs from the repository root on a tiny input."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(*argv):
    proc = subprocess.run([sys.executable, os.path.join("scripts", argv[0]),
                           *argv[1:]], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_kronecker_table():
    rows = run_script("kronecker_table.py", "4", "--verify", "--nonzero-only")
    assert len(rows) == 21
    assert all(row.startswith("g[") for row in rows)


def test_twist_experiment():
    out = run_script("twist_experiment.py", "--max-l", "3", "--max-m", "3")
    assert sum("routes agree" in line for line in out) == 4


def test_validate_grid():
    out = run_script("validate_grid.py", "--max-l", "2", "--max-m", "3")
    assert [line.split(":")[0] for line in out if ": ok" in line] == \
        ["l=2 m=2", "l=2 m=3"]


def test_dfs_ladder():
    out = run_script("dfs_ladder.py", "1", "2")
    assert [line.split()[:2] for line in out] == [["n=4", "g=1"],
                                                   ["n=8", "g=6"]]
    assert all(line.endswith("s") for line in out)
