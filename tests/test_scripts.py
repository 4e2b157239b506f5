"""Each program in scripts/ runs on a tiny input, from the repository root
or from any other directory."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from hivekron.cli import main as cli_main
from hivekron.errors import SizeTooLargeForOracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(*argv):
    proc = subprocess.run([sys.executable, os.path.join("scripts", argv[0]),
                           *argv[1:]], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def script_env(**env):
    """os.environ less PYTHONPATH and OPENBLAS_NUM_THREADS, so that a
    script must find src/ and pin BLAS by itself, updated by env."""
    return {k: v for k, v in os.environ.items()
            if k not in ("PYTHONPATH", "OPENBLAS_NUM_THREADS")} | env


def test_scripts_run_from_any_directory(tmp_path):
    proc = subprocess.run([sys.executable,
                           os.path.join(ROOT, "scripts", "kronecker_table.py"),
                           "2", "--nonzero-only"], cwd=tmp_path,
                          env=script_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["g[(2,) , (2,) ; (2,)] = 1",
                                        "g[(2,) , (1, 1) ; (1, 1)] = 1",
                                        "g[(1, 1) , (1, 1) ; (2,)] = 1"]


# runs the script named by argv[1] with the rest of argv, then reports the
# process's thread count, OPENBLAS_NUM_THREADS and whether numpy was loaded
THREAD_PROBE = """
import atexit, os, runpy, sys
atexit.register(lambda: print(len(os.listdir("/proc/self/task")),
                              os.environ.get("OPENBLAS_NUM_THREADS"),
                              "numpy" in sys.modules, file=sys.stderr))
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc")
@pytest.mark.parametrize("argv", [["kronecker_table.py", "3"],
                                  ["dfs_ladder.py", "2"]])
def test_scripts_run_blas_on_one_thread_unless_preset(tmp_path, argv):
    def probe(**env):
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE,
             os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
            cwd=tmp_path, env=script_env(**env), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stderr.split()[-3:]
    assert probe() == ["1", "1", "True"]
    assert probe(OPENBLAS_NUM_THREADS="2")[1:] == ["2", "True"]


def test_kronecker_table():
    rows = run_script("kronecker_table.py", "4", "--verify", "--nonzero-only")
    assert len(rows) == 21
    assert all(row.startswith("g[") for row in rows)


def test_validate_grid():
    out = run_script("validate_grid.py", "--max-l", "2", "--max-m", "3")
    assert [line.split(":")[0] for line in out if ": ok" in line] == \
        ["l=2 m=2", "l=2 m=3"]


def test_dfs_ladder():
    out = run_script("dfs_ladder.py", "1", "2")
    assert [line.split()[:2] for line in out] == [["n=4", "g=1"],
                                                   ["n=8", "g=6"]]
    assert all(line.endswith("s") for line in out)


def test_dfs_ladder_verify():
    out = run_script("dfs_ladder.py", "--verify", "1", "2")
    assert [line.split()[:2] for line in out] == [["n=4", "g=1"],
                                                   ["n=8", "g=6"]]


def load_script(monkeypatch, name):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kronecker_table_verify_exits_2_on_a_mismatch(monkeypatch, capsys):
    table = load_script(monkeypatch, "kronecker_table")
    # the oracle is wrong on the one triple with every part (2, 1)
    monkeypatch.setattr(table, "kronecker_oracle", lambda mu, nu, lam:
                        table.kronecker(mu, nu, lam).value
                        + ((mu, nu, lam) == ((2, 1),) * 3))
    with pytest.raises(SystemExit) as exit_:
        table.main(["3", "--verify"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert "g[(2, 1) , (2, 1) ; (2, 1)] = 1" in out.splitlines()
    assert err.splitlines()[0] == \
        "g[(2, 1) , (2, 1) ; (2, 1)]: the oracle gives 2"
    assert err.splitlines()[1].endswith(
        "(mismatches with the character oracle: 1)")


def test_kronecker_table_verify_past_the_oracle_bound(monkeypatch, capsys):
    table = load_script(monkeypatch, "kronecker_table")
    table.main(["25", "--max-len", "1", "--verify"])
    out, err = capsys.readouterr()
    assert out.splitlines() == ["g[(25,) , (25,) ; (25,)] = 1"]
    assert err.splitlines()[-1].endswith(
        "(n=25 exceeds the oracle bound 24, unverified)")


def test_dfs_ladder_verify_exits_2_on_a_mismatch(monkeypatch, capsys):
    ladder = load_script(monkeypatch, "dfs_ladder")
    # n = 4 is wrong, n = 8 right and n = 12 past the oracle's bound

    def oracle(mu, nu, lam):
        if sum(mu) > 8:
            raise SizeTooLargeForOracle(f"n={sum(mu)} exceeds the bound 8")
        return {4: 7, 8: 6}[sum(mu)]
    monkeypatch.setattr(ladder, "kronecker_oracle", oracle)
    with pytest.raises(SystemExit) as exit_:
        ladder.main(["--verify", "1", "2", "3"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "n=4: the oracle gives g=7", "n=12 exceeds the bound 8, unverified"]


def test_a_failed_check_exits_2(monkeypatch, capsys):
    # the validate command and the grid script both report it
    monkeypatch.setattr("hivekron.validate.run_validation",
                        lambda l, m, level="quick": [
                            {"name": "fake", "ok": False, "detail": "1 vs 2"}])
    assert cli_main(["validate", "--l", "2", "--m", "2"]) == 2
    assert json.loads(capsys.readouterr().out)["ok"] is False
    grid = load_script(monkeypatch, "validate_grid")
    with pytest.raises(SystemExit) as exit_:
        grid.main(["--max-l", "2", "--max-m", "2"])
    assert exit_.value.code == 2
    assert capsys.readouterr().out.splitlines() == [
        "l=2 m=2: FAILED (1 checks; fake)", "  fake: 1 vs 2"]


@pytest.mark.parametrize("argv", [
    ["dfs_ladder", "0"],
    ["kronecker_table"],
    ["kronecker_table", "-3", "--verify"],
    ["kronecker_table", "3", "--max-len", "0"],
    ["validate_grid", "--level", "bogus"],
    ["validate_grid", "--max-l", "1"],
])
def test_bad_command_line_exits_1(monkeypatch, capsys, argv):
    # exit 2 is kept for a mismatch or a failed check
    script = load_script(monkeypatch, argv[0])
    with pytest.raises(SystemExit) as exit_:
        script.main(argv[1:])
    assert exit_.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
