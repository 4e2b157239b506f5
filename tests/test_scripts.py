"""Each program in scripts/ runs from the repository root on a tiny input."""

import importlib.util
import os
import subprocess
import sys

import pytest

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


def test_dfs_ladder_verify_exits_2_on_a_mismatch(monkeypatch, capsys):
    ladder = load_script(monkeypatch, "dfs_ladder")
    # n = 4 is wrong, n = 8 right and n = 12 past the bound
    monkeypatch.setattr(ladder, "ORACLE_BOUND", 8)
    monkeypatch.setattr(ladder, "kronecker_oracle",
                        lambda mu, nu, lam: {4: 7, 8: 6}[sum(mu)])
    with pytest.raises(SystemExit) as exit_:
        ladder.main(["--verify", "1", "2", "3"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "n=4: the oracle gives g=7", "n=12: past the oracle bound 8, unverified"]


@pytest.mark.parametrize("argv", [
    ["dfs_ladder", "0"],
    ["kronecker_table"],
    ["kronecker_table", "-3", "--verify"],
    ["kronecker_table", "3", "--max-len", "0"],
    ["validate_grid", "--level", "bogus"],
])
def test_bad_command_line_exits_1(monkeypatch, capsys, argv):
    # exit 2 is kept for a mismatch or a failed check
    script = load_script(monkeypatch, argv[0])
    with pytest.raises(SystemExit) as exit_:
        script.main(argv[1:])
    assert exit_.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
