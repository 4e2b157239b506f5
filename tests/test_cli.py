import gc
import inspect
import itertools
import json
import os
import pathlib
import re
import stat
import subprocess
import sys
import threading

import pytest

from hivekron import errors
from hivekron.cli import cone_to_json, main
from hivekron.diamonds import build_bar, build_tilde
from hivekron.polyhedra import Cone, build_cone
from hivekron.quiver import det_vertex, hive_vertex


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeff_verify(capsys, small_builds):
    code, out, _ = run(capsys, "coeff", "--mu", "2,1", "--nu", "2,1",
                       "--lam", "2,1", "--verify")
    assert code == 0
    assert out.strip() == "1"


def test_coeff_verify_past_the_oracle_bound(capsys):
    code, out, err = run(capsys, "coeff", "--mu", "25", "--nu", "25",
                         "--lam", "25", "--verify")
    assert code == 0 and out.strip() == "1"
    assert "result is unverified" in err
    assert len(err.strip().splitlines()) == 1


def test_coeff_verify_disagreement_exits_2(capsys, monkeypatch, small_builds):
    monkeypatch.setattr("hivekron.cli.kronecker_oracle", lambda *a: 2)
    code, out, err = run(capsys, "coeff", "--mu", "2,1", "--nu", "2,1",
                         "--lam", "2,1", "--verify")
    assert code == 2 and out.strip() == "1"
    assert err.strip().splitlines() == [
        "VERIFICATION FAILED: pipeline 1, oracle 2"]


def test_coeff_sign_times_sign(capsys, small_builds):
    code, out, _ = run(capsys, "coeff", "--mu", "1,1", "--nu", "1,1",
                       "--lam", "2")
    assert code == 0 and out.strip() == "1"


def test_coeff_size_mismatch_usage_error(capsys):
    code, _, err = run(capsys, "coeff", "--mu", "2", "--nu", "3",
                       "--lam", "2,1")
    assert code == 1
    assert "sizes differ" in err


def test_coeff_one_of_l_and_m_is_a_usage_error(capsys):
    code, out, err = run(capsys, "coeff", "--mu", "2,1", "--nu", "2,1",
                         "--lam", "1,1,1", "--l", "2")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: give both l and m, or neither"]


def test_coeff_json_breakdown(capsys, small_builds):
    code, out, _ = run(capsys, "coeff", "--mu", "2,1", "--nu", "2,1",
                       "--lam", "2,1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1"
    assert len(doc["terms"]) == 2
    assert all(set(t) == {"omega", "lambda_shift", "sign", "count"}
               for t in doc["terms"])
    assert doc["orientation"] == [["2", "1"]] * 3


def test_coeff_json_orientation(capsys, small_builds):
    # the order that was counted, the same for every input order
    docs = []
    for mu, nu, lam in itertools.permutations(("5,2,1", "4,4", "3,3,2")):
        code, out, _ = run(capsys, "coeff", "--mu", mu, "--nu", nu,
                           "--lam", lam, "--l", "3", "--m", "3", "--json")
        assert code == 0
        docs.append(json.loads(out))
    assert all(doc == docs[0] for doc in docs)
    assert docs[0]["value"] == "1"
    assert sorted(docs[0]["orientation"]) == [["3", "3", "2"], ["4", "4"],
                                             ["5", "2", "1"]]
    total = sum(int(t["sign"]) * int(t["count"]) for t in docs[0]["terms"])
    assert total == 1


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--mu", "2,1", "--nu", "2,1",
                       "--lam", "1,1,1")
    assert code == 0 and out.strip() == "1"


def test_build_quiver_vertex_counts(capsys, tmp_path):
    path = tmp_path / "q.json"
    code, _, _ = run(capsys, "build-quiver", "--l", "3", "--m", "3",
                     "--stage", "tilde", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert len(doc["vertices"]) == 21
    code, _, _ = run(capsys, "build-quiver", "--l", "2", "--m", "2",
                     "--stage", "bar", "--out", str(path))
    doc = json.loads(path.read_text())
    assert len(doc["vertices"]) == 6
    assert all(isinstance(x, str) for arrow in doc["arrows"] for x in arrow[2])


def test_build_quiver_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "build-quiver", "--l", "3", "--m", "3", "--out", str(p1))
    run(capsys, "build-quiver", "--l", "3", "--m", "3", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_build_bad_sizes(capsys):
    code, _, err = run(capsys, "build-quiver", "--l", "1", "--m", "3")
    assert code == 1


def leaves(doc):
    """Every dict key and every scalar of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from leaves(value)
    elif isinstance(doc, list):
        for item in doc:
            yield from leaves(item)
    else:
        yield doc


def decode_vertex(item):
    if item[0] == "det":
        return det_vertex(int(item[1]))
    _, n, i, j, dual = item
    return hive_vertex(int(n), int(i), int(j), {"0": False, "1": True}[dual])


def decode_ints(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


@pytest.mark.parametrize("l,m", [(2, 3), (3, 3)])
def test_cone_document_decodes_to_the_cone(capsys, l, m):
    code, out, _ = run(capsys, "cone", "--l", str(l), "--m", str(m))
    doc = json.loads(out)
    assert code == 0 and all(isinstance(x, str) for x in leaves(doc))
    decoded = Cone(int(doc["l"]), int(doc["m"]),
                   tuple(decode_vertex(v) for v in doc["vertices"]),
                   decode_ints(doc["facets"]), decode_ints(doc["grading"]))
    assert decoded == build_cone(l, m)


@pytest.mark.parametrize("stage", ["tilde", "bar"])
def test_quiver_document_decodes_to_the_quiver(capsys, stage):
    code, out, _ = run(capsys, "build-quiver", "--l", "2", "--m", "3",
                       "--stage", stage)
    doc = json.loads(out)
    assert code == 0 and all(isinstance(x, str) for x in leaves(doc))
    Q, sigma = {"tilde": build_tilde, "bar": build_bar}[stage](2, 3)
    assert tuple(decode_vertex(v) for v in doc["vertices"]) == Q.vertices
    assert {decode_vertex(v) for v in doc["frozen"]} == Q.frozen
    assert {(decode_vertex(s), decode_vertex(t)): int(k)
            for s, t, k in doc["arrows"]} == Q.arrows
    assert {decode_vertex(json.loads(key)): tuple(int(x) for x in w)
            for key, w in doc["weights"].items()} == sigma


def test_cone_command(capsys, tmp_path):
    expected = cone_to_json(build_cone(2, 3))
    code, out, _ = run(capsys, "cone", "--l", "2", "--m", "3")
    assert code == 0 and out == expected + "\n"
    path = tmp_path / "sub" / "cone.json"
    code, out, _ = run(capsys, "cone", "--l", "2", "--m", "3",
                       "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == expected


def test_out_file_has_the_mode_of_a_plain_write(capsys, tmp_path):
    # mkstemp makes its file 0600; the written file follows the umask
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        path = tmp_path / f"cone-{umask:o}.json"
        before = os.umask(umask)
        try:
            code, _, _ = run(capsys, "cone", "--l", "2", "--m", "2",
                             "--out", str(path))
        finally:
            os.umask(before)
        assert code == 0
        assert stat.S_IMODE(path.stat().st_mode) == mode, oct(umask)


def test_out_keeps_an_existing_files_mode(capsys, tmp_path):
    # a replaced file keeps its bits; a new path still follows the umask
    kept, new = tmp_path / "kept.json", tmp_path / "new.json"
    kept.write_text("stale")
    kept.chmod(0o600)
    before = os.umask(0o022)
    try:
        codes = [run(capsys, "cone", "--l", "2", "--m", "2",
                     "--out", str(p))[0] for p in (kept, new)]
    finally:
        os.umask(before)
    assert codes == [0, 0]
    expected = cone_to_json(build_cone(2, 2))
    assert kept.read_text() == new.read_text() == expected
    assert stat.S_IMODE(kept.stat().st_mode) == 0o600
    assert stat.S_IMODE(new.stat().st_mode) == 0o644


def test_out_through_a_symlink_writes_its_target(capsys, tmp_path):
    target = tmp_path / "target.json"
    target.write_text("stale")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, out, _ = run(capsys, "cone", "--l", "2", "--m", "2",
                       "--out", str(link))
    assert code == 0 and out == ""
    assert link.is_symlink()
    assert target.read_text() == cone_to_json(build_cone(2, 2))


def test_out_into_a_fifo_writes_in_place(capsys, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    code, _, _ = run(capsys, "cone", "--l", "2", "--m", "2",
                     "--out", str(fifo))
    reader.join(timeout=5)
    assert code == 0
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert got == [cone_to_json(build_cone(2, 2))]


def test_cone_out_onto_a_directory(capsys, tmp_path):
    # opening a directory for writing fails before any temp file is made
    target = tmp_path / "target"
    target.mkdir()
    assert_one_error_line(*run(capsys, "cone", "--l", "2", "--m", "2",
                               "--out", str(target)))
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_empty_out_is_an_error(capsys, tmp_path, monkeypatch):
    # as open("", "w"): no document on stdout and no file anywhere
    monkeypatch.chdir(tmp_path)
    for cmd in ("cone", "build-quiver"):
        assert_one_error_line(*run(capsys, cmd, "--l", "2", "--m", "2",
                                   "--out", ""))
    assert list(tmp_path.iterdir()) == []


def test_count_command(capsys, small_builds):
    code, out, _ = run(capsys, "count", "--l", "2", "--m", "2",
                       "--theta", "0,0,0,0,0,0")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "count", "--l", "2", "--m", "2",
                       "--theta=-1,0,1,0,1,0")
    assert code == 0 and out.strip() == "1"


def test_count_negative_theta_as_a_separate_argument(capsys, small_builds):
    # a value that starts with a minus sign and a digit is the option's
    # value, whether it follows a space or an equals sign
    for argv in (["--theta", "-1,-1,-1,1,1,1,1,2,3"],
                 ["--theta=-1,-1,-1,1,1,1,1,2,3"]):
        code, out, err = run(capsys, "count", "--l", "3", "--m", "3", *argv)
        assert (code, out.strip(), err) == (0, "22", "")
    code, out, err = run(capsys, "count", "--l", "3", "--m", "3",
                         "--theta", "-1")
    assert code == 1 and "length 9" in err


def test_count_bad_theta_length(capsys):
    code, _, err = run(capsys, "count", "--l", "2", "--m", "2",
                       "--theta", "1,2,3")
    assert code == 1


def test_validate_quick(capsys, small_builds):
    code, out, _ = run(capsys, "validate", "--l", "3", "--m", "3",
                       "--level", "quick")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["l", "m", "level", "ok", "checks"]
    assert (doc["l"], doc["m"], doc["level"]) == ("3", "3", "quick")
    assert doc["ok"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "facet-count-43" in names
    assert "exchange-relations" in names
    assert "twist-routes" in names


def test_validate_bad_size(capsys):
    code, _, _ = run(capsys, "validate", "--l", "1", "--m", "3")
    assert code == 1


def test_count_bad_theta_literal(capsys):
    # an empty field is an error, not a dropped coordinate
    for theta in ("1,x,0,0,0,0", "0,0,,0,0,0,0"):
        code, out, err = run(capsys, "count", "--l", "2", "--m", "2",
                             "--theta", theta)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def assert_one_error_line(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_coeff_bad_partition_literal(capsys):
    # the oracle command reads its partitions the same way
    for cmd, mu in itertools.product(("coeff", "oracle"), ("2,x", "2,,1")):
        assert_one_error_line(*run(capsys, cmd, "--mu", mu, "--nu", "2,1",
                                   "--lam", "2,1"))


def test_coeff_blank_partitions_are_empty(capsys):
    code, out, _ = run(capsys, "coeff", "--mu", "", "--nu", "", "--lam", "")
    assert code == 0 and out.strip() == "1"


def test_coeff_increasing_partition(capsys):
    # the library rejects the partition, for the oracle command too
    for cmd in ("coeff", "oracle"):
        code, out, err = run(capsys, cmd, "--mu", "1,2", "--nu", "2,1",
                             "--lam", "2,1")
        assert_one_error_line(code, out, err)
        assert "not weakly decreasing" in err


def test_build_quiver_out_under_a_file(capsys, tmp_path):
    blocker = tmp_path / "plain"
    blocker.write_text("")
    assert_one_error_line(*run(capsys, "build-quiver", "--l", "2", "--m", "2",
                               "--out", str(blocker / "x.json")))


@pytest.mark.parametrize("argv", [
    ["coeff", "--mu", "2,1", "--nu", "2,1"],
    ["cone", "--l", "x", "--m", "3"],
    ["frobnicate"],
    ["cone", "--l", "2", "--m", "2", "--cache-dir", "d"],
    ["count", "--l", "2", "--m", "2", "--theta", "0,0,0,0,0,0",
     "--workers", "2"],
    ["coeff", "--mu", "2,1", "--nu", "2,1", "--lam", "2,1", "--workers", "2"],
    ["validate", "--l", "2", "--m", "2", "--seed", "1"],
])
def test_bad_command_line_is_a_usage_error(capsys, argv):
    # exit 2 belongs to failed verification, so argparse's own 2 is replaced
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert_one_error_line(exc.value.code, out.out, out.err)


ERROR_CLASSES = [errors.HivekronError, errors.OutOfRange, errors.Inconsistent,
                 errors.DegenerateSample, errors.UnboundedFibre,
                 errors.SizeTooLargeForOracle]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_exit_code_of_each_error_class(capsys, monkeypatch, cls):
    def fail(*args, **kwargs):
        raise cls("injected")
    monkeypatch.setattr("hivekron.cli.kronecker", fail)
    code, out, err = run(capsys, "coeff", "--mu", "2,1", "--nu", "2,1",
                         "--lam", "2,1")
    assert code == (3 if cls is errors.UnboundedFibre else 1)
    assert out == "" and len(err.strip().splitlines()) == 1
    assert "injected" in err


def test_every_error_class_is_raised():
    defined = {c for c in vars(errors).values()
               if inspect.isclass(c) and issubclass(c, Exception)}
    assert defined == set(ERROR_CLASSES)
    src = pathlib.Path(__file__).parent.parent / "src" / "hivekron"
    text = "".join(p.read_text() for p in src.glob("*.py"))
    unraised = [c.__name__ for c in defined - {errors.HivekronError}
                if not re.search(rf"raise {c.__name__}\(", text)]
    assert not unraised


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0 and capsys.readouterr().out


def probe_env(**env):
    """The environment of a fresh interpreter with the package's src/ on
    its path, OPENBLAS_NUM_THREADS unset unless env sets it."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"))
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"} | env
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def probe(code, argv, **env):
    """Run code in a fresh interpreter with argv, in probe_env(**env)."""
    return subprocess.run([sys.executable, "-c", code] + argv,
                          env=probe_env(**env), capture_output=True,
                          text=True, timeout=120)


COLD_PROBE = """
import sys
import hivekron, hivekron.cli
imported = "numpy" in sys.modules
import hivekron.polyhedra as P
from hivekron.cli import main

def refuse(self, cone):
    raise AssertionError("fibre geometry built")

if sys.argv[1] != "coeff":
    P._FibreGeometry.__init__ = refuse
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
# numpy, and dataclasses and fractions with what they import
heavy = ("numpy", "dataclasses", "inspect", "fractions", "decimal")
print(imported, code, *(m for m in heavy if m in sys.modules),
      file=sys.stderr)
"""


def test_cold_commands_skip_numpy_and_geometry(tmp_path):
    # importing hivekron.cli pins OPENBLAS_NUM_THREADS, which works only
    # while no import has loaded numpy; a command that builds no fibre
    # geometry loads no heavy module at all
    for argv in (["--version"], ["cone", "--l", "3", "--m", "3"],
                 ["cone", "--l", "3", "--m", "3",
                  "--out", str(tmp_path / "cone.json")],
                 ["build-quiver", "--l", "3", "--m", "3"]):
        proc = probe(COLD_PROBE, argv)
        assert proc.stderr.strip().splitlines()[-1] == "False 0", \
            proc.stderr
    # a coefficient loads numpy, which loads inspect, and its certificates
    # load fractions; dataclasses stays out
    proc = probe(COLD_PROBE, ["coeff", "--mu", "2,1", "--nu", "2,1",
                              "--lam", "2,1"])
    imported, code, *loaded = proc.stderr.strip().splitlines()[-1].split()
    assert (imported, code) == ("False", "0") and "numpy" in loaded, \
        proc.stderr
    assert "dataclasses" not in loaded, proc.stderr


THREAD_PROBE = """
import os, sys
from hivekron.cli import main
code = main(sys.argv[1:])
print(code, "numpy" in sys.modules, len(os.listdir("/proc/self/task")),
      os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc")
def test_blas_runs_on_one_thread_unless_preset():
    argv = ["count", "--l", "2", "--m", "2", "--theta", "0,0,0,0,0,0"]
    default = probe(THREAD_PROBE, argv)
    preset = probe(THREAD_PROBE, argv, OPENBLAS_NUM_THREADS="2")
    assert default.stderr.split()[-4:] == ["0", "True", "1", "1"], \
        default.stderr
    code, loaded, _, value = preset.stderr.split()[-4:]
    assert (code, loaded, value) == ("0", "True", "2"), preset.stderr
    assert default.stdout == preset.stdout == "1\n"


RUN_PROBE = """
import gc, sys
from hivekron.cli import run
try:
    run()
except SystemExit as exc:
    code = exc.code
print(code, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)
"""

# python -m hivekron.cli, with the collector's state read at exit
MODULE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0,
                              file=sys.stderr))
runpy.run_module("hivekron.cli", run_name="__main__")
"""


def test_run_exits_with_mains_code_collector_off_and_frozen(capsys,
                                                            small_builds):
    argv = ["coeff", "--mu", "2,1", "--nu", "2,1", "--lam", "2,1", "--json"]
    code, out, err = run(capsys, *argv)
    proc = probe(RUN_PROBE, argv)
    assert proc.stderr.splitlines()[-1] == "0 False True", proc.stderr
    assert (code, proc.stdout, err) == (0, out, "")


def test_module_runs_through_run(capsys):
    # a usage error, so that main's code is not 0
    argv = ["coeff", "--mu", "2,1", "--nu", "2,1", "--lam", "1,1,1",
            "--l", "2"]
    code, out, err = run(capsys, *argv)
    proc = probe(MODULE_PROBE, argv)
    assert proc.stderr.splitlines() == err.splitlines() + ["False True"], \
        proc.stderr
    assert (proc.returncode, proc.stdout) == (code, out) == (1, "")


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_was(capsys, small_builds, enabled):
    was = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _, _ = run(capsys, "coeff", "--mu", "2,1", "--nu", "2,1",
                         "--lam", "2,1")
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["coeff", "--mu", "3,2,1", "--nu", "3,2,1", "--lam", "3,2,1", "--json"],
    ["count", "--l", "2", "--m", "2", "--theta", "0,0,0,0,0,0"]])
def test_a_closed_stdout_exits_quietly(argv):
    # the read end of stdout's pipe is closed before the command writes,
    # as when ``| head -1`` has read its line: the process exits EXIT_PIPE
    # with nothing on stderr, neither an error line nor a failed flush
    from hivekron.cli import EXIT_PIPE
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "hivekron.cli"] + argv,
                              env=probe_env(), stdout=w,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (EXIT_PIPE, "")
