import inspect
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys

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


def test_cone_out_onto_a_directory(capsys, tmp_path):
    # the atomic write fails on replacing a directory, and removes its
    # temp file from the directory's parent
    target = tmp_path / "target"
    target.mkdir()
    assert_one_error_line(*run(capsys, "cone", "--l", "2", "--m", "2",
                               "--out", str(target)))
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


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


def probe(code, argv, **env):
    """Run code in a fresh interpreter with argv and the package's src/ on
    its path, OPENBLAS_NUM_THREADS unset unless env sets it."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"))
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"} | env
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code] + argv, env=env,
                          capture_output=True, text=True, timeout=120)


COLD_PROBE = """
import sys
import hivekron, hivekron.cli
imported = "numpy" in sys.modules
import hivekron.polyhedra as P
from hivekron.cli import main

def refuse(self, cone):
    raise AssertionError("fibre geometry built")

P._FibreGeometry.__init__ = refuse
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(imported, "numpy" in sys.modules, code, file=sys.stderr)
"""


def test_cold_commands_skip_numpy_and_geometry(tmp_path):
    # main can set OPENBLAS_NUM_THREADS only while no import has loaded numpy
    for argv in (["--version"], ["cone", "--l", "3", "--m", "3"],
                 ["cone", "--l", "3", "--m", "3",
                  "--out", str(tmp_path / "cone.json")]):
        proc = probe(COLD_PROBE, argv)
        assert proc.stderr.strip().splitlines()[-1] == "False False 0", \
            proc.stderr


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
