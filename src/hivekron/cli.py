"""Command-line surface: coefficients, oracle, builds, cones, validation.

This is the only module that knows the JSON form: `_wire` writes every
integer as a decimal string and every vertex as a list.  `--out` writes
as open(out, "w") would, but replaces a regular file atomically.  Commands
raise; `main` turns an error, and the parser a bad command line, into one
stderr line and an exit code.  `run` is the entry point of a `hivekron`
process.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import re
import stat
import sys

# BLAS runs on one thread unless OPENBLAS_NUM_THREADS is already set.
# Importing numpy starts OpenBLAS's thread pool, and the package imports
# numpy only inside a call, after this line; so does every script, which
# imports this module first.  The engine's products (at most F x 2d by
# 2d x row cap) are too small to use the pool, whose second thread costs
# a cold call about 80 ms on a 2-core host.  A process that imported
# numpy before this module keeps its pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .diamonds import build_bar, build_tilde
from .errors import (HivekronError, OutOfRange, SizeTooLargeForOracle,
                     UnboundedFibre)
from .kron import kronecker, kronecker_oracle
from .polyhedra import Cone, build_cone, count_lattice_points
from .quiver import VertexId

EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_UNBOUNDED = 3
# what a shell reports for a process killed by SIGPIPE: 128 + 13
EXIT_PIPE = 141


def _parse_ints(text: str) -> tuple:
    """Comma-separated integers as a tuple, a blank string none; OutOfRange
    if a field is empty or not an integer.  The library checks partitions."""
    try:
        return tuple(int(x) for x in text.split(",")) if text.strip() else ()
    except ValueError as exc:
        raise OutOfRange(f"bad integer list {text!r}: {exc}") from None


def _wire(x):
    """The JSON form of x: an int as a decimal string, a vertex as its list
    form, a tuple or list as a list, a dict value by value; bools and
    strings as they are."""
    if isinstance(x, (bool, str)):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, VertexId):
        if x.kind == "det":
            return ["det", str(x.n)]
        return ["hive", str(x.n), str(x.i), str(x.j), "1" if x.dual else "0"]
    if isinstance(x, dict):
        return {k: _wire(v) for k, v in x.items()}
    return [_wire(y) for y in x]


def quiver_to_json(Q, sigma) -> str:
    doc = {
        "vertices": Q.vertices,
        "frozen": sorted(Q.frozen, key=VertexId.sort_key),
        "arrows": sorted(_wire((s, t, mult))
                         for (s, t), mult in Q.arrows.items()),
        "weights": {json.dumps(_wire(v)): sigma[v] for v in Q.vertices},
    }
    return json.dumps(_wire(doc), indent=1, sort_keys=True)


def cone_to_json(c: Cone) -> str:
    doc = {"l": c.l, "m": c.m, "vertices": c.vertices, "facets": c.facets,
           "grading": c.grading}
    return json.dumps(_wire(doc), indent=1, sort_keys=True)


def _write_out(path: str, text: str):
    """Write text to path as open(path, "w") would: through a symlink to
    its target, and in place into a FIFO or a device.  A regular file or a
    new path is replaced atomically by a temporary file beside it, created
    0666 less the umask, as a plain write creates a file; a regular file's
    permission bits pass to it, but its owner, group and ACLs are lost.
    An empty path raises FileNotFoundError, as open("", "w") does."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.write(text)
        return
    folder, name = os.path.split(path)
    os.makedirs(folder, exist_ok=True)
    tmp = os.path.join(folder, f".{name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        if os.path.isfile(path):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text: str, out):
    """Write text to the file out, or print it without one."""
    if out is None:
        print(text)
    else:
        _write_out(out, text)


# ---------------------------------------------------------------------------
# commands


def cmd_coeff(args) -> int:
    mu = _parse_ints(args.mu)
    nu = _parse_ints(args.nu)
    lam = _parse_ints(args.lam)
    res = kronecker(mu, nu, lam, l=args.l, m=args.m)
    if args.json:
        doc = {
            "value": res.value,
            "l": res.l,
            "m": res.m,
            "orientation": res.orientation,
            "terms": [{"omega": om, "lambda_shift": sh, "sign": sg,
                       "count": ct} for om, sh, sg, ct in res.breakdown],
        }
        print(json.dumps(_wire(doc), indent=1))
    else:
        print(res.value)
    if args.verify:
        try:
            expected = kronecker_oracle(mu, nu, lam)
        except SizeTooLargeForOracle as exc:
            print(f"warning: {exc}; result is unverified", file=sys.stderr)
            return 0
        if expected != res.value:
            print(f"VERIFICATION FAILED: pipeline {res.value}, "
                  f"oracle {expected}", file=sys.stderr)
            return EXIT_VERIFY
    return 0


def cmd_oracle(args) -> int:
    mu = _parse_ints(args.mu)
    nu = _parse_ints(args.nu)
    lam = _parse_ints(args.lam)
    print(kronecker_oracle(mu, nu, lam))
    return 0


def cmd_build_quiver(args) -> int:
    build = build_tilde if args.stage == "tilde" else build_bar
    Q, sigma = build(args.l, args.m)
    _emit(quiver_to_json(Q, sigma), args.out)
    return 0


def cmd_cone(args) -> int:
    _emit(cone_to_json(build_cone(args.l, args.m)), args.out)
    return 0


def cmd_count(args) -> int:
    theta = _parse_ints(args.theta)
    cone = build_cone(args.l, args.m)
    print(count_lattice_points(cone, theta))
    return 0


def cmd_validate(args) -> int:
    from .validate import run_validation
    checks = run_validation(args.l, args.m, level=args.level)
    ok = all(c["ok"] for c in checks)
    doc = {"l": args.l, "m": args.m, "level": args.level, "ok": ok,
           "checks": checks}
    print(json.dumps(_wire(doc), indent=1))
    return 0 if ok else EXIT_VERIFY


class Parser(argparse.ArgumentParser):
    """A bad command line is a usage error (exit 1), not exit 2, which
    belongs to failed verification."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    p = Parser(
        prog="hivekron",
        description="Kronecker coefficients via lattice points in the "
                    "g-vector cone of a twisted glued hive quiver.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    # the options that several commands share, each declared once
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--l", type=int, required=True)
    size.add_argument("--m", type=int, required=True)
    triple = argparse.ArgumentParser(add_help=False)
    for name in ("--mu", "--nu", "--lam"):
        triple.add_argument(name, required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)

    q = sub.add_parser("coeff", parents=[triple],
                       help="compute a Kronecker coefficient")
    q.add_argument("--l", type=int, default=None,
                   help="cone size l, given with --m; with neither, the "
                        "smallest cone the partition lengths and first parts "
                        "allow, perhaps for a conjugate pair of the input")
    q.add_argument("--m", type=int, default=None,
                   help="cone size m, given with --l")
    q.add_argument("--verify", action="store_true",
                   help="cross-check against the character oracle")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_coeff)

    q = sub.add_parser("oracle", parents=[triple],
                       help="character-theoretic oracle value")
    q.set_defaults(func=cmd_oracle)

    q = sub.add_parser("build-quiver", parents=[size, out],
                       help="emit a quiver + weights as JSON")
    q.add_argument("--stage", choices=("tilde", "bar"), default="bar")
    q.set_defaults(func=cmd_build_quiver)

    q = sub.add_parser("cone", parents=[size, out],
                       help="emit the g-vector cone as JSON")
    q.set_defaults(func=cmd_cone)

    q = sub.add_parser("count", parents=[size],
                       help="count lattice points of one fibre")
    q.add_argument("--theta", required=True,
                   help="comma-separated target weight of length 2l+m")
    q.set_defaults(func=cmd_count)

    q = sub.add_parser("validate", parents=[size],
                       help="run the structural invariant suite")
    q.add_argument("--level", choices=("quick", "full"), default="quick")
    q.set_defaults(func=cmd_validate)
    return p


def _join_negative_values(argv):
    """argv with each value that starts with a minus sign and a digit
    joined to the option before it, as in --theta=-1,0: argparse reads
    a lone -1,0 as an option, and only -1 alone as a number."""
    out = []
    for arg in argv:
        if (out and re.fullmatch(r"--[\w-]+", out[-1])
                and re.match(r"-\d", arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    """Run one command; map its errors to one stderr line and an exit code.

    A closed stdout (its reader gone, as in ``| head -1``) is no error of
    the command: main exits EXIT_PIPE with no stderr line, after pointing
    stdout at devnull so that the flush at shutdown cannot fail again.
    stdout is flushed inside the command's try, so a closed pipe shows
    there and not at shutdown.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = make_parser().parse_args(_join_negative_values(argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except UnboundedFibre as exc:
        print(f"unbounded fibre: {exc}", file=sys.stderr)
        return EXIT_UNBOUNDED
    except (HivekronError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run():
    """Entry point of a `hivekron` process: main on sys.argv, with the
    cyclic garbage collector off, then exit with main's code.

    A process that ends after one command never needs a collection; with
    the collector on, a cold coeff call runs dozens, most of them while
    numpy is imported.  The freeze before exit moves every tracked object
    out of the collector's reach, so the final collection at interpreter
    shutdown, which runs even with the collector off, has nothing to
    walk.  main itself leaves an in-process caller's collector as it was.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
