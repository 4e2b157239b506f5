"""Benchmark of hivekron as its users run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: table-sweep and dfs-heavy (library calls in one fresh
process) and cli-cold (one fresh ``hivekron coeff`` process per call).
With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  End-to-end timings
are scaled to a reference host speed (see ``hostspeed.py``).  Progress goes to
stderr; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same object,
with details, is written to the ``--results`` directory (default
``perfbench/results/``), where ``compare.py`` reads it.

Every value the program returns is checked against ``reference.py``,
which shares no code with the program, after the measured processes have
ended.  The program is taken from ``src/`` of the checkout; the run exits
with code 2 and prints no result when it is not there.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170          # a run ends, with or without a result, by then
SETUP_SAMPLES = 5         # library set-ups per run; setup_s is their median
START_SAMPLES = 3         # fresh ``--version`` processes for cli.start_s
DECIMAL = re.compile(r"-?[0-9]+\Z")


class BenchError(Exception):
    pass


class Run:
    """State of one benchmark run: its processes, files and checks."""

    def __init__(self, args):
        self.args = args
        self.items = workloads.make(args.workload, args.seed)
        self.cones = workloads.cones(self.items)
        self.deadline = time.monotonic() + DEADLINE_S
        self.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.results = Path(args.results)
        self.tmp = self.results / f"tmp-{os.getpid()}"
        self.spans_dir = self.results / "spans" / self.tag
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))
        self.errors = []          # failed checks: the run is not correct
        self.attempted = 0
        self.failed = 0
        self.reference_s = 0.0
        self._reference = {}
        self.host = []            # times of the host-speed loop in the run

    # -- processes ---------------------------------------------------------

    def process(self, argv, env=None):
        """Run one child to its end; (exit code, stdout, stderr, wall s).

        The child gets its own process group, so that on time-out it is
        killed together with any pool workers it forked.
        """
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        t = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env or self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"out of time in {argv[1:3]}")
        return proc.returncode, out, err, time.perf_counter() - t

    def worker(self, name, cones, phases, trace=False):
        job_path = self.tmp / f"{name}.job.json"
        out_path = self.tmp / f"{name}.out.json"
        job = {"cones": cones, "items": self.items, "phases": phases,
               "seconds": self.args.seconds, "trace": trace,
               "spans": str(self.spans_dir / f"{name}.json")}
        job_path.write_text(json.dumps(job))
        code, _, err, _ = self.process(
            [sys.executable, str(HERE / "worker.py"), str(job_path),
             str(out_path)])
        if code != 0:
            raise BenchError(f"worker {name} exited {code}:\n{err[-2000:]}")
        res = json.loads(out_path.read_text())
        self.host += res["host"]
        for cone, count in res["theta0"].items():
            self.check(count == 1, f"{name}: theta=0 fibre of {cone} "
                                   f"holds {count} points, not 1")
        return res

    def cli(self, args, env, spans=None):
        if spans is None:
            argv = [sys.executable, "-m", "hivekron.cli"] + args
        else:
            argv = [sys.executable, str(HERE / "launcher.py"), spans] + args
        return self.process(argv, env)

    def fill_cache(self, cache_dir, traced=False):
        """A fresh cone cache, filled by ``hivekron cone``; its wall time."""
        shutil.rmtree(cache_dir, ignore_errors=True)
        env = dict(self.env, HIVEKRON_CACHE_DIR=str(cache_dir))
        total = 0.0
        for l, m in self.cones:
            spans = (str(self.spans_dir / f"cone-l{l}m{m}.json")
                     if traced else None)
            code, _, err, wall = self.cli(
                ["cone", "--l", str(l), "--m", str(m)], env, spans)
            if code != 0:
                raise BenchError(f"hivekron cone --l {l} --m {m} exited "
                                 f"{code}:\n{err[-2000:]}")
            total += wall
        return env, total

    def cli_phase(self, env, traced=False, after_call=None):
        """Whole rounds of fresh ``coeff --json`` processes for --seconds;
        (calls, rounds).

        With ``traced`` each call is made twice in a row, through the
        launcher (traced) and straight (untraced), the order alternating
        from item to item.  ``after_call`` runs after each call.
        """
        calls = []
        start = time.perf_counter()
        for rounds in itertools.count(1):
            for index, (mu, nu, lam, _, _) in enumerate(self.items):
                args = ["coeff", "--mu", _csv(mu), "--nu", _csv(nu),
                        "--lam", _csv(lam), "--json"]
                kinds = [False]
                if traced:
                    kinds = [True, False] if index % 2 == 0 else [False, True]
                for kind in kinds:
                    spans = (str(self.spans_dir / f"call-{len(calls)}.json")
                             if kind else None)
                    code, out, err, wall = self.cli(args, env, spans)
                    calls.append({"item": index, "code": code, "out": out,
                                  "err": err[-2000:], "wall": wall,
                                  "spans": spans})
                    if after_call:
                        after_call()
            if time.perf_counter() - start >= self.args.seconds:
                return calls, rounds

    def start_time(self):
        walls = []
        for _ in range(START_SAMPLES):
            code, _, err, wall = self.cli(["--version"], self.env)
            if code != 0:
                raise BenchError(f"hivekron --version exited {code}: {err}")
            walls.append(wall)
        return statistics.median(walls)

    # -- checks ------------------------------------------------------------

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)

    def expected(self, mu, nu, lam):
        key = (tuple(mu), tuple(nu), tuple(lam))
        if key not in self._reference:
            t = time.perf_counter()
            self._reference[key] = reference.kronecker(*key)
            self.reference_s += time.perf_counter() - t
        return self._reference[key]

    def check_value(self, index, value, terms):
        """value = reference = sum of sign * count, every count >= 0."""
        mu, nu, lam, _, _ = self.items[index]
        where = f"g({_csv(mu)} | {_csv(nu)} | {_csv(lam)})"
        self.check(value == sum(sign * count for sign, count in terms),
                   f"{where}: {value} is not the signed sum of {terms}")
        self.check(all(count >= 0 for _, count in terms),
                   f"{where}: negative count in {terms}")
        expected = self.expected(mu, nu, lam)
        self.check(value == expected,
                   f"{where}: program {value}, reference {expected}")

    def library_latencies(self, phase):
        """Check every call of a phase; latencies of those that did not fail."""
        latencies = []
        for index, latency, value, terms, error, _ in phase["calls"]:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                print(f"failed: item {index}: {error.strip()}",
                      file=sys.stderr)
                continue
            self.check_value(index, value, terms)
            latencies.append(latency)
        return latencies

    def check_same_counts(self, a, b):
        """Two phases (worker counts) give the same count for every fibre."""
        first = {}
        for index, _, _, terms, error, _ in a["calls"]:
            if error is None:
                first.setdefault(index, terms)
        for index, _, _, terms, error, _ in b["calls"]:
            if error is None and index in first:
                self.check(terms == first[index],
                           f"item {index}: workers={a['workers']} gives "
                           f"{first[index]}, workers={b['workers']} {terms}")

    def cli_latencies(self, calls):
        latencies = []
        for call in calls:
            self.attempted += 1
            if call["code"] != 0:
                self.failed += 1
                print(f"failed: item {call['item']}: exit {call['code']}: "
                      f"{call['err'].strip()}", file=sys.stderr)
                continue
            try:
                value, terms = _parse_coeff(call["out"])
            except (ValueError, KeyError, TypeError) as exc:
                self.check(False, f"item {call['item']}: bad JSON: {exc}")
                continue
            self.check_value(call["item"], value, terms)
            latencies.append(call["wall"])
        return latencies


def _csv(parts):
    return ",".join(str(x) for x in parts)


def _parse_coeff(text):
    """(value, [[sign, count]]) from ``coeff --json``; integers as strings."""
    doc = json.loads(text)

    def integer(s):
        if not isinstance(s, str) or not DECIMAL.match(s):
            raise ValueError(f"{s!r} is not a decimal string")
        return int(s)

    integer(doc["l"])
    integer(doc["m"])
    terms = []
    for term in doc["terms"]:
        for x in term["omega"] + term["lambda_shift"]:
            integer(x)
        terms.append([integer(term["sign"]), integer(term["count"])])
    return integer(doc["value"]), terms


def _throughput(latencies):
    return len(latencies) / sum(latencies) if latencies else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


# -- end-to-end run ------------------------------------------------------


def end_to_end(run):
    """The end-to-end metrics, at the reference host speed, and the same
    figures as measured."""
    if run.args.workload == "cli-cold":
        # one fill for the calls, then one more after each call, so that
        # the set-up samples spread over the whole run
        env, wall = run.fill_cache(run.tmp / "cache")
        setup = [wall]

        def after_call():
            setup.append(run.fill_cache(run.tmp / "cache-sample")[1])
            # between two CLI processes the host is sampled more often
            # than in a worker, so that as many samples cover a run
            run.host.extend(hostspeed.sample() for _ in range(4))

        after_call()
        calls, _ = run.cli_phase(env, after_call=after_call)
        latencies = run.cli_latencies(calls)
    else:
        # set-up-only processes before and after the measured one, so that
        # the set-up samples spread over the whole run
        setup = [run.worker(f"setup-{k}", run.cones, [])["setup_s"]
                 for k in range(SETUP_SAMPLES // 2)]
        res = run.worker("main", run.cones, [1])
        setup.append(res["setup_s"])
        setup += [run.worker(f"setup-{k}", run.cones, [])["setup_s"]
                  for k in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
        latencies = run.library_latencies(res["phases"][0])
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    raw = {
        "setup_s": statistics.median(setup),
        "coeff_per_s": _throughput(latencies),
        "coeff_p50_ms": (statistics.median(latencies) * 1e3
                         if latencies else 0.0),
    }
    k = hostspeed.scale(run.host)
    metrics = {
        "setup_s": _metric(raw["setup_s"] * k, "s"),
        "coeff_per_s": _metric(raw["coeff_per_s"] / k, "1/s"),
        "coeff_p50_ms": _metric(raw["coeff_p50_ms"] * k, "ms"),
        "peak_rss_mb": _metric(peak_kb / 1024, "MB"),
    }
    return metrics, dict(raw, host_scale=k, host_samples=len(run.host))


# -- traced run ----------------------------------------------------------


class Layers:
    """Spans of one or more traced processes.

    ``setup`` holds the spans of the workload's set-up, ``timed`` the
    layer spans inside its traced timed calls.  Spans in neither (a
    comparison phase on two workers) serve their own figures.
    """

    def __init__(self):
        self.spans = []
        self.setup = set()
        self.timed = set()
        self.absent = set()

    def add(self, path):
        """Append a process's spans; the indices they got."""
        spans, absent = tracing.load(path)
        base = len(self.spans)
        for s in spans:
            if s[tracing.PARENT] >= 0:
                s[tracing.PARENT] += base
        self.spans += spans
        self.absent.update(absent)
        return set(range(base, len(self.spans)))

    def subtree(self, root):
        return {root, *tracing.descendants(self.spans, root)}

    def roots(self, name, parent=None):
        return [i for i, s in enumerate(self.spans)
                if s[tracing.NAME] == name
                and (parent is None or s[tracing.PARENT] == parent)]

    def named(self, name, scope):
        return [self.spans[i] for i in sorted(scope)
                if self.spans[i][tracing.NAME] == name]

    def total(self, name, scope):
        return sum(s[tracing.END] - s[tracing.START]
                   for s in self.named(name, scope))

    def wall(self, i):
        return self.spans[i][tracing.END] - self.spans[i][tracing.START]


def _overhead(calls):
    """Summed latency of traced calls over that of their untraced twins."""
    traced = sum(latency for latency, kind in calls if kind)
    untraced = sum(latency for latency, kind in calls if not kind)
    return traced / untraced if untraced else 0.0


def cold_geometry(run):
    """{"l3m3": (wall s, LP share), ...}: the first count at theta=0 of
    each reference cone, each in a fresh traced process."""
    out = {}
    for l, m in workloads.REFERENCE_CONES:
        name = f"geometry-l{l}m{m}"
        run.worker(name, [(l, m)], [], trace=True)
        layers = Layers()
        layers.add(run.spans_dir / f"{name}.json")
        for i in layers.roots("bench.geometry"):
            lp = layers.total("lp.solve_lp", layers.subtree(i))
            out[layers.spans[i][tracing.INFO]] = (layers.wall(i),
                                                  lp / layers.wall(i))
    return out


def library_layers(run):
    # dfs-heavy runs its items once more on two workers: the only use of
    # the fork-pool split in polyhedra, and a check that it counts alike
    phases = [1, 2] if run.args.workload == "dfs-heavy" else [1]
    res = run.worker("traced", run.cones, phases, trace=True)
    first = res["phases"][0]
    run.library_latencies(first)
    for other in res["phases"][1:]:
        run.library_latencies(other)
        run.check_same_counts(first, other)
    overhead = _overhead([(c[1], c[5]) for c in first["calls"]
                          if c[4] is None])

    layers = Layers()
    spans = layers.add(run.spans_dir / "traced.json")
    phase_roots = layers.roots("bench.phase")
    layers.setup = spans.difference(*map(layers.subtree, phase_roots))
    count_s = {}        # count time per round, by worker count
    for root, phase in zip(phase_roots, res["phases"]):
        calls = layers.roots("bench.call", parent=root)
        scope = set().union(*map(layers.subtree, calls)) - set(calls)
        count_s[phase["workers"]] = (layers.total("polyhedra.count", scope)
                                     / phase["rounds"])
        if root == phase_roots[0]:
            layers.timed = scope
            main_calls = calls
    own = tracing.self_times(layers.spans)
    return layers, {
        "rounds": first["rounds"],
        "timed_wall": sum(map(layers.wall, main_calls)),
        "unattributed": sum(own[i] for i in main_calls),
        "overhead": overhead,
        "speedup": count_s[1] / count_s[2] if count_s.get(2) else 0.0,
        "main_s": 0.0,
        "cache_bytes": 0,
    }


def cli_layers(run):
    cache = run.tmp / "cache-traced"
    env, _ = run.fill_cache(cache, traced=True)
    calls, rounds = run.cli_phase(env, traced=True)
    run.cli_latencies(calls)
    done = [c for c in calls if c["code"] == 0]
    overhead = _overhead([(c["wall"], c["spans"] is not None) for c in done])
    cache_bytes = sum(p.stat().st_size for p in cache.rglob("*") if p.is_file())

    layers = Layers()
    for l, m in run.cones:
        layers.setup |= layers.add(run.spans_dir / f"cone-l{l}m{m}.json")
    mains, unattributed, timed_wall = [], 0.0, 0.0
    for call in done:
        if call["spans"] is None:
            continue
        spans = layers.add(call["spans"])
        layers.timed |= spans
        mains.append(layers.wall(min(spans)))
        unattributed += call["wall"] - mains[-1]
        timed_wall += call["wall"]
    return layers, {
        "rounds": rounds,
        "timed_wall": timed_wall,
        "unattributed": unattributed,
        "overhead": overhead,
        "speedup": 0.0,
        "main_s": statistics.median(mains) if mains else 0.0,
        "cache_bytes": cache_bytes,
    }


def per_layer(run):
    """Per-layer metrics.  Figures of the timed calls are per round, so
    they do not grow with the number of rounds a run fits in; set-up
    figures are once per run."""
    layers, facts = (cli_layers(run) if run.args.workload == "cli-cold"
                     else library_layers(run))
    geometry = cold_geometry(run)
    setup, timed, rounds = layers.setup, layers.timed, facts["rounds"]

    def calls(name):
        return (len(layers.named(name, setup))
                + len(layers.named(name, timed)) / rounds)

    def seconds(name):
        return (layers.total(name, setup)
                + layers.total(name, timed) / rounds)

    counts = layers.named("polyhedra.count", timed)
    count_s = layers.total("polyhedra.count", timed)
    points = sum(s[tracing.INFO] or 0 for s in counts)
    coeffs = len(layers.named("kron.kronecker", timed))
    own = tracing.self_times(layers.spans)
    self_s = dict.fromkeys(tracing.LAYERS, 0.0)
    for i in timed:
        self_s[layers.spans[i][tracing.NAME]] += own[i] / rounds
    metrics = {}
    for l, m in workloads.REFERENCE_CONES:
        metrics[f"polyhedra.geometry_s.l{l}m{m}"] = _metric(
            geometry[f"l{l}m{m}"][0], "s")
    for l, m in ((3, 3), (3, 4)):
        metrics[f"lp.geometry_share.l{l}m{m}"] = _metric(
            geometry[f"l{l}m{m}"][1], "ratio")
    metrics.update({
        "lp.solve_lp_calls": _metric(calls("lp.solve_lp"), "count"),
        "lp.solve_lp_s": _metric(seconds("lp.solve_lp"), "s"),
        "diamonds.build_bar_s": _metric(seconds("diamonds.build_bar"), "s"),
        "pathmods.submodule_dims_s": _metric(
            seconds("pathmods.submodule_dims"), "s"),
        "polyhedra.build_cone_s": _metric(seconds("polyhedra.build_cone"), "s"),
        "polyhedra.count_calls": _metric(len(counts) / rounds, "count"),
        "polyhedra.count_s": _metric(count_s / rounds, "s"),
        "polyhedra.count_p50_us": _metric(
            statistics.median(s[tracing.END] - s[tracing.START]
                              for s in counts) * 1e6 if counts else 0.0, "us"),
        "polyhedra.empty_fibres": _metric(
            sum(1 for s in counts if s[tracing.INFO] == 0) / rounds, "count"),
        "polyhedra.points": _metric(points / rounds, "count"),
        "polyhedra.points_per_s": _metric(points / count_s if count_s else 0.0,
                                          "1/s"),
        "polyhedra.parallel_speedup": _metric(facts["speedup"], "ratio"),
        "kron.fibres_per_coeff": _metric(
            len(counts) / coeffs if coeffs else 0.0, "ratio"),
        "kron.kronecker_self_s": _metric(self_s.pop("kron.kronecker"), "s"),
        "cli.start_s": _metric(run.start_time(), "s"),
        "cli.main_s": _metric(facts["main_s"], "s"),
        "cli.cached_cone_calls": _metric(
            len(layers.named("cli.cached_cone", timed)) / rounds, "count"),
        "cli.cache_bytes": _metric(facts["cache_bytes"], "B"),
    })
    for name, value in self_s.items():
        metrics[f"self_s.{name}"] = _metric(value, "s")
    metrics["self_s.unattributed"] = _metric(facts["unattributed"] / rounds,
                                             "s")
    metrics["trace.self_sum_share"] = _metric(
        1 - facts["unattributed"] / facts["timed_wall"], "ratio")
    metrics["trace.overhead"] = _metric(facts["overhead"], "ratio")
    if layers.absent:
        print("absent (reported as 0): " + ", ".join(sorted(layers.absent)),
              file=sys.stderr)
    return metrics, sorted(layers.absent)


# -- entry point ---------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(HERE / "results"),
                   help="directory for result and span files")
    args = p.parse_args(argv)
    if not (SRC / "hivekron" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'hivekron'} is missing",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    run = Run(args)
    run.tmp.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(run.spans_dir, ignore_errors=True)
    run.spans_dir.mkdir(parents=True)
    absent, measured = [], {}
    try:
        if args.trace:
            metrics, absent = per_layer(run)
            metrics["check.reference_s"] = _metric(run.reference_s, "s")
        else:
            metrics, measured = end_to_end(run)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    for message in run.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {"correct": not run.errors, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, absent=absent,
                  measured=measured,
                  check_failures=len(run.errors))
    (run.results / f"{run.tag}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
