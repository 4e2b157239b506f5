"""One measured library process: set-up, then timed rounds of kronecker calls.

Usage: python3 perfbench/worker.py JOB.json OUT.json

``run.py`` writes the job and reads the result; PYTHONPATH names the
program's ``src/``.  Job keys:

  cones    (l, m) pairs to set up: build_cone and a count at theta=0
  items    [mu, nu, lam, l, m] calls of one round
  phases   worker counts; the first phase repeats whole rounds for
           ``seconds``, later ones run one round for comparison
  seconds  measuring time of the first phase
  host     out only: times of the host-speed loop (``hostspeed.py``), taken
           before set-up, after it and about twice a second during phases
  trace    record spans and write them to ``spans``.  Each call of a
           phase is then made twice in a row, once with the wrappers in
           place and once without, the order alternating from item to
           item, so that the paired latencies give the tracing overhead
           under the same host conditions
"""

import sys
import time

import hostspeed

HOST = [hostspeed.sample()]
START = time.perf_counter()

import json  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402


def untraced_span(name, info=None):
    return nullcontext()


def timed_call(hk, index, item, workers, traced):
    """[item, latency, value, [[sign, count]], error, traced]."""
    mu, nu, lam, l, m = item
    t = time.perf_counter()
    try:
        res = hk.kronecker(mu, nu, lam, l=l, m=m, workers=workers)
    except Exception:
        return [index, None, None, None, traceback.format_exc(limit=-1),
                traced]
    latency = time.perf_counter() - t
    return [index, latency, res.value,
            [[sign, count] for _, _, sign, count in res.breakdown], None,
            traced]


def run_phase(hk, items, workers, seconds, tracer=None):
    """Whole rounds of calls until ``seconds`` have passed, one at least.

    With a tracer, each traced call runs inside a ``bench.call`` span, so
    that the span's self time is the call's time outside every layer.
    """
    calls = []
    rounds = 0
    start = last_loop = time.perf_counter()
    with tracer.span("bench.phase", workers) if tracer else nullcontext():
        while True:
            for index, item in enumerate(items):
                if time.perf_counter() - last_loop >= hostspeed.EVERY_S:
                    HOST.append(hostspeed.sample())
                    last_loop = time.perf_counter()
                if tracer is None:
                    calls.append(timed_call(hk, index, item, workers, False))
                    continue
                for traced in ((True, False) if index % 2 == 0
                               else (False, True)):
                    if traced:
                        tracer.install()
                        with tracer.span("bench.call", index):
                            calls.append(timed_call(hk, index, item, workers,
                                                    True))
                    else:
                        tracer.uninstall()
                        calls.append(timed_call(hk, index, item, workers,
                                                False))
            rounds += 1
            if time.perf_counter() - start >= seconds:
                break
    return {"workers": workers, "rounds": rounds, "calls": calls}


def main(job_path, out_path):
    with open(job_path) as fh:
        job = json.load(fh)
    # polyhedra imports numpy on its first count; importing it here keeps
    # that import in set-up and out of the first geometry span
    import numpy  # noqa: F401
    import hivekron as hk

    tracer = None
    span = untraced_span
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        span = tracer.span

    def first_count(l, m):
        with span("bench.geometry", f"l{l}m{m}"):
            cone = hk.build_cone(l, m)
            return hk.count_lattice_points(cone, [0] * (2 * l + m))

    theta0 = {f"l{l}m{m}": first_count(l, m) for l, m in job["cones"]}
    setup_s = time.perf_counter() - START
    HOST.append(hostspeed.sample())
    phases = [run_phase(hk, job["items"], w, job["seconds"] if k == 0 else 0,
                        tracer)
              for k, w in enumerate(job["phases"])]
    with open(out_path, "w") as fh:
        json.dump({"setup_s": setup_s, "theta0": theta0, "phases": phases,
                   "host": HOST}, fh)
    if tracer is not None:
        tracer.dump(job["spans"])


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
