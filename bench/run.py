"""Benchmark for orliczkit: one workload, one seed, one measured run.

    python3 bench/run.py --workload dual_certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there, nothing is installed. The workload's batch of operations runs in
whole passes until ``--seconds`` of wall time have gone by (at least
three passes). Every output is checked; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are CPU times scaled to a fixed machine speed. After every
operation the run times a fixed reference kernel (program-style Python
with no orliczkit code), one sample per started 10 ms of the operation.
An operation's scaled time is its mean CPU time over the passes times
``REFERENCE_S / r``, where ``r`` is the mean of the reference samples
taken right before and right after it: the seconds it would take on a
machine where the kernel takes ``REFERENCE_S``. The machine of the
README's reference figures runs at two speeds, switching within
milliseconds, in a mix that drifts over seconds and minutes; samples
taken next to an operation see the speed it saw, so the scaling cancels
the mix. README.md has the measurements.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``ops_per_s``: operations of the batch per scaled CPU second, over the
  sum of the operations' scaled times;
* ``op_p50_ms``: the median over operations of their scaled times;
* ``peak_rss_mb``: peak resident memory of this process, 10^6 bytes;
* ``setup_s``: median over fresh interpreters, started one at a time
  before the first pass, of the CPU time from interpreter start to the end
  of input building (``import orliczkit`` included), scaled by reference
  samples taken just before the interpreter starts and in it just after
  its set-up.

With ``--trace 1`` the program's public functions are wrapped in spans
(see spans.py) and the metrics are the per-layer ones; the spans of the
first pass are written to ``bench/out/``.
"""

from __future__ import annotations

import os

# one thread per process, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("dual_certify", "truncated_diagnostics", "cli_session")
SETUP_PROBES = 5
PROBE_REFERENCE_SAMPLES = 16
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120
# nominal duration of one reference-kernel sample: about its uncontended
# CPU time on the 2-CPU machine the README describes
REFERENCE_S = 0.3e-3
# one reference sample per started REFERENCE_EVERY_S of operation time
REFERENCE_EVERY_S = 0.01

_REF_VECTOR = np.linspace(-1.0, 1.0, 16)


@dataclasses.dataclass(frozen=True)
class _Point:
    x: float
    values: np.ndarray


def _scaled(x: float, scale: float = 1.0) -> float:
    return x * scale


def reference_kernel() -> float:
    """Fixed work in the program's style, and no orliczkit code: calls with
    keyword arguments, tuple-keyed dicts, frozen dataclasses, small numpy
    arrays copied and reduced. Returns its CPU time.

    A bytecode loop with large numpy calls slowed less than the program did
    when the machine slowed; this mix slows about as much (README.md).
    """
    start = time.process_time()
    acc: dict = {}
    total = 0.0
    for i in range(200):
        key = (i % 37, "k")
        acc[key] = acc.get(key, 0.0) + _scaled(i, scale=0.5)
        _Point(float(i), _REF_VECTOR)
    for _ in range(30):
        v = np.asarray(_REF_VECTOR, dtype=float).copy()
        v.setflags(write=False)
        total += float(np.dot(v, v)) + float(np.exp(v - v.max()).sum())
    return time.process_time() - start


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="build the inputs in this fresh interpreter, print "
                        "the set-up times and exit")
    return p.parse_args(argv)


def import_program() -> float:
    """Import orliczkit from the checkout's ``src/``; returns its CPU time."""
    sys.path.insert(0, SRC)
    start = time.process_time()
    import orliczkit
    elapsed = time.process_time() - start
    where = os.path.abspath(orliczkit.__file__)
    if not where.startswith(SRC + os.sep):
        raise ImportError(f"orliczkit came from {where}, not from {SRC}")
    return elapsed


def setup_probe(args, import_s: float) -> int:
    import workloads
    workdir = os.path.join(OUT, f"probe-{os.getpid()}")
    try:
        workloads.build(args.workload, args.seed, workdir)
        # CPU time of this process since the interpreter started
        setup_s = time.process_time()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = [reference_kernel() for _ in range(PROBE_REFERENCE_SAMPLES)]
    print(json.dumps({"import_s": import_s, "setup_s": setup_s,
                      "reference_after": after}))
    return 0


def run_probe(args) -> dict:
    """Set-up times of one fresh interpreter, scaled by reference samples
    taken here just before it starts and in it just after its set-up."""
    before = [reference_kernel() for _ in range(PROBE_REFERENCE_SAMPLES)]
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    scale = REFERENCE_S / statistics.fmean(before + probe.pop("reference_after"))
    probe["import_scaled_s"] = probe["import_s"] * scale
    probe["setup_scaled_s"] = probe["setup_s"] * scale
    return probe


class Run:
    """Raw measurements of one run, kept in running sums.

    Nothing here grows while the run measures: growing lists are
    reallocated on the heap the program allocates from, and a
    long-lived block at the top of the heap keeps the allocator from
    returning freed memory, which changes how often the program's large
    allocations page-fault from one pass to the next.
    """

    def __init__(self, n_ops: int) -> None:
        self.cpu_sum = [0.0] * n_ops      # per op: CPU s summed over passes
        self.cpu_min = [math.inf] * n_ops
        self.cpu_max = [0.0] * n_ops
        self.ran = [0] * n_ops            # per op: passes in which it ran
        self.near_sum = [0.0] * n_ops     # per op: reference samples next to it
        self.near_n = [0] * n_ops
        self.ref_sum = 0.0                # every reference sample
        self.ref_n = 0
        self.ref_min = math.inf
        self.probes: list[dict] = []
        self.attempted = self.failed = self.wrong = self.passes = 0
        self.problems: list[str] = []

    def scaled(self, i: int) -> float | None:
        """Op ``i``'s mean CPU time at the reference speed."""
        if not self.ran[i]:
            return None
        return (self.cpu_sum[i] / self.ran[i] * REFERENCE_S
                / (self.near_sum[i] / self.near_n[i]))


def measure(args, ops, tracer) -> Run:
    """The set-up probes, then whole passes over ``ops`` for
    ``args.seconds`` of wall time."""
    import checks

    run = Run(len(ops))
    # the probes run first: what they leave on the heap is then in place
    # before the first pass of every run
    run.probes = [run_probe(args) for _ in range(SETUP_PROBES)]
    window = 0.0
    while run.passes < MIN_PASSES or window < args.seconds:
        # no pass pays for, or holds the memory of, an earlier pass's garbage
        gc.collect()
        state: dict = {}
        before, before_n = reference_kernel(), 1
        pass_sum, pass_n = before, 1
        run.ref_min = min(run.ref_min, before)
        started = time.perf_counter()
        for i, op in enumerate(ops):
            run.attempted += 1
            t0 = time.process_time()
            try:
                if tracer is None:
                    result = op.run(state)
                else:
                    result = tracer.call("op", op.run, (state,), {})
            except Exception:  # an operation that raises counts as failed
                run.failed += 1
                run.problems.append(f"{op.name} raised:\n"
                                    f"{traceback.format_exc()}")
                continue
            elapsed = time.process_time() - t0
            n_after = 1 + int(elapsed / REFERENCE_EVERY_S)
            after = 0.0
            for _ in range(n_after):
                sample = reference_kernel()
                after += sample
                run.ref_min = min(run.ref_min, sample)
            try:
                op.check(result)
            except checks.CheckError as exc:
                run.wrong += 1
                run.problems.append(f"{op.name}: {exc}")
            del result
            run.ran[i] += 1
            run.cpu_sum[i] += elapsed
            run.cpu_min[i] = min(run.cpu_min[i], elapsed)
            run.cpu_max[i] = max(run.cpu_max[i], elapsed)
            run.near_sum[i] += before + after
            run.near_n[i] += before_n + n_after
            pass_sum += after
            pass_n += n_after
            before, before_n = after, n_after
        window += time.perf_counter() - started
        run.passes += 1
        run.ref_sum += pass_sum
        run.ref_n += pass_n
        if tracer is not None:
            tracer.end_pass(REFERENCE_S * pass_n / pass_sum)
    return run


def end_to_end(run: Run) -> dict:
    per_op = [s for s in map(run.scaled, range(len(run.ran))) if s is not None]
    return {
        "setup_s": (statistics.median(p["setup_scaled_s"] for p in run.probes),
                    "s"),
        "ops_per_s": (len(per_op) / sum(per_op) if per_op else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3 if per_op else 0.0,
                      "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_program()
    except ImportError as exc:
        sys.stderr.write(f"cannot import orliczkit from {SRC}: {exc}\n")
        return 2
    if args.setup_probe:
        return setup_probe(args, import_s)

    import workloads
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        run = measure(args, ops, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in run.problems[:20]:
        sys.stderr.write(line.rstrip() + "\n")
    e2e = end_to_end(run)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = e2e
    else:
        from spans import layer_metrics
        metrics = layer_metrics(
            tracer, len(ops),
            statistics.median(p["import_scaled_s"] for p in run.probes))
        spans = tracer.write(os.path.join(OUT, f"trace-{tag}.jsonl"))
        sys.stderr.write(
            f"traced end-to-end ({run.passes} passes, {spans} spans in the "
            "first):" + "".join(f" {k}={v:.6g}" for k, (v, _u) in e2e.items())
            + "\n")
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, passes=run.passes, seconds=args.seconds,
                  reference_mean_s=run.ref_sum / run.ref_n,
                  reference_min_s=run.ref_min, probes=run.probes,
                  ops={op.name: {"passes": run.ran[i],
                                 "scaled_s": run.scaled(i),
                                 "cpu_mean_s": (run.cpu_sum[i] / run.ran[i]
                                                if run.ran[i] else None),
                                 "cpu_min_s": (run.cpu_min[i]
                                               if run.ran[i] else None),
                                 "cpu_max_s": run.cpu_max[i],
                                 "nearby_reference_s": (
                                     run.near_sum[i] / run.near_n[i]
                                     if run.near_n[i] else None)}
                       for i, op in enumerate(ops)})
    with open(os.path.join(OUT, f"result-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
