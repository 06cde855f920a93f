#!/usr/bin/env python3
"""triagerl benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
`src/`. Workloads are defined in workloads.py and described in README.md.

One run sets the inputs up at least three times (reporting the median as
`setup_s`), then repeats the workload's operation for about `--seconds`,
starting another only while it should end in time, and reports the
medians, with CPU-bound times scaled to a reference host (see
REF_UNIT_S below). With `--trace 1` it alternates untraced and traced
operations and reports the per-layer metrics of the traced ones instead.
The last line of standard output is the result object; the line before it
is the run record (versions, thread environment, hashes, errors).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Set-up runs at least this many times, and more while their total is short.
SETUP_REPEATS = 3
SETUP_MIN_TOTAL_S = 2.0
# Operations per run, at least; in a traced run the second one is traced.
MIN_OPS = 2
# A shared host's speed drifts: a fixed loop on a 2-vCPU VM ran at one speed
# or twice it, switching every few seconds, and every CPU-bound time drifts
# with it. So while set-up and CPU-bound operations run, a timer signal runs
# a small fixed reference computation every SAMPLE_EVERY_S seconds and times
# it, and each measured interval is scaled to a host on which one reference
# unit takes REF_UNIT_S seconds: scaled = measured * REF_UNIT_S / (the mean
# unit time sampled during the interval, or at the SCALE_MIN_SAMPLES samples
# nearest it when the interval is short). The samples add 1-2% to the times
# they interrupt, on every commit alike.
REF_UNIT_S = 0.0004
SAMPLE_EVERY_S = 0.025
SCALE_MIN_SAMPLES = 15
# The share of samples dropped at each end before averaging: a sample that
# was descheduled for a time slice says nothing about the 25 ms around it.
TRIM = 0.1
# BLAS runs on one thread. On a 2-vCPU shared host its second thread made
# train() no faster, and now and then stalled one call tenfold while it
# waited for a descheduled vCPU. Set before numpy is imported.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "triage_warnings_per_s": "warnings/s",
    "train_epoch_s": "s/epoch",
    "pipeline_s": "s",
}


def _median(values: list[float]) -> float:
    """Median, or 0 when every operation failed before it could be timed."""
    return float(statistics.median(values)) if values else 0.0


class Reference:
    """The reference computation and its samples.

    One unit is regular-expression scans of Rust-like text and a JSON parse,
    as in snippet featurization and report parsing. `sampling()` runs a
    unit from a SIGALRM handler, on the main thread between bytecodes, while
    its block runs; `scale(t0, t1)` turns the samples into a scale factor.
    """

    def __init__(self):
        fn = "fn f{0}<'a, T: Send>(x: &'a mut T, p: *const u8) {{ unsafe {{ *p as u32 }} }}\n"
        self.text = "".join(fn.format(i) for i in range(35))
        self.blob = json.dumps([{"id": f"w{i:04x}", "file": f"src/m{i % 9}.rs", "line": i,
                                 "message": "heap use after free"} for i in range(90)])
        self.patterns = [re.compile(p) for p in (
            r"[A-Za-z_]\w*", r"&\s*mut\b", r"\bunsafe\s*\{", r"'[A-Za-z_]\w*", r"\*\s*(?:const|mut)\b")]
        self.at: list[float] = []     # sample start times, ascending
        self.took: list[float] = []   # unit times
        for _ in range(20):  # warm-up
            self.unit()

    def unit(self) -> int:
        found = sum(len(p.findall(self.text)) for p in self.patterns)
        return found + sum(len(w["message"]) for w in json.loads(self.blob))

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.unit()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def sampling(self, on: bool = True):
        if not on:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, t0: float, t1: float) -> float:
        """REF_UNIT_S over the trimmed mean unit time sampled in or nearest [t0, t1]."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        while hi - lo < SCALE_MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            # Widen towards the nearer neighbour.
            mid = (t0 + t1) / 2
            if hi >= len(self.at) or (lo > 0 and mid - self.at[lo - 1] <= self.at[hi] - mid):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise RuntimeError("no reference samples were taken")
        took = sorted(self.took[lo:hi])
        cut = int(len(took) * TRIM)
        return REF_UNIT_S / statistics.fmean(took[cut:len(took) - cut])

    def seconds(self, intervals) -> float:
        """Scaled length of (start, end) intervals, summed."""
        return sum((t1 - t0) * self.scale(t0, t1) for t0, t1 in intervals)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        return "unknown"


def run_record(args) -> dict:
    import numpy as np
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": _commit(), "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas(), "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _check_names() -> None:
    """The metric names printed must be the ones BENCHMARK.json declares."""
    from spans import PER_LAYER_UNITS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != E2E_UNITS:
        raise SystemExit(f"BENCHMARK.json end_to_end {declared} != {E2E_UNITS}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != PER_LAYER_UNITS:
        raise SystemExit("BENCHMARK.json per_layer differs from spans.PER_LAYER_UNITS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update({k: "1" for k in THREAD_ENV})

    if not (ROOT / "src" / "triagerl" / "__init__.py").is_file():
        print(f"no triagerl sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        # Harness files go to the temp directory; keep them inside this run.
        (work / "tmp").mkdir()
        os.environ["TMPDIR"] = str(work / "tmp")
        tempfile.tempdir = None
        os.environ.pop("TRIAGE_FUZZ_CMD", None)
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(BENCH_DIR))
        _check_names()
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run(args, work: Path) -> int:
    import workloads
    from spans import PER_LAYER_UNITS, Tracer, layer_metrics, write_spans

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    record = run_record(args)
    errors: list[str] = []

    ref = Reference()
    setup_times, raw_setup_times, digests = [], [], set()
    with ref.sampling():
        while len(setup_times) < SETUP_REPEATS or sum(raw_setup_times) < SETUP_MIN_TOTAL_S:
            t0 = time.perf_counter()
            inputs = workload.setup(work, args.seed)
            t1 = time.perf_counter()
            raw_setup_times.append(t1 - t0)
            setup_times.append((t0, t1))
            digests.add(inputs["digest"])
    # After the loop, so that samples on both sides of the last set-up count.
    setup_times = [ref.seconds([iv]) for iv in setup_times]
    if len(digests) != 1:
        errors.append("set-up is not deterministic: input digests differ")
    record["input_digest"] = inputs["digest"]
    record["setup_runs"] = len(setup_times)

    tracer = Tracer() if args.trace else None
    # A traced run reports no end-to-end times, so its operations are not
    # sampled or scaled.
    scaled = workload.cpu_bound and not args.trace
    results, traced_results, layer_runs = [], [], []
    start = time.perf_counter()
    durations: list[float] = []
    index = 0
    while True:
        traced = bool(tracer) and index % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.install()
            try:
                result = workload.op(inputs, work, index)
            finally:
                tracer.uninstall()
            last_spans = tracer.collect()
            layer_runs.append(layer_metrics(last_spans, result.timed))
            traced_results.append(result)
        else:
            with ref.sampling(scaled):
                result = workload.op(inputs, work, index)
            results.append(result)
        index += 1
        now = time.perf_counter()
        durations.append(now - t0)
        # Start another operation only if it should end within --seconds,
        # so that a run lasts about --seconds however slow the operation;
        # but always make two, so that there is a median.
        fits = now + _median(durations) <= start + args.seconds
        if not fits and len(durations) >= MIN_OPS:
            break

    def raw(intervals) -> float:
        return sum(t1 - t0 for t0, t1 in intervals)

    seconds = ref.seconds if scaled else raw
    every = results + traced_results
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    for r in every:
        errors += r.errors
    hashes = {k: sorted({r.hashes.get(k) for r in every}) for k in every[0].hashes}
    if any(len(v) > 1 for v in hashes.values()):
        errors.append("outputs differ between repetitions of the same inputs")
    # Each stage's median over the operations, so a burst of noise that hits
    # one stage of one operation does not move the sum.
    stages = {k: None for r in results for k in r.stages}
    stage_s = {k: _median([seconds(r.stages[k]) for r in results if k in r.stages]) for k in stages}
    raw_stage_s = {k: _median([raw(r.stages[k]) for r in results if k in r.stages]) for k in stages}
    record.update(hashes=hashes, ops=len(results), traced_ops=len(traced_results),
                  op_wall_s=[r.wall for r in results],
                  op_s=[sum(seconds(v) for v in r.stages.values()) for r in results],
                  stage_s=stage_s, raw_stage_s=raw_stage_s,
                  raw_setup_s=_median(raw_setup_times), info=every[-1].info, errors=errors[:20])
    q = statistics.quantiles(ref.took, n=10)
    record["reference_unit_s"] = {"samples": len(ref.took), "p10": q[0], "median": q[4], "p90": q[8]}

    if args.trace:
        metrics = {name: _median([run[name] for run in layer_runs]) for name in layer_runs[0]}
        untraced = _median([r.wall for r in results])
        metrics["trace.overhead_share"] = (
            _median([r.wall for r in traced_results]) / untraced - 1.0 if untraced else 0.0)
        metrics["trace.absent"] = float(len(tracer.absent))
        metrics["proc.peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["failed_share"] = failed / attempted
        record["absent"] = tracer.absent
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        record["spans_file"] = str(out / f"{args.workload}.spans.jsonl")
        write_spans(record["spans_file"], last_spans)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": _median(setup_times),
            "triage_warnings_per_s": _median(
                [n / seconds([(t0, t1)]) for r in results for n, t0, t1 in r.rates]),
            "train_epoch_s": _median(
                [seconds([(t0, t1)]) / n for r in results for n, t0, t1 in r.epochs]),
            "pipeline_s": sum(stage_s.values()),
        }
        units = E2E_UNITS
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
