"""Run one workload of the hamnt benchmark and print its metrics.

    python3 perfbench/run.py --workload classify_sweep --seed 0 --seconds 30 --trace 0

The program is driven only through `hamnt.cli.main(argv, out, err)`,
imported from `src/` beside this directory, in this one process and
thread: a closed loop with one client, each invocation starting after the
previous one returns.  One pass runs the workload's fixed invocation list;
passes repeat until the next one would overrun `--seconds` (at least one
pass always runs).  Every time reported is scaled to reference speed (see
`Reference`); the unscaled values are kept in the record.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics;
the per-layer counts come from the first traced pass and must repeat on
every later one.  Every output is checked by `oracle.py` outside the timed
passes.  The last line of standard output is the JSON result; the full
record (metadata, raw samples, every per-layer metric) goes to
`.perfbench_out/results/`, and the spans of traced passes beside it.
The exit status is 1 when an output is wrong or the counts do not repeat.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracle
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Set-up is repeated, after one cold run that is dropped, until at least
#: SETUP_MIN_RUNS runs have taken SETUP_MIN_S together; setup_s is their median.
SETUP_MIN_RUNS = 5
SETUP_MIN_S = 2.0

#: Seconds `reference_work` takes on the machine the benchmark was defined
#: on.  Every reported time is multiplied by REFERENCE_S over the median
#: time of `reference_work` around it: the probes inside its pass, between
#: the set-ups, or, for traced passes, all probes of the run.  So a drift
#: of the machine's speed, between runs or within one, cancels out.
REFERENCE_S = 0.025

#: Wall time between two reference probes inside an untraced pass.
PROBE_EVERY_S = 0.5

#: Reference probes before the first pass and after the last one.
PROBES_AT_ENDS = 5


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None, spec=None):
    spec = spec or load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, work_dir: Path):
    """Import hamnt afresh and generate the inputs; returns (seconds, cli, inputs).

    Earlier imports are dropped and collected first, so that repeated
    set-ups do not add to the peak RSS, as long as the caller holds none.
    """
    for name in [n for n in sys.modules if n == "hamnt" or n.startswith("hamnt.")]:
        del sys.modules[name]
    shutil.rmtree(work_dir, ignore_errors=True)
    gc.collect()
    start = time.perf_counter()
    cli = importlib.import_module("hamnt.cli")
    inputs = workloads.build(workload, seed, work_dir)
    return time.perf_counter() - start, cli, inputs


def run_pass(cli, argvs, tr=None, ref=None):
    """One timed pass over the invocations; returns (wall, cpu, op_wall, outputs).

    With a `Reference`, it is probed every PROBE_EVERY_S while the pass runs,
    also inside an invocation; the time of the probes is not counted.
    """
    ref = ref or Reference()
    op_wall, outputs = [], []
    with ref.probing(PROBE_EVERY_S) if tr is None else contextlib.nullcontext():
        probe_wall0, probe_cpu0 = ref.wall, ref.cpu
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for op, argv in enumerate(argvs):
            if tr is not None:
                tr.op = op
            out, err = io.StringIO(), io.StringIO()
            probed, start = ref.wall, time.perf_counter()
            try:
                rc = cli.main(argv, out, err)
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            op_wall.append(time.perf_counter() - start - (ref.wall - probed))
            outputs.append((rc, out.getvalue(), err.getvalue()))
        wall = time.perf_counter() - wall0 - (ref.wall - probe_wall0)
        cpu = time.process_time() - cpu0 - (ref.cpu - probe_cpu0)
    return wall, cpu, op_wall, outputs


def reference_work() -> int:
    """A fixed pure-Python workload that allocates, sorts and hashes small
    tuples and dicts as hamnt does, without touching hamnt; it works in
    small batches so that it adds little to the peak RSS."""
    rng = random.Random(1)
    distinct = 0
    for _ in range(80):
        items = [(rng.random(), (i, i + 1), {"k": i}) for i in range(500)]
        items.sort(key=lambda t: t[0])
        distinct += len({t[1] for t in items})
    return distinct


class Reference:
    """Times of `reference_work`, taken in this process but cut off from the
    state hamnt leaves in it: cyclic GC is off while a probe runs, so neither
    the objects hamnt keeps alive nor its GC settings change the times.

    `wall` and `cpu` accumulate the time spent in probes, so that callers
    can take it out of their own measurements.
    """

    def __init__(self):
        self.times: list[float] = []
        self.wall = self.cpu = 0.0
        self._busy = False

    def probe(self, runs: int = 1) -> None:
        # a timer tick that arrives while a probe runs is skipped, not nested
        if self._busy:
            return
        self._busy = True
        gc_enabled = gc.isenabled()
        gc.disable()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            for _ in range(runs):
                start = time.perf_counter()
                reference_work()
                self.times.append(time.perf_counter() - start)
        finally:
            if gc_enabled:
                gc.enable()
            self.cpu += time.process_time() - cpu0
            self.wall += time.perf_counter() - wall0
            self._busy = False

    @contextlib.contextmanager
    def probing(self, every_s: float):
        """Probe every `every_s` seconds of wall time, from a SIGALRM handler,
        which runs in this thread between two bytecodes of whatever runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    """The checked-out commit, when the checkout itself is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(args, cli, inputs, expected, ref):
    """Run passes until the time budget is spent; check every output.

    Returns (passes, failures, peak RSS in MB); `ref` is probed before the
    first pass, inside every untraced pass and after the last one, and
    each pass keeps the reference times taken inside it.
    """
    passes, failures = [], []
    ref.probe(PROBES_AT_ENDS)
    spent = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tr = tracing.Tracer() if traced else None
        probed = len(ref.times)
        with tr or contextlib.nullcontext():
            wall, cpu, op_wall, outputs = run_pass(cli, inputs.argvs, tr, ref)
        rss = peak_rss_mb()
        spent += wall
        for op, (exp, (rc, out, err)) in enumerate(zip(expected, outputs)):
            reason = oracle.check(inputs.workload, exp, rc, out, err)
            if reason:
                failures.append({"pass": len(passes), "op": op,
                                 "argv": inputs.argvs[op], "reason": reason})
        passes.append({"traced": traced, "wall_s": wall, "cpu_s": cpu,
                       "reference_s": ref.times[probed:],
                       "op_wall_s": op_wall, "tracer": tr})
        enough = len(passes) >= (2 if args.trace else 1)
        typical = statistics.median(p["wall_s"] for p in passes)
        if enough and spent + typical > args.seconds:
            ref.probe(PROBES_AT_ENDS)
            return passes, failures, rss


def speed_scale(times, fallback=None) -> float:
    """REFERENCE_S over the median of reference times (`fallback` if none)."""
    return REFERENCE_S / statistics.median(times) if times else fallback


def end_to_end(plain, setup_times, rss, scales=None, setup_scale=1.0) -> dict:
    """The end-to-end metrics; the times of each pass are multiplied by its
    entry of `scales`, the set-up times by `setup_scale`."""
    scales = scales or [1.0] * len(plain)
    # an invocation's latency is its median over the passes, which keeps the
    # percentiles clear of the noise tail of single samples
    op_ms = [statistics.median(t * k for t, k in zip(times, scales)) * 1000.0
             for times in zip(*(p["op_wall_s"] for p in plain))]
    p99 = statistics.quantiles(op_ms, n=100, method="inclusive")[98] if len(op_ms) > 1 else op_ms[0]
    return {
        "wall_s": statistics.median(p["wall_s"] * k for p, k in zip(plain, scales)),
        "cpu_s": statistics.median(p["cpu_s"] * k for p, k in zip(plain, scales)),
        "op_p50_ms": statistics.median(op_ms),
        "op_p99_ms": p99,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup_times) * setup_scale,
    }


def per_layer(plain, traced, scale) -> tuple[dict, bool]:
    """Counts of the first traced pass, median self times, and the tracing
    overhead (traced wall_s minus untraced wall_s); times multiplied by `scale`."""
    per_pass = [p["tracer"].metrics() for p in traced]
    first = per_pass[0]
    values = {}
    repeat = True
    for name, value in first.items():
        if name.endswith("self_s"):
            values[name] = statistics.median(m[name] for m in per_pass) * scale
        else:
            values[name] = value
            repeat = repeat and all(m[name] == value for m in per_pass)
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in plain)) * scale
    return values, repeat


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (SRC / "hamnt" / "cli.py").is_file():
        print(f"no hamnt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        # the first set-up compiles and reads the sources cold; it is dropped
        setup_cold = set_up(args.workload, args.seed, work_dir)[0]
        ref = Reference()
        setup_times = []
        while len(setup_times) < SETUP_MIN_RUNS or sum(setup_times) < SETUP_MIN_S:
            ref.probe()
            setup_times.append(set_up(args.workload, args.seed, work_dir)[0])
        ref.probe()
        seconds, cli, inputs = set_up(args.workload, args.seed, work_dir)
        setup_times.append(seconds)
        setup_probes = list(ref.times)
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"hamnt was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        expected = oracle.expectations(inputs)
        passes, failures, rss = measure(args, cli, inputs, expected, ref)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    scale = speed_scale(ref.times)
    e2e = end_to_end(plain, setup_times, rss,
                     [speed_scale(p["reference_s"], scale) for p in plain],
                     speed_scale(setup_probes))
    attempted = len(passes) * len(inputs.argvs)
    layer, counts_repeat = per_layer(plain, traced, scale) if traced else ({}, True)

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    spans = 0
    if traced:
        spans = tracing.write_spans(results_dir / f"{stamp}-spans.csv.gz",
                                    [(i, p["tracer"].spans) for i, p in enumerate(passes)
                                     if p["traced"]])
    record = {
        "meta": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "commit": git_commit(),
            "group_cap": os.environ.get("HNT_GROUP_CAP",
                                        sys.modules["hamnt.wreath_group"].DEFAULT_GROUP_CAP),
            "input_digest": inputs.digest, "invocations_per_pass": len(inputs.argvs),
            "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
            "closed_loop_clients": 1,
        },
        "samples": {
            "setup_s": setup_times, "setup_cold_s": setup_cold,
            "setup_reference_s": setup_probes, "reference_s": ref.times,
            "passes": [{k: v for k, v in p.items() if k != "tracer"} for p in passes],
        },
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "end_to_end": e2e, "scale": scale,
        "end_to_end_unscaled": end_to_end(plain, setup_times, rss),
        "per_layer": layer, "counts_repeat": counts_repeat, "spans_written": spans,
    }
    results_path = results_dir / f"{stamp}.json"
    results_path.write_text(json.dumps(record, indent=1))

    section = "per_layer" if args.trace else "end_to_end"
    values = layer if args.trace else e2e
    units = {m["name"]: m["unit"] for m in spec[section]}
    print(f"{args.workload} seed={args.seed} passes={len(plain)} untraced"
          f"/{len(traced)} traced, attempted={attempted} failed={len(failures)} "
          f"failed_frac={len(failures) / attempted:g}")
    if not counts_repeat:
        print("warning: per-layer counts differ between traced passes")
    for failure in failures[:5]:
        print(f"FAILED pass {failure['pass']} op {failure['op']}: {failure['reason']}")
    print(f"full record: {results_path.relative_to(ROOT)}")
    correct = not failures and counts_repeat
    result = {
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
