"""Run every workload untraced and traced; print every metric with its unit.

    python3 perfbench/report.py [--seed 0] [--seconds 20]

Each run is a fresh `run.py` process, so peak RSS and per-instance caches
belong to one workload.  The untraced run gives the end-to-end metrics
plus failed_frac (failed invocations / attempted, checked by the oracle);
the traced run gives every per-layer metric, including those not listed in
BENCHMARK.json, and the tracing overhead.  Exits 1 if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a fresh process; returns its full record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    path = next(line.split(": ", 1)[1] for line in lines if line.startswith("full record: "))
    return json.loads((ROOT / path).read_text())


def row(name: str, value, unit: str) -> str:
    number = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
    return f"   {name:<44} {number} {unit}"


def unit_of(name: str, units: dict) -> str:
    if name in units:
        return units[name]
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}

    all_correct = True
    for workload in workloads.NAMES:
        plain = run_one(workload, args.seed, args.seconds, 0)
        traced = run_one(workload, args.seed, args.seconds, 1)
        all_correct &= plain["failed"] == 0 and traced["failed"] == 0
        passes = plain["samples"]["passes"]
        print(f"== {workload}  seed={args.seed}  digest={plain['meta']['input_digest'][:16]}")
        print(f"   end to end, tracing off, at reference speed (run-wide scale {plain['scale']:.3f}):")
        print(f"   medians over {len(passes)} passes of "
              f"{plain['meta']['invocations_per_pass']} invocations "
              f"({len(passes[0]['op_wall_s'])} per-invocation latencies), "
              f"set-up median of {len(plain['samples']['setup_s'])}")
        for name, value in plain["end_to_end"].items():
            print(row(name, value, unit_of(name, units)))
        for name, value in plain["end_to_end_unscaled"].items():
            if name != "peak_rss_mb":
                print(row(name + " (unscaled)", value, unit_of(name, units)))
        print(row("failed_frac", plain["failed_frac"],
                  f"({plain['failed']} of {plain['attempted']})"))
        layer = traced["per_layer"]
        print(f"   per layer, tracing on: counts repeat across traced passes: "
              f"{traced['counts_repeat']}")
        for name, value in layer.items():
            print(row(name, value, unit_of(name, units)))
        functions = {k: v for k, v in layer.items()
                     if k.endswith(".self_s") and k.count(".") == 2}
        top = max(functions, key=functions.get)
        print(f"   largest function self time: {top} ({functions[top]:.4g} s)")
        search = layer["transitivity.setwise_stabilizer.self_s"]
        group_code = layer["wreath_group.self_s"] + layer["code_model.self_s"]
        print(f"   setwise_stabilizer self {search:.4g} s vs wreath_group + code_model "
              f"self {group_code:.4g} s")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
