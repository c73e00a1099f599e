#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json over several seeds: one trajectory point.

    python3 bench/record.py --out bench/trajectory/NAME.json

For each workload of BENCHMARK.json it makes one run per seed 1-10 with
--trace 0 and one traced run on seed 1, then records, per end-to-end
metric, the median, the quartiles (statistics.quantiles, n=4) and the
quartile spread as a share of the median, next to the metric's bound.  A later change is
judged by comparing its point with this one, run on the same machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run(cmd, workload, seed, seconds, trace):
    argv = [*cmd, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".bench_out" /
                         f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="write the trajectory point here")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    steady = True
    for wl in (w["name"] for w in spec["workloads"]):
        values, runs = {}, []
        for seed in SEEDS:
            result, detail = run(spec["command"], wl, seed, spec["run_seconds"], 0)
            point.setdefault("provenance", detail["provenance"])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "loadavg": [detail["provenance"]["loadavg_start"],
                                     detail["provenance"]["loadavg_end"]]})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": vals}
            ok = spread <= bounds[name] / 3
            steady &= ok
            print(f"  {name:12s} median={med:.6g} spread={spread:.3f} bound={bounds[name]}"
                  + ("" if ok else "  (spread above a third of the bound)"))
        traced, _ = run(spec["command"], wl, SEEDS[0], spec["run_seconds"], 1)
        point["workloads"][wl] = {
            "end_to_end": summary, "runs": runs,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    print("steady" if steady else "NOT steady: some spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
