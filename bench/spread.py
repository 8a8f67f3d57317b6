"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--workloads audit,grid,kraus] [--seeds 10]
                            [--first-seed 1] [--out results.json]

Reads the command, run length and bounds from BENCHMARK.json, runs every
workload once per seed (untraced, one after another), and prints for each
end-to-end metric the median, the quartiles and the interquartile range
as a share of the median. A spread wider than a third of the metric's
bound is flagged, because such a metric cannot resolve a change of the
size of its bound. ``--out`` saves every run's result and environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    env = [line[len("# env "):] for line in lines if line.startswith("# env ")]
    result["env"] = json.loads(env[0]) if env else None
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs, summary, steady = {}, {}, True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(spec, workload, seed)
            result["seed"] = seed
            runs[workload].append(result)
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
            steady &= result["correct"]
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in runs[workload]])
            stats["bound"] = metric["bound"]
            summary[workload][name] = stats
            flag = "" if stats["spread"] < metric["bound"] / 3 else "  WIDER THAN BOUND/3"
            if flag and name != "setup_s":
                steady = False
            print(f"  {workload:<6} {name:<12} median {stats['median']:.6g} "
                  f"IQR/median {stats['spread']:.4f} (bound {metric['bound']}){flag}")
    if args.out:
        args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
