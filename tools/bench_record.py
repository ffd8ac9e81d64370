#!/usr/bin/env python3
"""Record a BENCH_*.json file: the benchmark on a parent checkout and on this tree.

Run from the repository root, with the parent commit checked out elsewhere
(for example by ``git worktree add ../parent HEAD~1``):

    python3 tools/bench_record.py --parent ../parent --rounds 10 --out BENCH_14.json

For every round and every workload in BENCHMARK.json, the benchmark command
runs with ``--trace 0`` once in each tree, on the same seed; which tree runs
first alternates from round to round, so a drift in machine speed favours
neither.  The record keeps each tree's ``# env`` fingerprint, every run's
gated end-to-end metrics, their median and quartiles over the rounds, and
for each metric the number of pairs the change won.  Last, one ``--trace 1``
run per workload and tree gives the per-layer metrics.

Only the standard library is used.  Exit status: 0 when every run matched
its references, 1 when one did not.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_benchmark(
    root: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int
) -> dict:
    """One benchmark run in `root`: its env fingerprint and its result line."""
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    envs = [line[len("# env "):] for line in lines if line.startswith("# env ")]
    try:
        env, result = json.loads(envs[0]), json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            "benchmark did not run in %s (exit %d):\n%s" % (root, proc.returncode, proc.stderr)
        )
    return {
        "env": env,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def record(bench: dict, parent: Path, rounds: int, seconds: float) -> dict:
    command = bench["command"]
    gated = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    roots = {"parent": parent.resolve(), "change": ROOT}
    out: dict = {
        "command": command,
        "rounds": rounds,
        "seconds": seconds,
        "env": {side: {} for side in SIDES},
        "workloads": {},
        "trace": {side: {} for side in SIDES},
    }
    for spec in bench["workloads"]:
        workload = spec["name"]
        pairs = []
        for k in range(rounds):
            seed = k + 1
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            runs = {}
            for side in order:
                runs[side] = run_benchmark(roots[side], command, workload, seed, seconds, 0)
                print(
                    "# %s round %d %s: %s" % (workload, k + 1, side, runs[side]["metrics"]),
                    file=sys.stderr,
                )
            for side in SIDES:
                out["env"][side][workload] = runs[side].pop("env")
            pairs.append({"seed": seed, "first": order[0], **runs})
        entry: dict = {}
        for side in SIDES:
            entry[side] = {
                "correct": all(p[side]["correct"] for p in pairs),
                "attempted": sum(p[side]["attempted"] for p in pairs),
                "failed": sum(p[side]["failed"] for p in pairs),
                "metrics": {
                    name: summary([p[side]["metrics"][name] for p in pairs])
                    for name, _ in gated
                },
            }
        entry["change_wins"] = {
            name: sum(
                (p["change"]["metrics"][name] < p["parent"]["metrics"][name])
                if better == "lower"
                else (p["change"]["metrics"][name] > p["parent"]["metrics"][name])
                for p in pairs
            )
            for name, better in gated
        }
        entry["pairs"] = pairs
        out["workloads"][workload] = entry
    for spec in bench["workloads"]:
        for side in SIDES:
            traced = run_benchmark(roots[side], command, spec["name"], 1, seconds, 1)
            out["trace"][side][spec["name"]] = {
                "correct": traced["correct"],
                "metrics": traced["metrics"],
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--rounds", type=int, default=10, help="parent/change pairs per workload")
    parser.add_argument(
        "--seconds", type=float, default=None, help="run length (default: BENCHMARK.json)"
    )
    parser.add_argument("--out", type=Path, required=True, help="where to write the JSON record")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    data = record(bench, args.parent, args.rounds, seconds)
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    correct = all(
        data["workloads"][w][side]["correct"] for w in data["workloads"] for side in SIDES
    ) and all(t["correct"] for side in SIDES for t in data["trace"][side].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
