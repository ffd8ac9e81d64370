#!/usr/bin/env python3
"""Build the input pools and their reference outputs in perfbench/data.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

The pools are drawn from fixed pool seeds, so rerunning this on the same
commit reproduces the inputs and reference digests; only the measured
``cost_ms`` (used to band inputs of similar cost) depends on the machine.
"""
from __future__ import annotations

import json
import random
import sys
import time

import run
import workloads as wl

INVARIANTS_POOL_SEED = 20221101
IDEAL_POOL_SEED = 20221102
GRID_CAP = 24  # default grid cap (total multiplicity) at the reference commit
BAND = 5  # profiles per band
UNDER_BANDS, OVER_BANDS = 36, 164  # 200 bands: 18% of each pass under the cap
VARIANTS = 8  # seeded variants kept per ideal-products slot
CANDIDATES = 16  # variants drawn per slot; the VARIANTS nearest the median cost stay


def total_multiplicity(M, N) -> int:
    return sum(m + n - 1 for m in M for n in N)


PROBE = run.SpeedProbe()


def timed(fn):
    """fn() and its time in reference milliseconds (see run.SpeedProbe), so
    that machine drift while the pool is built does not mis-band inputs."""
    PROBE.sample(force=True)
    start = time.perf_counter()
    result = fn()
    end = time.perf_counter()
    PROBE.sample(force=True)
    return result, round((end - start) * PROBE.factor(start, end) * 1e3, 3)


def invariants_pool(hfg) -> dict:
    rng = random.Random(INVARIANTS_POOL_SEED)
    quota = {True: UNDER_BANDS * BAND, False: OVER_BANDS * BAND}
    chosen = {True: [], False: []}
    seen = set()
    while any(len(chosen[k]) < quota[k] for k in quota):
        M = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
        N = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
        key = (tuple(sorted(M)), tuple(sorted(N)))
        under = total_multiplicity(M, N) <= GRID_CAP
        if key in seen or len(chosen[under]) >= quota[under]:
            continue
        seen.add(key)
        chosen[under].append({"M": M, "N": N, "under_cap": under})
    sweep = wl.InvariantsSweep(hfg, 0, pool={"t_max": 2, "profiles": []})
    profiles = []
    band_base = {True: 0, False: UNDER_BANDS}
    for under, items in chosen.items():
        for item in items:
            report, item["cost_ms"] = timed(lambda: sweep.run(item))
            item["report_sha256"] = wl.digest(report)
        items.sort(key=lambda item: item["cost_ms"])
        for i, item in enumerate(items):
            item["band"] = band_base[under] + i // BAND
        profiles.extend(items)
    return {"pool_seed": INVARIANTS_POOL_SEED, "t_max": 2, "profiles": profiles}


def _point(rng: random.Random, stratum: str) -> list[str]:
    """Coordinates of small height: no zero (off), one zero (line), or a
    coordinate point (vertex)."""
    if stratum == "vertex":
        coords = [0, 0, 0]
        coords[rng.randrange(3)] = 1
    else:
        coords = [rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for _ in range(3)]
        if stratum == "line":
            coords[rng.randrange(3)] = 0
    return [str(c) for c in coords]


def ideal_pool(hfg) -> dict:
    rng = random.Random(IDEAL_POOL_SEED)
    slots = []
    for pair in ("off.off", "off.line", "off.vertex", "line.line"):
        for m in range(1, 5):
            for n in range(1, 6 - m):
                slots.append({"kind": "product", "stratum": pair, "m": m, "n": n})
    for kind in ("irrelevant", "join"):
        for stratum in ("off", "line", "vertex"):
            for t in range(1, 5):
                slots.append({"kind": kind, "stratum": stratum, "t": t})
    products = wl.IdealProducts(hfg, 0, pool={"ops": []})
    ops = []
    for slot, spec in enumerate(slots):
        candidates = []
        for _ in range(CANDIDATES):
            item = dict(spec, slot=slot)
            strata = spec["stratum"].split(".")
            item["P"] = _point(rng, strata[0])
            if spec["kind"] == "product":
                item["Q"] = _point(rng, strata[1])
            report, item["cost_ms"] = timed(lambda: products.run(item))
            item["verdicts"] = [inst.passed for inst in report.instances]
            item["basis_sha256"] = wl.basis_digest(products.product_ideal(item))
            candidates.append(item)
        # Coordinates of different height can double a check's cost; keeping
        # the variants of typical cost keeps a pass's cost nearly independent
        # of which variants the run seed picks.
        median = sorted(c["cost_ms"] for c in candidates)[CANDIDATES // 2]
        candidates.sort(key=lambda c: abs(c["cost_ms"] - median))
        ops.extend(candidates[:VARIANTS])
    products.release()
    return {"pool_seed": IDEAL_POOL_SEED, "ops": ops}


def main() -> int:
    hfg = run.load_hfg()
    wl.DATA.mkdir(exist_ok=True)
    for name, build in (
        (wl.InvariantsSweep.pool_file, invariants_pool),
        (wl.IdealProducts.pool_file, ideal_pool),
    ):
        pool = build(hfg)
        with open(wl.DATA / name, "w", encoding="utf-8") as handle:
            json.dump(pool, handle, separators=(",", ":"))
            handle.write("\n")
        print("wrote %s" % (wl.DATA / name).relative_to(run.ROOT), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
