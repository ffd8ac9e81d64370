"""The three benchmark workloads: their seeded inputs, operations and checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  An operation returns a short error
string when its output does not match the reference, and None when it does.

invariants_sweep and ideal_products draw their inputs from pools stored in
``perfbench/data`` together with reference outputs taken at the seed commit.
A pool is cut into bands (invariants) or slots (ideal products) of inputs of
similar cost; each pass takes one input from every band, chosen by the seed,
in an order that spreads cheap and costly bands evenly.  A run that stops in
the middle of a pass has therefore still seen a representative mix, and the
per-pass cost barely depends on the seed, while the inputs do.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

GOLDEN = 0.6180339887498949


def is_skipped(instance: dict) -> bool:
    """A check instance that did not run, under any of the encodings in use.

    The flag convention ("skipped: ..."), the "not computed" placeholder and
    an explicit skipped status all count, so renaming one encoding into
    another does not change the count.
    """
    flag = instance.get("flag") or ""
    status = str(instance.get("status") or "").lower()
    return (
        flag.startswith("skipped")
        or instance.get("computed") == "not computed"
        or status == "skipped"
    )


def digest(data) -> str:
    """sha256 of the canonical JSON text of `data`."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def basis_digest(ideal) -> str:
    """Digest of an ideal's reduced grevlex Groebner basis."""
    return digest([g.to_json_terms() for g in ideal.groebner_basis()])


def spread_order(count: int) -> list[int]:
    """Positions 0..count-1 (cheapest first) in golden-ratio order.

    Every prefix of the returned order samples the cost ranks nearly
    uniformly, so a partial pass is a miniature of a whole one.
    """
    return sorted(range(count), key=lambda i: (i * GOLDEN) % 1.0)


def load_pool(name: str) -> dict:
    with open(DATA / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


class BandedPool:
    """Pool items grouped by a key; one seeded pick per group and pass."""

    def __init__(self, items: list[dict], key: str, seed: int, name: str):
        groups: dict[int, list[dict]] = {}
        for item in items:
            groups.setdefault(item[key], []).append(item)
        ranked = sorted(
            groups.values(),
            key=lambda g: sum(i["cost_ms"] for i in g) / len(g),
        )
        self.groups = [ranked[i] for i in spread_order(len(ranked))]
        self.seed = seed
        self.name = name

    @property
    def pass_size(self) -> int:
        return len(self.groups)

    def pass_items(self, k: int) -> list[dict]:
        rng = random.Random("%s:%d:%d" % (self.name, self.seed, k))
        return [rng.choice(group) for group in self.groups]


class InvariantsSweep:
    """abstract_grid + invariants_report on seeded multiplicity profiles."""

    name = "invariants_sweep"
    whole_passes = False
    pool_file = "invariants_sweep.json"

    def __init__(self, hfg, seed: int, pool: dict | None = None):
        self.hfg = hfg
        self.pool = pool if pool is not None else load_pool(self.pool_file)
        self.t_max = self.pool["t_max"]
        self.bands = BandedPool(self.pool["profiles"], "band", seed, self.name)
        self.pass_size = self.bands.pass_size

    def pass_ops(self, k: int) -> list[dict]:
        return self.bands.pass_items(k)

    @staticmethod
    def group(item: dict) -> int:
        return item["band"]

    def run(self, item: dict):
        g = self.hfg.fatgrid.abstract_grid(item["M"], item["N"])
        return self.hfg.invariants.invariants_report(g, t_max=self.t_max)

    def check(self, item: dict, report) -> str | None:
        if digest(report) != item["report_sha256"]:
            return "invariants_report of M=%s N=%s differs from the reference" % (
                item["M"],
                item["N"],
            )
        return None


class IdealProducts:
    """Hadamard power products, irrelevant-ideal products and joins."""

    name = "ideal_products"
    whole_passes = False
    pool_file = "ideal_products.json"

    def __init__(self, hfg, seed: int, pool: dict | None = None):
        self.hfg = hfg
        self.pool = pool if pool is not None else load_pool(self.pool_file)
        self.slots = BandedPool(self.pool["ops"], "slot", seed, self.name)
        self.pass_size = self.slots.pass_size
        self._captured: list = []
        self._originals: list = []

    def pass_ops(self, k: int) -> list[dict]:
        return self.slots.pass_items(k)

    @staticmethod
    def group(item: dict) -> int:
        return item["slot"]

    def _install_capture(self) -> None:
        """Keep the first product ideal each check computes.

        The checks build the ideal internally and do not return it, so the
        names they look up in hfg.verify are wrapped with a pass-through
        that remembers the result.  When the wrapping finds nothing (the
        checks were restructured), check() recomputes the ideal instead.
        """
        verify = self.hfg.verify
        captured = self._captured
        for name in ("hadamard_ideals", "join_ideals"):
            inner = getattr(verify, name, None)
            if inner is None:
                continue

            def keep(a, b, _inner=inner):
                result = _inner(a, b)
                captured.append(result)
                return result

            self._originals.append((name, inner))
            setattr(verify, name, keep)

    def release(self) -> None:
        """Undo the capture wrapping (it is redone on the next run)."""
        for name, inner in self._originals:
            setattr(self.hfg.verify, name, inner)
        self._originals.clear()

    def run(self, item: dict):
        if not self._originals:
            self._install_capture()
        self._captured.clear()
        v = self.hfg.verify
        P = self.hfg.projective.Point.from_json(item["P"])
        if item["kind"] == "product":
            Q = self.hfg.projective.Point.from_json(item["Q"])
            return v.check_point_power_product(P, Q, item["m"], item["n"])
        if item["kind"] == "irrelevant":
            return v.check_lemma_irrelevant(P, item["t"])
        return v.check_join_symbolic(P, item["t"])

    def product_ideal(self, item: dict):
        if self._captured:
            return self._captured[0]
        h = self.hfg
        P = h.projective.Point.from_json(item["P"])
        ideal = h.projective.point_ideal(P)
        if item["kind"] == "product":
            Q = h.projective.Point.from_json(item["Q"])
            return h.polycore.hadamard_ideals(
                h.polycore.ideal_power(ideal, item["m"]),
                h.polycore.ideal_power(h.projective.point_ideal(Q), item["n"]),
            )
        power = h.polycore.irrelevant_power(item["t"])
        if item["kind"] == "irrelevant":
            return h.polycore.hadamard_ideals(ideal, power)
        return h.polycore.join_ideals(ideal, power)

    def check(self, item: dict, report) -> str | None:
        verdicts = [inst.passed for inst in report.instances]
        if verdicts != item["verdicts"]:
            return "%s: verdicts %s, reference %s" % (
                report.subject,
                verdicts,
                item["verdicts"],
            )
        if basis_digest(self.product_ideal(item)) != item["basis_sha256"]:
            return "%s: product ideal basis differs from the reference" % (
                report.subject
            )
        return None


def _points_on_line(rng: random.Random, count: int) -> list[list[int]]:
    """`count` integer points of small height on a seeded line, or []."""
    a, b, c = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
    points, seen = [], set()
    for _ in range(50):
        x0 = rng.choice([-3, -2, -1, 1, 2, 3])
        x1 = rng.choice([-3, -2, -1, 1, 2, 3])
        # a*x0 + b*x1 + c*x2 = 0, scaled by c to stay integral
        p = [c * x0, c * x1, -(a * x0 + b * x1)]
        if 0 in p:
            continue
        g = math.gcd(*p) * (1 if p[0] > 0 else -1)
        p = [v // g for v in p]
        if tuple(p) not in seen:
            seen.add(tuple(p))
            points.append(p)
            if len(points) == count:
                return points
    return []


def seeded_grid(hfg, seed: int) -> dict:
    """Explicit-coordinate grid M=(2,2), N=(2,2,3) drawn from the seed.

    Points of small height on two seeded lines, redrawn until build_grid
    accepts the pair of point sets.
    """
    rng = random.Random("verify_ladder:%d" % seed)
    while True:
        P = _points_on_line(rng, 2)
        Q = _points_on_line(rng, 3)
        if not P or not Q:
            continue
        data = {
            "P": [[str(v) for v in p] for p in P],
            "M": [2, 2],
            "Q": [[str(v) for v in q] for q in Q],
            "N": [2, 2, 3],
        }
        try:
            hfg.fatgrid.grid_from_json(data)
        except hfg.errors.HfgError:
            continue
        return data


class VerifyLadder:
    """`hfg verify` as a subprocess on three grids of growing cost."""

    name = "verify_ladder"
    whole_passes = True
    pass_size = 3

    def __init__(self, hfg, seed: int, root: Path, out_dir: Path):
        self.hfg = hfg
        self.root = root
        self.jobs = min(2, os.cpu_count() or 1)
        grid = seeded_grid(hfg, seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.grid_path = out_dir / ("verify_ladder-grid-%d.json" % seed)
        self.grid_path.write_text(json.dumps(grid), encoding="utf-8")
        self.grids = [
            ("seeded", ["--grid", str(self.grid_path)]),
            ("m123", ["--m", "1,2,3", "--n", "1,2,3,4"]),
            ("example", ["--m", "2,3,3", "--n", "2,3,4,4"]),
        ]
        self.in_process = False
        self.skipped = 0
        self.while_waiting = lambda: None

    def pass_ops(self, k: int) -> list[tuple[str, list[str]]]:
        return self.grids

    @staticmethod
    def group(item) -> str:
        return item[0]

    def argv(self, grid_args: list[str]) -> list[str]:
        jobs = 1 if self.in_process else self.jobs
        return ["verify", *grid_args, "--budget-degree", "64", "--jobs", str(jobs)]

    def run(self, item):
        """(exit code, stdout) of one verify call."""
        if self.in_process:
            from click.testing import CliRunner

            result = CliRunner().invoke(self.hfg.cli.main, self.argv(item[1]))
            if result.exception is not None and not isinstance(
                result.exception, SystemExit
            ):
                raise result.exception
            return result.exit_code, result.stdout
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with subprocess.Popen(
            [sys.executable, "-m", "hfg.cli", *self.argv(item[1])],
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            while True:
                try:
                    stdout, _ = proc.communicate(timeout=0.1)
                    break
                except subprocess.TimeoutExpired:
                    self.while_waiting()
        return proc.returncode, stdout

    def check(self, item, outcome) -> str | None:
        code, stdout = outcome
        if code != 0:
            return "verify on %s exited with code %d" % (item[0], code)
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return "verify on %s printed no JSON" % item[0]
        instances = payload.get("instances", [])
        failed = [i["label"] for i in instances if i.get("passed") is False]
        if failed:
            return "verify on %s failed: %s" % (item[0], failed)
        labels = " | ".join(i.get("label", "") for i in instances)
        for needed in ("Hilbert function", "initial degree"):
            if needed not in labels:
                return "verify on %s has no %s instance" % (item[0], needed)
        self.skipped += sum(1 for i in instances if is_skipped(i))
        return None
