"""In-memory span tracer for the traced benchmark run.

Each traced function is wrapped at every module attribute (or class
attribute) through which callers look it up, so a call made from
``hfg.invariants`` and one made from ``hfg.verify`` are both seen even though
each module imported the function under its own name.  A span records its
name, start, end, parent span and the benchmark operation it belongs to.
Self time is a span's duration minus the time its child spans cover; the
program runs serially while traced, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

from workloads import is_skipped

# (metric name, defining module, attribute path, reported fields).  The
# metric name is "<module>.<function>" with the "hfg." prefix dropped;
# Polynomial.__mul__ and __pow__ share the metric "polycore.poly.mul".
ALL = ("calls", "s", "self_s")
TARGETS = [
    ("polycore.poly.mul", "hfg.polycore.poly", "Polynomial.__mul__", ("calls", "s")),
    ("polycore.poly.mul", "hfg.polycore.poly", "Polynomial.__pow__", ("calls", "s")),
    ("polycore.groebner.groebner_basis", "hfg.polycore.groebner", "groebner_basis", ALL),
    ("polycore.groebner.normal_form", "hfg.polycore.groebner", "normal_form", ("calls", "s")),
    ("polycore.ideals.ideal_intersection", "hfg.polycore.ideals", "ideal_intersection", ALL),
    ("polycore.ideals.eliminate", "hfg.polycore.ideals", "eliminate", ALL),
    ("polycore.ideals.hadamard_ideals", "hfg.polycore.ideals", "hadamard_ideals", ALL),
    ("polycore.ideals.join_ideals", "hfg.polycore.ideals", "join_ideals", ALL),
    ("polycore.ideals.ideal_power", "hfg.polycore.ideals", "ideal_power", ALL),
    ("polycore.ideals.ideal_equal", "hfg.polycore.ideals", "ideal_equal", ALL),
    ("polycore.ideals.contains", "hfg.polycore.ideals", "IdealPresentation.contains", ALL),
    ("fatgrid.build_grid", "hfg.fatgrid", "build_grid", ("calls", "s")),
    ("fatgrid.grid_ideal_intersection", "hfg.fatgrid", "grid_ideal_intersection", ALL),
    ("fatgrid.expand_pattern", "hfg.fatgrid", "expand_pattern", ("calls", "s")),
    ("invariants.invariants_report", "hfg.invariants", "invariants_report", ("self_s",)),
    ("invariants.resurgence_certificate", "hfg.invariants", "resurgence_certificate", ALL),
    ("invariants.generator_patterns", "hfg.invariants", "generator_patterns", ("calls", "s")),
    ("verify.hilbert_function_oracle", "hfg.verify", "hilbert_function_oracle", ALL),
    ("verify.exact_rank", "hfg.verify", "exact_rank", ("calls", "s")),
    ("verify.vanishing_order", "hfg.verify", "vanishing_order", ("calls", "s")),
    ("cli._run_verify_jobs", "hfg.cli", "_run_verify_jobs", ()),
]


def _coeff_bits(basis) -> int:
    bits = 0
    for poly in basis:
        for c in poly.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _groebner_attrs(args, kwargs, result) -> dict:
    return {"basis_len": len(result), "coeff_bits": _coeff_bits(result)}


def _rank_attrs(args, kwargs, result) -> dict:
    matrix = args[0]
    return {"cells": len(matrix) * (len(matrix[0]) if matrix else 0)}


def _certificate_attrs(args, kwargs, result) -> dict:
    instances = [inst.to_dict() for inst in result.instances]
    oracle = [i for i in instances if "oracle" in i["label"]]
    return {
        "skipped": sum(1 for i in instances if is_skipped(i)),
        # every oracle instance was skipped, so any oracle work done under
        # this certificate was thrown away
        "oracle_wasted": bool(oracle) and all(is_skipped(i) for i in oracle),
    }


_ATTRS = {
    "polycore.groebner.groebner_basis": _groebner_attrs,
    "verify.exact_rank": _rank_attrs,
    "invariants.resurgence_certificate": _certificate_attrs,
}


class Tracer:
    """Wraps the TARGETS of the loaded ``hfg`` modules and records spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.missing_metrics: set[str] = set()
        self.op = None
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = {
                "id": len(tracer.spans),
                "name": name,
                "parent": parent["id"] if parent else None,
                "op": tracer.op,
                "child_s": 0.0,
            }
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent["child_s"] += span["end"] - span["start"]
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def _jobs_wrapper(self, fn):
        """Time each verify job the CLI hands to its (serial) job runner."""
        span_job = self._span

        @functools.wraps(fn)
        def run(jobs, *rest, **kwargs):
            timed = [(span_job("cli.job", job), args) for job, args in jobs]
            return fn(timed, *rest, **kwargs)

        return span_job("cli._run_verify_jobs", run)

    def install(self) -> None:
        hfg_modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if (key == "hfg" or key.startswith("hfg.")) and mod is not None
        ]
        for metric, module_name, path, _fields in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append("%s:%s" % (module_name, path))
                self.missing_metrics.add(metric)
                continue
            if metric == "cli._run_verify_jobs":
                wrapped = self._jobs_wrapper(original)
            else:
                wrapped = self._span(metric, original, _ATTRS.get(metric))
            # every lookup site: the owner itself and any module (or class)
            # that bound the same object under some name
            sites = [owner] + hfg_modules if outer else hfg_modules
            for site in sites:
                for name, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, name, value))
                        setattr(site, name, wrapped)

    def uninstall(self) -> None:
        for site, name, value in reversed(self._patches):
            setattr(site, name, value)
        self._patches.clear()

    def write(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "missing": self.missing,
                    "spans": [[s[f] for f in fields] for s in self.spans],
                    "fields": list(fields),
                },
                handle,
            )

    def summary(self, ops: int, workers: int) -> dict[str, float]:
        """Per-layer metrics aggregated from the recorded spans.

        A metric whose wrapped name no longer exists is left out (and listed
        in ``missing``) rather than reported as zero.
        """
        spans = self.spans
        by_name: dict[str, list[dict]] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)

        def ancestors(span):
            parent = span["parent"]
            while parent is not None:
                yield spans[parent]
                parent = spans[parent]["parent"]

        def outermost(span) -> bool:
            return all(a["name"] != span["name"] for a in ancestors(span))

        def duration(span) -> float:
            return span["end"] - span["start"]

        out: dict[str, float] = {}
        present = set()
        for metric, _module, _path, fields in TARGETS:
            if metric in self.missing_metrics or metric in present:
                continue
            present.add(metric)
            found = by_name.get(metric, [])
            values = {
                "calls": len(found),
                "s": sum(duration(s) for s in found if outermost(s)),
                "self_s": sum(duration(s) - s["child_s"] for s in found),
            }
            for field in fields:
                out["%s.%s" % (metric, field)] = values[field]

        if "polycore.groebner.groebner_basis" in present:
            found = by_name.get("polycore.groebner.groebner_basis", [])
            for key in ("basis_len", "coeff_bits"):
                out["polycore.groebner.groebner_basis.%s.max" % key] = max(
                    (s.get(key, 0) for s in found), default=0
                )
        if "verify.exact_rank" in present:
            out["verify.exact_rank.cells"] = sum(
                s.get("cells", 0) for s in by_name.get("verify.exact_rank", [])
            )
        if "invariants.resurgence_certificate" in present:
            out["invariants.resurgence_certificate.skipped"] = sum(
                s.get("skipped", 0)
                for s in by_name.get("invariants.resurgence_certificate", [])
            )
        if "fatgrid.grid_ideal_intersection" in present:
            oracle = [
                s for s in by_name.get("fatgrid.grid_ideal_intersection", [])
                if outermost(s)
            ]
            out["fatgrid.grid_ideal_intersection.op_share"] = (
                len({s["op"] for s in oracle}) / ops
            )
            if "invariants.resurgence_certificate" in present:
                out["fatgrid.oracle_wasted_s"] = sum(
                    duration(s)
                    for s in oracle
                    if any(a.get("oracle_wasted") for a in ancestors(s))
                )
        if "cli._run_verify_jobs" in present:
            runs = by_name.get("cli._run_verify_jobs", [])
            jobs = {run["id"]: [] for run in runs}
            for span in by_name.get("cli.job", []):
                jobs[span["parent"]].append(duration(span))
            flat = [d for ds in jobs.values() for d in ds]
            makespan = sum(list_schedule(ds, workers) for ds in jobs.values())
            out["cli.jobs"] = len(flat)
            out["cli.job_max_s"] = max(flat, default=0.0)
            out["cli.jobs_sum_s"] = sum(flat)
            out["cli.pool_efficiency"] = (
                sum(flat) / (workers * makespan) if makespan else 0.0
            )
        out["trace.spans"] = len(spans)
        return out


def list_schedule(durations, workers: int) -> float:
    """Makespan of handing jobs, in order, to the first free of `workers`.

    This is how a process pool drains a list of submitted jobs, so the
    serial per-job times of the traced run model the pooled wall time.
    """
    free = [0.0] * max(1, workers)
    for d in durations:
        i = free.index(min(free))
        free[i] += d
    return max(free)
