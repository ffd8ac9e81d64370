"""Command-line interface.

Exit codes: 0 on success, 1 when a verification ran and failed, 2 on input
errors (malformed flags or files, invalid grids, exceeded budgets).  Each
is decided once: `_Group` turns a library error into exit 2, and
`_emit_report` prints a report and exits 1 if it failed.  JSON
output is deterministic: key order is fixed and list-valued data is sorted
wherever the underlying object is a set.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys

import click

from . import __version__
from .budget import DEFAULT_BUDGET, Budget
from .errors import (
    BlockMismatchError,
    BudgetExceededError,
    DomainError,
    GridError,
    HfgError,
    ParseError,
)
from .fatgrid import FatGrid, abstract_grid, expand_pattern, grid_from_json
from .invariants import generator_patterns, invariants_report, resolution
from .polycore import (
    format_rational,
    hadamard_ideals,
    ideal_from_json,
    ideal_to_json,
    join_ideals,
)
from .projective import Point
from .report import VerificationReport
from .verify import check_point_power_product, grid_check_plan, grid_report


_ERROR_PREFIX = {
    ParseError: "input parse error",
    BlockMismatchError: "variable block mismatch",
    GridError: "invalid grid",
    DomainError: "domain error",
    BudgetExceededError: "budget exceeded",
}


def _fail(exc: Exception) -> None:
    """Print a distinct message for the error class and exit with status 2."""
    for klass, prefix in _ERROR_PREFIX.items():
        if isinstance(exc, klass):
            click.echo("%s: %s" % (prefix, exc), err=True)
            sys.exit(2)
    click.echo("error: %s" % exc, err=True)
    sys.exit(2)


def _parse_int_list(text: str, label: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ParseError("%s must be a comma-separated integer list" % label)
    if not values:
        raise ParseError("%s must not be empty" % label)
    return values


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ParseError("%s is not valid JSON: %s" % (path, exc))


def _load_grid(m: str | None, n: str | None, grid_path: str | None) -> FatGrid:
    if grid_path is not None and (m is not None or n is not None):
        raise click.UsageError("--grid conflicts with --m/--n")
    if grid_path is not None:
        return grid_from_json(_read_json(grid_path))
    if m is None or n is None:
        raise click.UsageError("provide either --grid or both --m and --n")
    return abstract_grid(
        _parse_int_list(m, "--m"), _parse_int_list(n, "--n")
    )


def _budget_from_flag(budget_degree: int | None) -> Budget:
    if budget_degree is None:
        return DEFAULT_BUDGET
    if budget_degree < 1:
        raise ParseError("--budget-degree must be a positive integer")
    return dataclasses.replace(
        DEFAULT_BUDGET, max_grid_multiplicity=budget_degree
    )


def _render_table(data) -> str:
    """Aligned-text rendering carrying the same data as the JSON output."""
    if isinstance(data, dict) and isinstance(data.get("instances"), list):
        head = [
            "%s: %s" % (key, _scalar(value))
            for key, value in data.items()
            if key != "instances"
        ]
        return "\n".join(head + ["", _rows_table(data["instances"])])
    if isinstance(data, list) and data and isinstance(data[0], dict):
        return _rows_table(data)
    if isinstance(data, dict):
        width = max(len(str(key)) for key in data)
        return "\n".join(
            "%-*s  %s" % (width, key, _scalar(value))
            for key, value in data.items()
        )
    return _scalar(data)


def _scalar(value) -> str:
    if isinstance(value, (list, tuple)):
        return " ".join(_scalar(v) for v in value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    return str(value)


def _rows_table(rows: list[dict]) -> str:
    columns = list(rows[0].keys())
    cells = [[_scalar(row.get(col)) for col in columns] for row in rows]
    # the last column is not padded, so no row ends in spaces
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns[:-1])
    ] + [0]
    out = ["  ".join("%-*s" % (w, c) for w, c in zip(widths, columns))]
    for row in cells:
        out.append("  ".join("%-*s" % (w, c) for w, c in zip(widths, row)))
    return "\n".join(out)


def _emit(data, output_format: str) -> None:
    if output_format == "table":
        click.echo(_render_table(data))
    else:
        click.echo(json.dumps(data, indent=2))


def _emit_report(report: VerificationReport, output_format: str) -> None:
    """Print a report; exit 1 if any of its instances failed."""
    _emit(report.to_dict(), output_format)
    if not report.passed:
        click.echo(
            "verification failed: %d of %d checks"
            % (len(report.failures()), len(report.instances)),
            err=True,
        )
        sys.exit(1)


def _line_json(line) -> list[str]:
    return [format_rational(c) for c in line.coeffs]


_format_option = click.option(
    "--format",
    "output_format",
    type=click.Choice(["json", "table"]),
    default="json",
    show_default=True,
    help="Output rendering.",
)
_grid_options = (
    click.option("--m", "m", default=None, help="Row multiplicities, comma-separated."),
    click.option("--n", "n", default=None, help="Column multiplicities, comma-separated."),
    click.option(
        "--grid",
        "grid_path",
        type=click.Path(),
        default=None,
        help="Grid description file (JSON).",
    ),
)


def _with_grid_options(fn):
    for option in reversed(_grid_options):
        fn = option(fn)
    return fn


class _Group(click.Group):
    """Every library error raised by a command exits 2 through `_fail`."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except HfgError as exc:
            _fail(exc)


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="hfg")
def main() -> None:
    """Exact invariants and verification for Hadamard fat grids."""


@main.command("grid")
@_with_grid_options
@_format_option
def grid_command(m, n, grid_path, output_format) -> None:
    """Build a grid and print its points, multiplicities and lines."""
    g = _load_grid(m, n, grid_path)
    r, s = g.shape
    payload = {
        "shape": [r, s],
        "swapped": g.swapped,
        "M": list(g.row_multiplicities),
        "N": list(g.col_multiplicities),
        "row_points": [p.to_json() for p in g.row_set.points],
        "col_points": [q.to_json() for q in g.col_set.points],
        "row_line": _line_json(g.row_line),
        "col_line": _line_json(g.col_line),
        "grid_points": [
            [p.to_json() for p in row] for row in g.grid_points
        ],
        "mult": [list(row) for row in g.mult],
        "degree": g.scheme_degree(),
        "total_multiplicity": g.total_multiplicity,
        "h_lines": [_line_json(line) for line in g.h_lines],
        "v_lines": [_line_json(line) for line in g.v_lines],
    }
    if output_format == "table":
        flat = dict(payload)
        flat["grid_points"] = [
            " | ".join(":".join(p) for p in row)
            for row in payload["grid_points"]
        ]
        flat["row_points"] = [":".join(p) for p in payload["row_points"]]
        flat["col_points"] = [":".join(p) for p in payload["col_points"]]
        flat["h_lines"] = [":".join(c) for c in payload["h_lines"]]
        flat["v_lines"] = [":".join(c) for c in payload["v_lines"]]
        flat["row_line"] = ":".join(payload["row_line"])
        flat["col_line"] = ":".join(payload["col_line"])
        _emit(flat, output_format)
    else:
        _emit(payload, output_format)


@main.command("resolution")
@_with_grid_options
@_format_option
def resolution_command(m, n, grid_path, output_format) -> None:
    """Print the twists of the minimal free resolution of the grid ideal."""
    shifts = resolution(_load_grid(m, n, grid_path))
    _emit(
        {
            "generator_twists": list(shifts.generator_twists),
            "syzygy_twists": list(shifts.syzygy_twists),
        },
        output_format,
    )


@main.command("generators")
@_with_grid_options
@_format_option
def generators_command(m, n, grid_path, output_format) -> None:
    """List the minimal generators: line-power patterns and expanded forms."""
    g = _load_grid(m, n, grid_path)
    payload = []
    for pat in generator_patterns(g):
        entry = pat.to_dict()
        entry["polynomial"] = expand_pattern(g, pat).to_string()
        payload.append(entry)
    _emit(payload, output_format)


@main.command("invariants")
@_with_grid_options
@_format_option
def invariants_command(m, n, grid_path, output_format) -> None:
    """Print all closed-form invariants of the grid; no oracle runs."""
    _emit(invariants_report(_load_grid(m, n, grid_path)), output_format)


def _run_verify_jobs(jobs, worker_count: int) -> list:
    """Run the plan's (unit, args) jobs and return their results in plan order.

    With more than one worker, this process forks ``workers - 1`` children
    and runs job 0 itself; jobs 1.. go round robin to the children.  A
    child inherits the grid and pickles back only its results.
    Every child is reaped before this returns or raises, and the exception
    raised is that of the first job in plan order that raised, as in a
    serial run.
    """
    workers = min(worker_count, len(jobs))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(*args) for fn, args in jobs]
    # imported here so that importing the CLI loads no pickle
    import pickle

    shares = [list(range(k, len(jobs), workers - 1)) for k in range(1, workers)]
    children = []
    try:
        for share in shares:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_share(jobs, share, read_end, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        fn, args = jobs[0]
        results = {0: fn(*args)}
    finally:
        replies = []
        for pid, read_end in children:
            # read to EOF first: a payload can exceed the pipe's buffer
            with os.fdopen(read_end, "rb") as pipe:
                data = pipe.read()
            replies.append((data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    errors = {}
    for share, (data, status) in zip(shares, replies):
        if status != 0 or not data:
            errors[share[0]] = RuntimeError(
                "verify worker for %s ended with status %d and sent no results"
                % (", ".join(jobs[j][0].__name__ for j in share), status)
            )
            continue
        values, error = pickle.loads(data)
        results.update(zip(share, values))
        if error is not None:
            errors[share[len(values)]] = error
    if errors:
        raise errors[min(errors)]
    return [results[j] for j in range(len(jobs))]


def _run_share(jobs, share: list[int], read_end: int, write_end: int) -> None:
    """In a forked child: run the jobs of `share` in plan order up to the
    first exception, write the pickled (results, exception) to the pipe and
    end the process, never returning into the caller.  A payload that does
    not pickle is not written, and the child exits 1."""
    status = 1
    try:
        import pickle

        os.close(read_end)
        values, error = [], None
        try:
            for j in share:
                fn, args = jobs[j]
                values.append(fn(*args))
        except BaseException as exc:
            error = exc
        payload = pickle.dumps((values, error), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


@main.command("verify")
@_with_grid_options
@click.option(
    "--t-max",
    type=int,
    default=2,
    show_default=True,
    help=(
        "Largest power t of the elimination oracle's ordinary = symbolic"
        " power equalities, which run t = 2..t-max; 1 runs none. The"
        " closed-form resurgence certificate is checked once for every t."
    ),
)
@click.option(
    "--jobs",
    type=int,
    default=1,
    show_default=True,
    help=(
        "Processes that run the independent checks, this one included;"
        " the others are forked."
    ),
)
@click.option(
    "--budget-degree",
    type=int,
    default=None,
    help="Override the total-multiplicity cap for oracle computations.",
)
@_format_option
def verify_command(
    m, n, grid_path, t_max, jobs, budget_degree, output_format
) -> None:
    """Run every oracle check on a grid; exit 1 if any instance fails."""
    budget = _budget_from_flag(budget_degree)
    if jobs < 1:
        raise ParseError("--jobs must be a positive integer")
    g = _load_grid(m, n, grid_path)
    plan = grid_check_plan(g, t_max, budget)
    report = grid_report(g, _run_verify_jobs(plan, jobs))
    _emit_report(report, output_format)


def _binary_ideal_command(name: str, operation, help_text: str):
    @main.command(name, help=help_text)
    @click.option(
        "--ideal-a",
        "path_a",
        type=click.Path(),
        required=True,
        help="First ideal (JSON file).",
    )
    @click.option(
        "--ideal-b",
        "path_b",
        type=click.Path(),
        required=True,
        help="Second ideal (JSON file).",
    )
    @_format_option
    def command(path_a, path_b, output_format) -> None:
        a = ideal_from_json(_read_json(path_a))
        b = ideal_from_json(_read_json(path_b))
        result = operation(a, b)
        payload = ideal_to_json(result)
        if output_format == "table":
            _emit(
                {
                    "vars": payload["vars"],
                    "generators": [f.to_string() for f in result.generators],
                },
                output_format,
            )
        else:
            _emit(payload, output_format)

    return command


_binary_ideal_command(
    "hadamard",
    hadamard_ideals,
    "Hadamard product of two ideals (coordinate-wise product elimination).",
)
_binary_ideal_command(
    "join",
    join_ideals,
    "Join of two ideals (coordinate-wise sum elimination).",
)


@main.command("power-check")
@click.option("--p", "p_text", required=True, help="First point, p0:p1:p2.")
@click.option("--q", "q_text", required=True, help="Second point, q0:q1:q2.")
@click.option("-m", "power_m", type=int, default=1, show_default=True, help="Power on the first point ideal.")
@click.option("-n", "power_n", type=int, default=1, show_default=True, help="Power on the second point ideal.")
@_format_option
def power_check_command(p_text, q_text, power_m, power_n, output_format) -> None:
    """Compare a Hadamard power product against its stratum prediction."""
    report = check_point_power_product(
        Point.from_string(p_text), Point.from_string(q_text), power_m, power_n
    )
    _emit_report(report, output_format)


if __name__ == "__main__":
    main()
