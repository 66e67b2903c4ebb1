"""CSV/SVG rendering of sweep, fit, and depth-sweep results.

CSV files carry every number shown in a figure, so the SVG output is a
convenience view, not the data of record.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .codec import write_atomic
from .errors import DomainError
from .experiment import (
    DepthSweepResult,
    ScalingFit,
    SweepResult,
    random_search_baseline,
)
from .ising import brute_force_minimum
from .svgplot import Series, line_plot


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, text.getvalue())


def report_sweep(sweep: SweepResult, out_dir: str | Path, formats=("csv", "svg")) -> list[Path]:
    """Emit cells.csv, curves.csv, and the F_succ-vs-n_calls figure."""
    out = Path(out_dir)
    stem = f"sweep_L{sweep.problem.size}"
    written: list[Path] = []

    if "csv" in formats:
        rows = []
        for c in sweep.cells:
            lo, hi, band = c.fsucc_band()
            rows.append(
                [c.shots, c.iters, c.budget_calls, c.repetitions,
                 c.fsucc(), lo, hi, band, c.psucc()]
            )
        path = out / f"{stem}_cells.csv"
        _write_csv(
            path,
            ["shots", "iters", "budget_calls", "repetitions",
             "fsucc", "fsucc_lo", "fsucc_hi", "band_kind", "psucc"],
            rows,
        )
        written.append(path)

        rows = []
        for c in sweep.cells:
            for calls in c.checkpoints():
                per = c.fsucc_per_instance(calls)
                rows.append([c.shots, c.iters, calls, c.fsucc(calls),
                             min(per), max(per)])
        path = out / f"{stem}_curves.csv"
        _write_csv(
            path,
            ["shots", "iters", "n_calls", "fsucc", "fsucc_min_instance",
             "fsucc_max_instance"],
            rows,
        )
        written.append(path)

    if "svg" in formats:
        series = []
        max_calls = 1
        for c in sweep.cells:
            points = [(calls, c.fsucc(calls)) for calls in c.checkpoints()]
            max_calls = max(max_calls, c.budget_calls)
            series.append(Series(f"M={c.shots} n={c.iters}", points))
        degeneracy = len(
            brute_force_minimum(sweep.problem.instances()[0]).minimizers
        )
        baseline = [
            (calls, random_search_baseline(sweep.problem.size, degeneracy, calls))
            for calls in sorted({c for cell in sweep.cells for c in cell.checkpoints()})
        ]
        series.append(Series("random search", baseline, dashed=True))
        path = out / f"{stem}.svg"
        line_plot(
            path,
            series,
            title=f"{sweep.problem.family} L={sweep.problem.size} d={sweep.problem.depth}",
            xlabel="n_calls",
            ylabel="F_succ",
            xscale="log10",
        )
        written.append(path)
    return written


def report_fit(fit: ScalingFit, out_dir: str | Path, formats=("csv", "svg")) -> list[Path]:
    """Emit the (L, n_calls*) table and the log2-scale scaling figure."""
    out = Path(out_dir)
    written: list[Path] = []

    if "csv" in formats:
        path = out / "fit_points.csv"
        fitted = {l: r for (l, _), r in zip(
            sorted((l, n) for l, n in fit.points if l >= fit.l_min), fit.residuals
        )}
        _write_csv(
            path,
            ["L", "n_calls_star", "fitted", "log2_residual"],
            [[l, n, l >= fit.l_min, fitted.get(l, "")] for l, n in sorted(fit.points)],
        )
        written.append(path)

    if "svg" in formats:
        points = sorted(fit.points)
        line = [
            (l, fit.amplitude * 2.0 ** (fit.exponent * l))
            for l, _ in points
            if l >= fit.l_min
        ]
        path = out / "fit.svg"
        line_plot(
            path,
            [
                Series("n_calls*", points),
                Series(f"fit a={fit.amplitude:.3g} k={fit.exponent:.3g}", line, dashed=True),
            ],
            title="optimal call scaling",
            xlabel="L",
            ylabel="n_calls*",
            yscale="log2",
        )
        written.append(path)
    return written


def report_depth_sweep(
    result: DepthSweepResult, out_dir: str | Path, formats=("csv", "svg")
) -> list[Path]:
    out = Path(out_dir)
    written: list[Path] = []

    if "csv" in formats:
        path = out / "depth_sweep.csv"
        _write_csv(
            path,
            ["size", "depth", "p_gs_median", "fsucc_median"],
            [[c.size, c.depth, c.p_gs_median(), c.fsucc_median()] for c in result.cells],
        )
        written.append(path)

    if "svg" in formats:
        depths = sorted({c.depth for c in result.cells})
        series = []
        for d in depths:
            pts = sorted(
                (c.size, c.fsucc_median()) for c in result.cells if c.depth == d
            )
            series.append(Series(f"d={d}", pts))
        path = out / "depth_sweep.svg"
        line_plot(
            path,
            series,
            title=f"linear init dt={result.dt}, M={result.shots}",
            xlabel="L",
            ylabel="F_succ",
        )
        written.append(path)
    return written


def report_any(result, out_dir: str | Path, formats=("csv", "svg")) -> list[Path]:
    if isinstance(result, SweepResult):
        return report_sweep(result, out_dir, formats)
    if isinstance(result, ScalingFit):
        return report_fit(result, out_dir, formats)
    if isinstance(result, DepthSweepResult):
        return report_depth_sweep(result, out_dir, formats)
    raise DomainError(f"cannot report a {type(result).__name__}")
