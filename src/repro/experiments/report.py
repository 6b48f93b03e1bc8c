"""Report rendering: the paper's data tables as markdown.

The Figure-2 data tables print, per workload and per baseline, the average
ratio, the fraction of configurations where the baseline was faster ("worse")
and the worst ratio.  :func:`render_figure2_table` reproduces that table in
markdown/ASCII and :func:`render_speedup_summary` adds the average speed-ups
the paper quotes; the scenarios' analyses print both.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.figure2 import BASELINES, Figure2Result
from repro.experiments.stats import RatioStats


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "| " + " | ".join(cell.ljust(width) for cell, width in zip(cells, widths)) + " |"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render a markdown table with aligned columns."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [_format_row(headers, widths),
             "|" + "|".join("-" * (width + 2) for width in widths) + "|"]
    lines.extend(_format_row(row, widths) for row in rows)
    return "\n".join(lines)


def render_figure2_table(result: Figure2Result,
                         baselines: Sequence[str] = BASELINES) -> str:
    """The per-kernel avg / worse% / worst table of the paper's Figure 2."""
    headers = ["kernel", "category"]
    for baseline in baselines:
        headers.extend([f"{baseline}/ours avg", f"{baseline}/ours worse%", f"{baseline}/ours worst"])
    rows: List[List[str]] = []
    table = result.stats_table()
    for problem in result.problems():
        category = next(r.category for r in result.records if r.problem == problem)
        row = [problem, category]
        for baseline in baselines:
            stats: Optional[RatioStats] = table.get(problem, {}).get(baseline)
            if stats is None:
                row.extend(["-", "-", "-"])
            else:
                row.extend([f"{stats.average:.2f}", f"{stats.percent_below_one:.1f}",
                            f"{stats.worst:.2f}"])
        rows.append(row)
    return render_table(headers, rows)


def render_speedup_summary(result: Figure2Result) -> str:
    """The Section-3 headline numbers (math-kernel average speed-ups)."""
    lines = []
    for baseline in BASELINES:
        try:
            math_avg = result.average_speedup(baseline, category="math")
            lines.append(f"math kernels, average speed-up over {baseline}: {math_avg:.2f}x")
        except ValueError:
            continue
        try:
            overall = result.average_speedup(baseline)
            lines.append(f"all workloads, average speed-up over {baseline}: {overall:.2f}x")
        except ValueError:
            continue
    return "\n".join(lines)
