"""Plain-text rendering of regenerated figures.

``repro figures`` prints these tables; EXPERIMENTS.md embeds them.
Numbers are formatted compactly (engineering suffixes for counters,
fixed precision for rates).
"""

from __future__ import annotations

from typing import List

from ..units import fmt_count
from .figures import FigureData


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return fmt_count(value) if abs(value) >= 10_000 else str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.01:
            return f"{value:.2e}"
        if abs(value) >= 10_000:
            return fmt_count(value)
        return f"{value:.3f}"
    return str(value)


def render_table(fig: FigureData) -> str:
    """Render one figure as an aligned ASCII table."""
    cols = list(fig.columns)
    cells: List[List[str]] = [[_fmt(row.get(c, "")) for c in cols] for row in fig.rows]
    widths = [
        max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
        for i, c in enumerate(cols)
    ]
    lines = [f"== {fig.fig_id}: {fig.title} =="]
    if fig.notes:
        lines.append(f"   ({fig.notes})")
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(cols))
    lines.append(header)
    lines.append("-" * len(header))
    for r in cells:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(cols))))
    return "\n".join(lines)


def render_markdown(fig: FigureData) -> str:
    """Render one figure as a GitHub-flavoured markdown table."""
    cols = list(fig.columns)
    lines = [f"**{fig.fig_id}: {fig.title}**", ""]
    if fig.notes:
        lines.insert(1, f"*{fig.notes}*")
    lines.append("| " + " | ".join(cols) + " |")
    lines.append("|" + "---|" * len(cols))
    for row in fig.rows:
        lines.append("| " + " | ".join(_fmt(row.get(c, "")) for c in cols) + " |")
    return "\n".join(lines)


def render_series(fig: FigureData, metric: str, max_width: int = 40) -> str:
    """Render one metric of a figure as text bars grouped by query
    (a terminal stand-in for the paper's bar charts)."""
    values = [row[metric] for row in fig.rows]
    top = max(values) if values else 1.0
    lines = [f"== {fig.fig_id}: {fig.title} — {metric} =="]
    for row in fig.rows:
        v = row[metric]
        bar = "#" * max(1, int(max_width * v / top)) if top else ""
        label = " ".join(
            f"{k}={row[k]}" for k in fig.columns if k != metric and k in row
        )
        lines.append(f"{label:<40} {_fmt(v):>10} {bar}")
    return "\n".join(lines)
