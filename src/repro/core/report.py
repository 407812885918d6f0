"""Plain-text table formatting for the experiment drivers.

The benchmark harness prints paper-style tables; this keeps the
formatting in one place so every experiment renders consistently.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.optimize.faults import RunHealth

__all__ = ["format_table", "format_series", "format_run_health"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "", float_format: str = "{:.3f}") -> str:
    """Render an ASCII table with aligned columns."""
    rendered_rows = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(
        h.ljust(widths[i]) for i, h in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_series(x_label: str, y_labels: Sequence[str], x_values,
                  y_columns, title: str = "",
                  float_format: str = "{:.3f}") -> str:
    """Render a figure's data as a table of series (one column per curve)."""
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [column[i] for column in y_columns])
    return format_table([x_label] + list(y_labels), rows, title=title,
                        float_format=float_format)


def format_run_health(health: RunHealth,
                      title: str = "Run health") -> str:
    """Render one run's fault/degradation telemetry as a table.

    Every optimizer result carries a ``health`` record; experiment
    drivers print it after a run so silent degradation (penalized
    candidates, batch retries, engine fallbacks) stays visible.
    """
    rows = [[key, value] for key, value in health.as_dict().items()]
    if health.resumed_at is not None:
        rows.append(["resumed_at", health.resumed_at])
    if not rows:  # pragma: no cover - as_dict always has the counters
        rows = [["(no telemetry)", ""]]
    return format_table(["metric", "value"], rows, title=title)
