"""Terminal plotting: scatter and line charts in plain text.

The benchmarks regenerate the paper's *figures*; these helpers render
them as ASCII so a headless terminal still shows the shape — the Fig. 2
model-rank-vs-observed-time scatter, weak-scaling curves, and so on.
"""

from __future__ import annotations

__all__ = ["scatter", "line_chart", "flamegraph"]


def _scale(values: list[float], length: int) -> list[int]:
    lo, hi = min(values), max(values)
    span = hi - lo
    if span == 0:
        return [0 for _ in values]
    return [round((v - lo) / span * (length - 1)) for v in values]


def scatter(
    xs: list[float],
    ys: list[float],
    marks: list[str] | None = None,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """A 64 x 16 ASCII scatter plot; ``marks`` optionally labels each
    point."""
    width, height = 64, 16
    if len(xs) != len(ys) or not xs:
        raise ValueError("xs and ys must be equal-length and non-empty")
    if marks is not None and len(marks) != len(xs):
        raise ValueError("marks must match the points")
    cols = _scale(list(xs), width)
    rows = _scale(list(ys), height)
    canvas = [[" "] * width for _ in range(height)]
    for i, (c, r) in enumerate(zip(cols, rows)):
        ch = marks[i][0] if marks else "o"
        canvas[height - 1 - r][c] = ch
    lines = [f"{y_label} (top={max(ys):.4g}, bottom={min(ys):.4g})"]
    lines += ["|" + "".join(row) for row in canvas]
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}: {min(xs):.4g} .. {max(xs):.4g}")
    return "\n".join(lines)


def line_chart(
    xs: list[float],
    series: dict[str, list[float]],
    x_label: str = "x",
) -> str:
    """Multiple named series over shared x values, one glyph per series,
    on a 64 x 14 canvas."""
    width, height = 64, 14
    if not series:
        raise ValueError("no series to plot")
    glyphs = "*#@%+x^~"
    all_y = [v for ys in series.values() for v in ys]
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} length mismatch")
    cols = _scale(list(xs), width)
    lo, hi = min(all_y), max(all_y)
    span = hi - lo or 1.0
    canvas = [[" "] * width for _ in range(height)]
    for si, (name, ys) in enumerate(series.items()):
        g = glyphs[si % len(glyphs)]
        for c, y in zip(cols, ys):
            r = round((y - lo) / span * (height - 1))
            canvas[height - 1 - r][c] = g
    lines = [f"(top={hi:.4g}, bottom={lo:.4g})"]
    lines += ["|" + "".join(row) for row in canvas]
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}: {min(xs):.4g} .. {max(xs):.4g}")
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={name}" for i, name in enumerate(series)
    )
    lines.append(f" {legend}")
    return "\n".join(lines)


def flamegraph(frames: dict[str, float], width: int = 72) -> str:
    """An indented text flamegraph from ``{"root;child;leaf": seconds}``
    frames — the shape :meth:`repro.telemetry.Tracer.by_path` returns.

    Each line shows one stack path (indented by depth), a bar scaled to
    its share of root time, and the absolute time.
    """
    if not frames:
        return "(no spans)"
    items = sorted(frames.items(), key=lambda kv: kv[0].split(";"))
    root_total = sum(t for p, t in frames.items() if ";" not in p)
    total = root_total or max(frames.values()) or 1.0
    labels = [
        "  " * p.count(";") + p.rsplit(";", 1)[-1] for p, _ in items
    ]
    label_w = max(len(lbl) for lbl in labels)
    bar_w = max(8, width - label_w - 22)
    lines = []
    for lbl, (path, secs) in zip(labels, items):
        frac = min(1.0, secs / total)
        filled = round(frac * bar_w)
        if secs > 0 and filled == 0:
            filled = 1
        lines.append(
            f"{lbl:<{label_w}} |{'#' * filled:<{bar_w}}| "
            f"{secs * 1e3:10.3f} ms {frac * 100:5.1f}%"
        )
    return "\n".join(lines)
