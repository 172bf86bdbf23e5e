"""Plain-text Young diagram drawing, bottom row first.

Diagrams print in the French convention to match the geometry used
everywhere else in the package: row 1 is the longest and sits at the
bottom, so the last text line holds row 1.
"""

from __future__ import annotations

from .partitions import Box, Partition

PLAIN = {"ascii": ".", "unicode": "□"}
FILLED = {"ascii": "#", "unicode": "■"}

GROUP_CHARS = "123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
GROUP_OVERFLOW = "*"


def render_diagram(
    lam: Partition,
    markers: dict[Box, str] | None = None,
    style: str = "ascii",
) -> str:
    """Rows of the shape, one text line each, marked boxes substituted."""
    if style not in PLAIN:
        raise ValueError(f"unknown render style {style!r}")
    markers = markers or {}
    plain = PLAIN[style]
    lines = []
    for i in range(len(lam), 0, -1):
        row = [markers.get(Box(i, j), plain) for j in range(1, lam.part(i) + 1)]
        lines.append(" ".join(row))
    return "\n".join(lines)


def render_boxes(
    lam: Partition,
    boxes,
    style: str = "ascii",
    extra: dict[Box, str] | None = None,
) -> str:
    """Shape with the given boxes filled; extra markers win over fills."""
    markers = {Box(*b): FILLED[style] for b in boxes}
    if extra:
        markers.update({Box(*b): ch for b, ch in extra.items()})
    return render_diagram(lam, markers, style)


def group_label(index: int) -> str:
    """One-character label of group index (from 1); groups past the
    alphabet share the overflow mark, so listings also give the index."""
    if index < 1:
        raise ValueError(f"group index {index} out of label range")
    return GROUP_CHARS[index - 1] if index <= len(GROUP_CHARS) else GROUP_OVERFLOW


def render_groups(lam: Partition, groups: dict[Box, int], style: str = "ascii") -> str:
    """Shape with each box labelled by its group's character."""
    markers = {Box(*box): group_label(index) for box, index in groups.items()}
    return render_diagram(lam, markers, style)
