"""Deterministic SVG rendering of two-dimensional fans.

The picture is a fixed 600 by 600 canvas with the origin at the center:
each ray is drawn as an arrow of length 200 pixels along its unit
direction, each two-dimensional cone as a shaded wedge between its two
rays, and each ray is labeled with its integer coordinates.  Identical
input yields byte-identical output.
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .fans import BottFan, _as_general

CANVAS = 600
CENTER = CANVAS / 2
RAY_LENGTH = 200.0
LABEL_RADIUS = 235.0


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tip(ray, radius: float):
    norm = math.hypot(ray[0], ray[1])
    return (CENTER + radius * ray[0] / norm,
            CENTER - radius * ray[1] / norm)


def render_svg(fan) -> str:
    """The SVG text of a dimension-2 fan; refuses others before any ray or
    cone, so a tall BottFan builds no Bott matrix."""
    gf = fan if isinstance(fan, BottFan) and fan.dim != 2 else _as_general(fan)
    if gf.dim != 2:
        raise ValidationError("rendering requires a two-dimensional fan, "
                              f"got dimension {gf.dim}")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" '
        f'height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
        '  <defs>',
        '    <marker id="tip" markerWidth="10" markerHeight="8" refX="8" '
        'refY="4" orient="auto">',
        '      <path d="M 0 0 L 8 4 L 0 8 Z" fill="black"/>',
        '    </marker>',
        '  </defs>',
        f'  <rect width="{CANVAS}" height="{CANVAS}" fill="white"/>',
    ]
    origin = f"{_fmt(CENTER)},{_fmt(CENTER)}"
    for cone in gf.cones:
        points = [origin]
        for r in cone:
            x, y = _tip(gf.rays[r], RAY_LENGTH)
            points.append(f"{_fmt(x)},{_fmt(y)}")
        parts.append(f'  <polygon points="{" ".join(points)}" fill="#dbe4f0"/>')
    for ray in gf.rays:
        x, y = _tip(ray, RAY_LENGTH)
        parts.append(
            f'  <line x1="{_fmt(CENTER)}" y1="{_fmt(CENTER)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(y)}" stroke="black" '
            'stroke-width="2" marker-end="url(#tip)"/>')
    for ray in gf.rays:
        x, y = _tip(ray, LABEL_RADIUS)
        parts.append(
            f'  <text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
            f'font-size="14" text-anchor="middle">({ray[0]}, {ray[1]})</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
