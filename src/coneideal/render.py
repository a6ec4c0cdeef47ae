"""Deterministic pictures of 3D ideals: ASCII layer stacks and isometric SVG."""

from __future__ import annotations

from .order import Params, Point3


def ascii_layers(points: frozenset[Point3], params: Params) -> str:
    """One grid per height, top row first; '#' marks members."""
    n = params.n
    blocks = []
    for z in range(n + 1):
        rows = [f"z={z}"]
        for y in range(n, -1, -1):
            rows.append(
                "".join(
                    "#" if (x, y, z) in points else "." for x in range(n + 1)
                )
            )
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + "\n"


def _iso(x: float, y: float, z: float) -> tuple[float, float]:
    # painter-friendly isometric projection
    px = (x - y) * 0.8660254
    py = (x + y) * 0.5 - z
    return px, py


def svg_cubes(points: frozenset[Point3], params: Params) -> str:
    """Static isometric drawing, one unit cube per point, deterministic bytes."""
    n = params.n
    cubes = sorted(points, key=lambda q: (q[0] + q[1] + q[2], q[2], q[1], q[0]))
    scale = 24.0
    off_x = (n + 1) * scale
    off_y = (n + 2) * scale

    def pt(x: float, y: float, z: float) -> str:
        px, py = _iso(x, y, z)
        return f"{off_x + px * scale:.1f},{off_y - py * scale:.1f}"

    polys = []
    for (x, y, z) in cubes:
        top = [
            (x, y, z + 1),
            (x + 1, y, z + 1),
            (x + 1, y + 1, z + 1),
            (x, y + 1, z + 1),
        ]
        east = [
            (x + 1, y, z),
            (x + 1, y + 1, z),
            (x + 1, y + 1, z + 1),
            (x + 1, y, z + 1),
        ]
        south = [(x, y, z), (x + 1, y, z), (x + 1, y, z + 1), (x, y, z + 1)]
        for face, fill in ((top, "#d8d8f6"), (east, "#9a9ad0"), (south, "#6c6cae")):
            coords = " ".join(pt(*q) for q in face)
            polys.append(
                f'<polygon points="{coords}" fill="{fill}" stroke="#333" stroke-width="0.6"/>'
            )
    width = int(2 * (n + 2) * scale)
    height = int((2.6 * (n + 2)) * scale)
    body = "\n".join(polys)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f"{body}\n</svg>\n"
    )
