"""Shared fixtures and independent reference oracles used across test modules."""
from __future__ import annotations

import pytest

from polysearch.decomposition import rectangulate
from polysearch.errors import InvalidPolygon
from polysearch.geometry import Cell, GridGraph, OrthoPolygon, validate_polygon
from polysearch.sfc import gilbert_curve
from polysearch.sim import DEFAULT_STEP_FACTOR, team

# Neighbor probing order of the reference oracles: N, E, S, W (row grows northward).
CARDINAL_STEPS = ((0, 1), (1, 0), (0, -1), (-1, 0))


def P(*pairs) -> OrthoPolygon:
    return validate_polygon(list(pairs))


def ref_inside(verts, px: float, py: float) -> bool:
    """Single east-ray even-odd membership test, independent of the library.

    Valid for query points that are not on the boundary; test points use
    half-integer coordinates against integer edges, so no ties occur.
    """
    n = len(verts)
    crossings = 0
    for i in range(n):
        (x0, y0), (x1, y1) = verts[i], verts[(i + 1) % n]
        if x0 == x1 and x0 > px and min(y0, y1) < py < max(y0, y1):
            crossings += 1
    return crossings % 2 == 1


def ref_on_boundary(verts, px: float, py: float) -> bool:
    n = len(verts)
    for i in range(n):
        (x0, y0), (x1, y1) = verts[i], verts[(i + 1) % n]
        if x0 == x1:
            if px == x0 and min(y0, y1) <= py <= max(y0, y1):
                return True
        else:
            if py == y0 and min(x0, x1) <= px <= max(x0, x1):
                return True
    return False


def ref_in_closed_region(verts, px: int, py: int) -> bool:
    """Lattice point inside or on the polygon boundary.

    Strict interior at a lattice point is decided through the incident unit
    cells: the boundary runs on lattice lines only, so every unit cell is
    wholly inside or wholly outside, and a non-boundary lattice point is
    interior exactly when one of its incident cells is.
    """
    if ref_on_boundary(verts, px, py):
        return True
    return any(
        ref_inside(verts, px + dx + 0.5, py + dy + 0.5)
        for dx in (-1, 0)
        for dy in (-1, 0)
    )


@pytest.fixture
def unit_square() -> OrthoPolygon:
    return P((0, 0), (1, 0), (1, 1), (0, 1))


@pytest.fixture
def l_shape() -> OrthoPolygon:
    return P((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))


@pytest.fixture
def u_shape() -> OrthoPolygon:
    return P((0, 0), (3, 0), (3, 2), (2, 2), (2, 1), (1, 1), (1, 2), (0, 2))


@pytest.fixture
def staircase() -> OrthoPolygon:
    return P((0, 0), (3, 0), (3, 3), (2, 3), (2, 2), (1, 2), (1, 1), (0, 1))


def cell(c: int, r: int) -> Cell:
    return Cell(c, r)


def rect_cells(rect) -> list[Cell]:
    """A rectangle's cells, row by row from its anchor."""
    return [
        Cell(col, row)
        for row in range(rect.anchor.row, rect.anchor.row + rect.height)
        for col in range(rect.anchor.col, rect.anchor.col + rect.width)
    ]


#: A grid of two components, its cells given out of row-major order.
TWO_PART_CELLS = (Cell(0, 0), Cell(1, 0), Cell(0, 1), Cell(3, 0), Cell(3, 1), Cell(4, 1))


def two_part_grid() -> GridGraph:
    return GridGraph(TWO_PART_CELLS)


def grid_fields(g: GridGraph) -> tuple:
    assert all(type(c) is Cell for c in g.cells)
    return g.cells, g.index, g.cols, g.rows, g.adjacency


def ref_raster_cells(poly: OrthoPolygon) -> list[Cell]:
    """Cells of the bounding box whose centers the single-ray oracle puts inside."""
    w, h = poly.bounds
    return [Cell(c, r) for c in range(w) for r in range(h) if ref_inside(poly.vertices, c + 0.5, r + 0.5)]


def ref_grid_fields(cells) -> tuple:
    """(cells, index, cols, rows, adjacency) of the set-based grid build.

    Deduplicates the cells through a set, sorts them row-major and probes
    N, E, S, W with one Cell per neighbor, whatever order the cells come in.
    """
    ordered = sorted(set(Cell(*c) for c in cells), key=lambda c: (c.row, c.col))
    index = {c: i for i, c in enumerate(ordered)}
    adj = []
    for c in ordered:
        row = []
        for dx, dy in CARDINAL_STEPS:
            nb = index.get(Cell(c.col + dx, c.row + dy))
            if nb is not None:
                row.append(nb)
        adj.append(tuple(row))
    return tuple(ordered), index, tuple(c.col for c in ordered), tuple(c.row for c in ordered), tuple(adj)


def ref_polygon_from_cells(cells) -> OrthoPolygon:
    """The unit-edge walk, an oracle for `polygon_from_cells`.

    Collects every directed boundary unit edge with the interior on its left,
    walks them from the lowest-leftmost point and keeps the points where the
    direction turns. Raises InvalidPolygon if two edges leave one point (a
    pinch) or the walk misses an edge (a hole or a second piece).
    """
    cset = {Cell(*c) for c in cells}
    if not cset:
        raise InvalidPolygon("no cells to trace")
    out_edges: dict[tuple[int, int], tuple[int, int]] = {}

    def add(a, b) -> None:
        if a in out_edges:
            raise InvalidPolygon(f"cell set pinches at point {a}")
        out_edges[a] = b

    for c, r in cset:
        if (c, r - 1) not in cset:
            add((c, r), (c + 1, r))
        if (c + 1, r) not in cset:
            add((c + 1, r), (c + 1, r + 1))
        if (c, r + 1) not in cset:
            add((c + 1, r + 1), (c, r + 1))
        if (c - 1, r) not in cset:
            add((c, r + 1), (c, r))

    start = min(out_edges, key=lambda p: (p[1], p[0]))
    loop = [start]
    while (cur := out_edges[loop[-1]]) != start:
        loop.append(cur)
    if len(loop) != len(out_edges):
        raise InvalidPolygon("cell set has more than one boundary loop")
    turns = []
    for prev, here, nxt in zip(loop[-1:] + loop[:-1], loop, loop[1:] + loop[:1]):
        if (here[0] - prev[0], here[1] - prev[1]) != (nxt[0] - here[0], nxt[1] - here[1]):
            turns.append(here)
    return validate_polygon(turns)


def ref_sfc_curves(grid: GridGraph, rect_seed: int) -> tuple[tuple[int, ...], ...]:
    """The Cell path, an oracle for `sfc_layout(grid, rect_seed).curves`.

    Moves each rectangle's curve onto its cells, checking that it spans the
    rectangle, detours every diagonal step through an in-grid corner (the
    horizontal one first, else the vertical one) and looks each cell up in
    `grid.index`.
    """
    curves = []
    for rect in rectangulate(grid, rect_seed).rects:
        local = gilbert_curve(rect.width, rect.height)
        assert {c.col for c in local} == set(range(rect.width))
        assert {c.row for c in local} == set(range(rect.height))
        placed = [Cell(col + rect.anchor.col, row + rect.anchor.row) for col, row in local]
        routed = [placed[0]]
        for nxt in placed[1:]:
            cur = routed[-1]
            dx, dy = nxt.col - cur.col, nxt.row - cur.row
            if abs(dx) == abs(dy) == 1:
                horizontal, vertical = Cell(cur.col + dx, cur.row), Cell(cur.col, cur.row + dy)
                routed.append(horizontal if horizontal in grid.index else vertical)
                assert routed[-1] in grid.index
            else:
                assert abs(dx) + abs(dy) == 1
            routed.append(nxt)
        curves.append(tuple(grid.index[c] for c in routed))
    return tuple(curves)


def check_trace(rows, result, grid, cfg) -> None:
    """Fail, naming the first bad row, unless `rows` is a legal trace of `cfg`
    on `grid` that ends in `result`.

    `rows` are the index rows ``[intruder, *robots]`` that `run_trial` records,
    one for each t in 0..steps. Each entry is a cell of the grid and each move
    a stay or a 4-adjacent step. sfc/sfc_g robot i stands on
    ``tours[i][t % len]`` of `sim.team`, so guards, whose tours are one cell,
    never move. A static intruder never moves, and a walking one always does
    unless it is boxed in. Capture, a co-location or a swap of cells derived
    from consecutive rows, happens at the last row only; an uncaptured trial
    ends at the step cap, and `via_swap` is the last step's swap without a
    co-location.
    """
    assert len(rows) == result.steps + 1, f"{len(rows)} rows for {result.steps} steps"
    tours = team(cfg, grid)[0]
    captured = swapped = False
    for t, row in enumerate(rows):
        assert len(row) == cfg.k + 1, f"row {t}: {len(row)} entries for {cfg.k} robots"
        assert all(0 <= i < len(grid) for i in row), f"row {t}: {row} leaves the grid"
        if tours:
            want = [tour[t % len(tour)] for tour in tours]
            assert row[1:] == want, f"row {t}: robots on {row[1:]}, their tours give {want}"
        if t:
            prev = rows[t - 1]
            for a, b in zip(prev, row):
                assert b == a or b in grid.adjacency[a], f"row {t}: {a} -> {b} is no stay or 4-adjacent step"
            was, now = prev[0], row[0]
            if cfg.intruder == "static":
                assert now == was, f"row {t}: the static intruder moved"
            elif cfg.intruder == "walk":
                assert now != was or not grid.adjacency[was], f"row {t}: the walking intruder stayed"
            co_located = now in row[1:]
            swapped = not co_located and now != was and any(
                p == now and r == was for p, r in zip(prev[1:], row[1:])
            )
            captured = co_located or swapped
        else:
            captured = row[0] in row[1:]
        assert not captured or t == result.steps, f"row {t}: a capture before the last row"
    last = f"row {result.steps}"
    assert captured == result.captured, f"{last}: captured is {result.captured}, the trace gives {captured}"
    cap = DEFAULT_STEP_FACTOR * len(grid) if cfg.max_steps is None else cfg.max_steps
    ended = result.steps == cap or captured and result.steps < cap
    assert ended, f"{last}: {result.steps} steps, captured {captured}, against a step cap of {cap}"
    assert result.via_swap == swapped, f"{last}: via_swap is {result.via_swap}, the trace gives {swapped}"
