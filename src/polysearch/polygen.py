"""Random orthogonal polygon generation and comb-shaped hardness gadgets.

inflate_cut grows a polygon from a unit square two vertices at a time by
refining the lattice around a random cell and cutting a random rectangle at a
convex corner, on one bitmap of the cells; only a cut that fits is refined,
and the corner counts of the rest show that it is one piece with no pinch.
Combs are the hard instances: with 3-Partition triples as spike depths,
balancing the triples is what makes an optimal multi-robot sweep schedule
hard (tests/three_partition.py checks that reduction).
"""
from __future__ import annotations

import random
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .errors import InvalidConfig, IterationBudgetExceeded, TooLarge
from .geometry import (
    MAX_VERTICES,
    Cell,
    OrthoPolygon,
    check_cells,
    check_int,
    corner_counts,
    polygon_from_cells,
    shown,
)

RETRY_BUDGET = 10_000


def _corner_scan(a: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """(convex corners as (x, y) rows sorted by x then y, vertex count, whether
    a hole-free set is one pinch-free piece) of the cells a[row, col]. In a
    pinch-free set, convex less reflex corners is 4 x (pieces - holes)."""
    p = np.zeros((a.shape[0] + 2, a.shape[1] + 2), np.uint8)
    p[1:-1, 1:-1] = a
    n, pinch = corner_counts(p[:-1, :-1], p[:-1, 1:], p[1:, :-1], p[1:, 1:])
    convex, reflex = n == 1, n == 3
    c, r = int(convex.sum()), int(reflex.sum())
    return np.argwhere(convex.T), c + r, not pinch.any() and c - r == 4


def _stretch_cut(a: np.ndarray, row: int, col: int, x: int, y: int) -> np.ndarray | None:
    """a with row `row` and column `col` doubled, less the rectangle between
    lattice point (x, y), shifted alike, and the center of cell (col, row)'s
    2x2 block; None unless the rectangle's preimage, the cells from (x, y) to
    (col, row), lies in a."""
    if not a[min(y, row):max(y, row + 1), min(x, col):max(x, col + 1)].all():
        return None
    rows, cols = np.arange(a.shape[0] + 1), np.arange(a.shape[1] + 1)
    rows[row + 1:] -= 1
    cols[col + 1:] -= 1
    s = a[rows[:, None], cols]
    x, y = x + (x > col), y + (y > row)
    s[min(y, row + 1):max(y, row + 1), min(x, col + 1):max(x, col + 1)] = False
    return s


def inflate_cut(target_vertices: int, seed: int) -> OrthoPolygon:
    """Random simply connected orthogonal polygon with exactly target_vertices.

    Starts from a unit square; each round refines the lattice around a random
    cell and removes the rectangle spanned by a random convex corner and the
    refined block's center point, accepting only cuts that keep the cell set
    connected and pinch-free while adding exactly two vertices. A corner cut
    is 4-adjacent to the outside across the corner, so it never encloses a
    hole: every accepted set stays simply connected, and the corner counts
    alone show that it is one piece.
    Deterministic per seed; raises IterationBudgetExceeded after 10^4
    rejected attempts in a round, and TooLarge above MAX_VERTICES.
    """
    target_vertices, seed = check_int(target_vertices, "target_vertices"), check_int(seed, "seed")
    if target_vertices % 2:
        raise InvalidConfig(f"{shown(target_vertices)} is odd; orthogonal polygons have even vertex counts")
    if target_vertices < 4:
        raise InvalidConfig(f"{shown(target_vertices)} < 4; no such orthogonal polygon")
    if target_vertices > MAX_VERTICES:
        raise TooLarge(f"{shown(target_vertices)} vertices; at most {MAX_VERTICES} are supported")

    rng = random.Random(seed)
    a = np.ones((1, 1), dtype=bool)  # a[row, col]: whether cell (col, row) is in
    convex, vertices, _ = _corner_scan(a)
    while vertices < target_vertices:
        ordered = np.flatnonzero(a)  # row-major: the pinned polygons depend on this order
        # The stretch keeps the x and y order and adds no convex corner (each
        # point on a new line has equal cells on both sides), so the stretched
        # set's sorted convex corners are these, shifted.
        for _ in range(RETRY_BUDGET):
            row, col = divmod(int(ordered[rng.randrange(len(ordered))]), a.shape[1])
            x, y = convex[rng.randrange(len(convex))].tolist()
            remaining = _stretch_cut(a, row, col, x, y)
            if remaining is None:
                continue
            corners, count, one_piece = _corner_scan(remaining)
            if not one_piece or count != vertices + 2:
                continue
            a, convex, vertices = remaining, corners, count
            break
        else:
            raise IterationBudgetExceeded(
                f"no acceptable cut in {RETRY_BUDGET} attempts at {vertices} vertices"
            )
    return polygon_from_cells(np.argwhere(a.T))


def comb_cells(
    spike_lengths: Sequence[int],
    spike_width: int = 1,
    base_height: int = 1,
    spike_gap: int = 1,
    down: Sequence[int] = (),
) -> set[Cell]:
    """Cell set of a comb: a full-width base with one upward spike per entry.

    `down` hangs teeth below the base (at negative rows) in the same slots,
    left to right; a zero depth on either side leaves that slot flat. More
    than MAX_CELLS cells or MAX_VERTICES vertices raise TooLarge before any
    cell is built.
    """
    spike_lengths = [check_int(depth, "spike length") for depth in spike_lengths]
    down = [check_int(depth, "spike length") for depth in down]
    spike_width = check_int(spike_width, "spike_width")
    base_height = check_int(base_height, "base_height")
    spike_gap = check_int(spike_gap, "spike_gap")
    n = len(spike_lengths)
    if n < 1 or spike_width < 1 or base_height < 1 or spike_gap < 1:
        raise InvalidConfig("comb dimensions must be positive")
    if len(down) > n:
        raise InvalidConfig(f"{len(down)} bottom teeth for {n} slots")
    if any(s < 0 for s in (*spike_lengths, *down)):
        raise InvalidConfig("spike lengths must be nonnegative")
    width = n * (spike_width + spike_gap) + spike_gap
    check_cells(width * base_height + spike_width * (sum(spike_lengths) + sum(down)), "comb")
    # Teeth never touch, so each nonzero one adds four corners to the base's four.
    vertices = 4 + 4 * sum(1 for depth in (*spike_lengths, *down) if depth)
    if vertices > MAX_VERTICES:
        raise TooLarge(f"comb has {vertices} vertices; at most {MAX_VERTICES} are supported")
    cells = {Cell(c, r) for c in range(width) for r in range(base_height)}
    for i, (up, dn) in enumerate(zip_longest(spike_lengths, down, fillvalue=0)):
        x0 = spike_gap + i * (spike_width + spike_gap)
        cells.update(Cell(c, r) for c in range(x0, x0 + spike_width) for r in range(-dn, base_height + up))
    return cells


def comb_polygon(
    spike_lengths: Sequence[int],
    spike_width: int = 1,
    base_height: int = 1,
    spike_gap: int = 1,
    down: Sequence[int] = (),
) -> OrthoPolygon:
    return polygon_from_cells(comb_cells(spike_lengths, spike_width, base_height, spike_gap, down))
