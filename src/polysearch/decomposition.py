"""Greedy random rectangulation of a grid graph, junctions, robot allocation.

A rectangulation partitions the cells of a grid graph into axis-aligned
rectangles. Junctions are the maximal straight shared segments between two
rectangles, kept as a line and a range that the straddling cell pairs
(doorways) derive from; they are where a guard can cut one rectangle off.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TooFewRobots
from .geometry import Cell, GridGraph


@dataclass(frozen=True)
class Rectangle:
    anchor: Cell  # lower-left cell
    width: int
    height: int

    @property
    def area(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class Junction:
    """Maximal shared segment between rectangles a < b: rows (axis 0) or
    columns (axis 1) lo..hi - 1 along the line x or y = `line`, with rect a
    west or south of it when a_low, else east or north."""

    a: int
    b: int
    axis: int
    line: int
    lo: int
    hi: int
    a_low: bool

    @property
    def door(self) -> tuple[int, int]:
        """(col, row) of the first doorway's cell in rect a."""
        at_a = self.line - self.a_low  # the column or row of a's doorway cells
        return (at_a, self.lo) if self.axis == 0 else (self.lo, at_a)

    @property
    def pairs(self) -> tuple[tuple[Cell, Cell], ...]:
        """(cell in rect a, cell in rect b) per doorway, by increasing row or column."""
        at_a, at_b = (self.line - 1, self.line) if self.a_low else (self.line, self.line - 1)
        if self.axis == 0:
            return tuple((Cell(at_a, t), Cell(at_b, t)) for t in range(self.lo, self.hi))
        return tuple((Cell(t, at_a), Cell(t, at_b)) for t in range(self.lo, self.hi))


@dataclass(frozen=True)
class Rectangulation:
    rects: tuple[Rectangle, ...]
    juncs: tuple[Junction, ...]


def rectangulate(g: GridGraph, seed: int) -> Rectangulation:
    """Cover the grid greedily with maximal rectangles around random cells.

    Each round picks a uniformly random uncovered cell and carves out the
    largest all-uncovered rectangle that contains it (ties: larger width,
    then smaller anchor in row-major order). Deterministic per seed.
    """
    rng = random.Random(seed)
    free = bytearray(b"\x01") * len(g.cells)  # uncovered flag per cell index
    rects: list[Rectangle] = []
    while len(candidates := np.flatnonzero(np.frombuffer(free, np.uint8))):  # row-major, as g.cells
        rect = _max_rectangle(g, free, candidates[rng.randrange(len(candidates))])
        rects.append(rect)
        for row in range(rect.anchor.row, rect.anchor.row + rect.height):
            i = g.index[rect.anchor.col, row]  # a rectangle's row is a run of indices
            free[i : i + rect.width] = bytes(rect.width)
    return Rectangulation(tuple(rects), _find_junctions(rects))


def _max_rectangle(g: GridGraph, free: bytearray, i: int) -> Rectangle:
    # Walk up, then down, from cell i's row until its column is blocked,
    # intersecting the maximal free row runs through the column. A row's
    # cells have consecutive indices, so each run is walked on indices.
    cols, rows = g.cols, g.rows
    col, row0 = g.cells[i]
    # reach[side] maps each distinct running intersection to the farthest row
    # with it: a nearer row with the same one spans fewer rows, so it never
    # wins, and at most width² pairs of rows are compared.
    reach: tuple[dict[tuple[int, int], int], ...] = ({}, {})
    for side, step in zip(reach, (1, -1)):
        row, left, right = row0, -math.inf, math.inf
        while (lo := g.index.get((col, row))) is not None and free[lo]:
            hi = lo
            while lo and free[lo - 1] and rows[lo - 1] == row and cols[lo - 1] == cols[lo] - 1:
                lo -= 1
            while hi + 1 < len(free) and free[hi + 1] and rows[hi + 1] == row and cols[hi + 1] == cols[hi] + 1:
                hi += 1
            left, right = max(left, cols[lo]), min(right, cols[hi])
            side[left, right] = row
            row += step

    # Rows r1..r2 share the intersection of their two sides' runs; the
    # smallest key is the largest area, then width, then row-major anchor.
    best = None
    for (up_left, up_right), r2 in reach[0].items():
        for (down_left, down_right), r1 in reach[1].items():
            left = max(up_left, down_left)
            width = min(up_right, down_right) - left + 1
            key = (-width * (r2 - r1 + 1), -width, r1, left)
            if best is None or key < best:
                best = key
    neg_area, neg_width, row, col = best
    return Rectangle(Cell(col, row), -neg_width, neg_area // neg_width)


def _find_junctions(rects: Sequence[Rectangle]) -> tuple[Junction, ...]:
    # Two disjoint rectangles meet along at most one segment: their rows
    # overlap and one's east edge is the other's west edge, or their columns
    # overlap and a north edge meets a south edge.
    boxes = [(r.anchor.col, r.anchor.col + r.width, r.anchor.row, r.anchor.row + r.height) for r in rects]
    juncs: list[Junction] = []
    for a, (ax0, ax1, ay0, ay1) in enumerate(boxes):
        for b in range(a + 1, len(boxes)):
            bx0, bx1, by0, by1 = boxes[b]
            rows, cols = (max(ay0, by0), min(ay1, by1)), (max(ax0, bx0), min(ax1, bx1))
            if rows[0] < rows[1] and (ax1 == bx0 or bx1 == ax0):
                juncs.append(Junction(a, b, 0, cols[0], *rows, ax1 == bx0))
            elif cols[0] < cols[1] and (ay1 == by0 or by1 == ay0):
                juncs.append(Junction(a, b, 1, rows[0], *cols, ay1 == by0))
    return tuple(juncs)


def allocate_robots(r: Rectangulation, k_s: int) -> list[int]:
    """Split k_s searchers over rectangles, proportional to area, floor 1.

    Largest-remainder apportionment; leftover units go to the largest
    remainders (ties: larger area, then lower rectangle index). If any
    rectangle ends up empty its unit is taken from the most over-provisioned
    rectangle. Raises TooFewRobots when k_s < number of rectangles.
    """
    m = len(r.rects)
    if k_s < m:
        raise TooFewRobots(f"{k_s} searchers for {m} rectangles")
    areas = [rect.area for rect in r.rects]
    total = sum(areas)
    counts = [k_s * a // total for a in areas]  # quotas in exact integers: equal remainders tie
    leftover = k_s - sum(counts)
    order = sorted(range(m), key=lambda i: (counts[i] * total - k_s * areas[i], -areas[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    # floor of one robot per rectangle
    for i in sorted(range(m), key=lambda i: (-areas[i], i)):
        if counts[i] == 0:
            donor = max(
                (j for j in range(m) if counts[j] >= 2),
                key=lambda j: (counts[j] * total - k_s * areas[j], counts[j], -j),
            )
            counts[donor] -= 1
            counts[i] += 1
    return counts
