"""Greedy random rectangulation of a grid graph, junctions, robot allocation.

A rectangulation partitions the cells of a grid graph into axis-aligned
rectangles. Junctions are the maximal straight shared segments between two
rectangles, kept as ordered lists of straddling cell pairs; they are where a
guard can cut one rectangle off from another.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

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

    def cells(self) -> Iterator[Cell]:
        for row in range(self.anchor.row, self.anchor.row + self.height):
            for col in range(self.anchor.col, self.anchor.col + self.width):
                yield Cell(col, row)


@dataclass(frozen=True)
class Junction:
    """Maximal shared segment between rectangles a < b.

    pairs[i] = (cell in rect a, cell in rect b), consecutive along the shared
    line in increasing row (vertical boundary) or column (horizontal) order.
    """

    a: int
    b: int
    pairs: tuple[tuple[Cell, Cell], ...]


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
    free = set(g.cells)
    rects: list[Rectangle] = []
    while free:
        ordered = sorted(free, key=lambda c: (c.row, c.col))
        c = ordered[rng.randrange(len(ordered))]
        rect = _max_rectangle(free, c)
        rects.append(rect)
        for covered in rect.cells():
            free.discard(covered)
    return Rectangulation(tuple(rects), _find_junctions(rects))


def _row_interval(free: set[Cell], col: int, row: int) -> tuple[int, int] | None:
    if Cell(col, row) not in free:
        return None
    left = col
    while Cell(left - 1, row) in free:
        left -= 1
    right = col
    while Cell(right + 1, row) in free:
        right += 1
    return left, right


def _max_rectangle(free: set[Cell], c: Cell) -> Rectangle:
    # Maximal free row runs through c.col, extended upward and downward from
    # c.row until the column is blocked.
    intervals: dict[int, tuple[int, int]] = {}
    row = c.row
    while True:
        iv = _row_interval(free, c.col, row)
        if iv is None:
            break
        intervals[row] = iv
        row += 1
    row = c.row - 1
    while True:
        iv = _row_interval(free, c.col, row)
        if iv is None:
            break
        intervals[row] = iv
        row -= 1

    best: tuple[int, int, Cell] | None = None  # (area, width, anchor)
    lo = min(intervals)
    hi = max(intervals)
    for r1 in range(c.row, lo - 1, -1):
        left, right = intervals[r1]
        for r in range(r1 + 1, c.row + 1):
            l2, r2 = intervals[r]
            left = max(left, l2)
            right = min(right, r2)
        for r2 in range(c.row, hi + 1):
            l2, rr2 = intervals[r2]
            left = max(left, l2)
            right = min(right, rr2)
            width = right - left + 1
            area = width * (r2 - r1 + 1)
            anchor = Cell(left, r1)
            if (
                best is None
                or area > best[0]
                or (area == best[0] and width > best[1])
                or (area == best[0] and width == best[1] and (anchor.row, anchor.col) < (best[2].row, best[2].col))
            ):
                best = (area, width, anchor)
    assert best is not None
    return Rectangle(best[2], best[1], best[0] // best[1])


def _find_junctions(rects: Sequence[Rectangle]) -> tuple[Junction, ...]:
    rid: dict[Cell, int] = {}
    for i, r in enumerate(rects):
        for c in r.cells():
            rid[c] = i

    # (a, b, axis, line) -> list of (run coordinate, cell_a, cell_b)
    groups: dict[tuple[int, int, str, int], list[tuple[int, Cell, Cell]]] = {}
    for c, i in rid.items():
        east = Cell(c.col + 1, c.row)
        j = rid.get(east)
        if j is not None and j != i:
            a, b = min(i, j), max(i, j)
            ca, cb = (c, east) if a == i else (east, c)
            groups.setdefault((a, b, "v", c.col + 1), []).append((c.row, ca, cb))
        north = Cell(c.col, c.row + 1)
        j = rid.get(north)
        if j is not None and j != i:
            a, b = min(i, j), max(i, j)
            ca, cb = (c, north) if a == i else (north, c)
            groups.setdefault((a, b, "h", c.row + 1), []).append((c.col, ca, cb))

    juncs: list[Junction] = []
    for key in sorted(groups):
        a, b, _, _ = key
        entries = sorted(groups[key])
        run: list[tuple[Cell, Cell]] = []
        prev_coord: int | None = None
        for coord, ca, cb in entries:
            if prev_coord is not None and coord != prev_coord + 1:
                juncs.append(Junction(a, b, tuple(run)))
                run = []
            run.append((ca, cb))
            prev_coord = coord
        if run:
            juncs.append(Junction(a, b, tuple(run)))
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
    quotas = [k_s * a / total for a in areas]
    counts = [int(q) for q in quotas]
    leftover = k_s - sum(counts)
    order = sorted(range(m), key=lambda i: (-(quotas[i] - counts[i]), -areas[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    # floor of one robot per rectangle
    for i in sorted(range(m), key=lambda i: (-areas[i], i)):
        if counts[i] == 0:
            donor = max(
                (j for j in range(m) if counts[j] >= 2),
                key=lambda j: (counts[j] - quotas[j], counts[j], -j),
            )
            counts[donor] -= 1
            counts[i] += 1
    return counts
