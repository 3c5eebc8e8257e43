"""Random orthogonal polygon generation and comb-shaped hardness gadgets.

inflate_cut grows a polygon from a unit square two vertices at a time by
refining the lattice around a random cell and cutting a random rectangle at a
convex corner; only a cut that fits is refined, and geometry's single flood
fill checks that the rest stays connected. Combs encode 3-Partition triples
as spike depths; balancing the triples is what makes an optimal multi-robot
sweep schedule hard.
"""
from __future__ import annotations

import random
import warnings
from collections import defaultdict
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Sequence

from .errors import (
    InstanceInvalid,
    IterationBudgetExceeded,
    NotAPartition,
    OddTargetVertices,
    ScheduleMismatch,
    TooLarge,
    TripleSizeError,
)
from .geometry import Cell, OrthoPolygon, cells_connected, check_cells, polygon_from_cells, rasterize

RETRY_BUDGET = 10_000

#: Most vertices inflate_cut grows: its time rises about as v^2.8, and
#: v = 500 takes about 7 s (12,000 cells) on a 2-core Xeon.
MAX_VERTICES = 500

# Incidence bits of a cell at a lattice point: the two diagonal pairings are
# the pinch patterns.
_NE, _NW, _SE, _SW = 1, 2, 4, 8
_PINCH_MASKS = (_NE | _SW, _NW | _SE)


def _corner_masks(cells: Iterable[Cell]) -> dict[tuple[int, int], int]:
    """Incidence bits of the cells around each lattice point they touch."""
    around: dict[tuple[int, int], int] = defaultdict(int)
    for c, r in cells:
        around[(c, r)] |= _NE
        around[(c + 1, r)] |= _NW
        around[(c, r + 1)] |= _SE
        around[(c + 1, r + 1)] |= _SW
    return around


def _corner_scan(cells: set[Cell]) -> tuple[list[tuple[int, int]], int, bool]:
    """(convex corners, number of polygon vertices, whether the set pinches at a point)."""
    convex: list[tuple[int, int]] = []
    vertices = 0
    pinch = False
    for p, mask in _corner_masks(cells).items():
        n = bin(mask).count("1")
        if n == 1:
            convex.append(p)
        if n in (1, 3):
            vertices += 1
        elif n == 2 and mask in _PINCH_MASKS:
            pinch = True
    return convex, vertices, pinch


def _stretch(cells: set[Cell], at: Cell) -> set[Cell]:
    """Double the row and column through `at`; its image is a 2x2 block."""
    out: set[Cell] = set()
    for c, r in cells:
        cs = (c,) if c < at.col else ((c, c + 1) if c == at.col else (c + 1,))
        rs = (r,) if r < at.row else ((r, r + 1) if r == at.row else (r + 1,))
        for nc in cs:
            for nr in rs:
                out.add(Cell(nc, nr))
    return out


def _shift(p: tuple[int, int], at: Cell) -> tuple[int, int]:
    """Lattice point p as it lies after _stretch(_, at)."""
    return p[0] + (p[0] > at.col), p[1] + (p[1] > at.row)


def _cut(cells: set[Cell], at: Cell, corner: tuple[int, int]) -> set[Cell] | None:
    """Cells of _stretch(cells, at) between the shifted corner and the center of
    at's block, or None if one is missing. Checked without stretching: their
    preimages are the cells between the corner and `at`, `at` included."""
    x, y = corner
    if any((c, r) not in cells for c in range(min(x, at.col), max(x, at.col + 1))
           for r in range(min(y, at.row), max(y, at.row + 1))):
        return None
    (x, y), (cx, cy) = _shift(corner, at), (at.col + 1, at.row + 1)
    return {Cell(c, r) for c in range(min(x, cx), max(x, cx)) for r in range(min(y, cy), max(y, cy))}


def inflate_cut(target_vertices: int, seed: int) -> OrthoPolygon:
    """Random simply connected orthogonal polygon with exactly target_vertices.

    Starts from a unit square; each round refines the lattice around a random
    cell and removes the rectangle spanned by a random convex corner and the
    refined block's center point, accepting only cuts that keep the cell set
    connected and pinch-free while adding exactly two vertices. A corner cut
    never encloses a hole, so every accepted set stays simply connected.
    Deterministic per seed; raises IterationBudgetExceeded after 10^4
    rejected attempts in a round, and TooLarge above MAX_VERTICES.
    """
    if target_vertices % 2:
        raise OddTargetVertices(f"{target_vertices} is odd; orthogonal polygons have even vertex counts")
    if target_vertices < 4:
        raise OddTargetVertices(f"{target_vertices} < 4; no such orthogonal polygon")
    if target_vertices > MAX_VERTICES:
        raise TooLarge(f"{target_vertices} vertices; at most {MAX_VERTICES} are supported")

    rng = random.Random(seed)
    cells: set[Cell] = {Cell(0, 0)}
    convex, vertices, _ = _corner_scan(cells)
    while vertices < target_vertices:
        ordered = sorted(cells, key=lambda c: (c.row, c.col))
        # The stretch keeps the x and y order and adds no convex corner (each
        # point on a new line has equal cells on both sides), so the stretched
        # set's sorted convex corners are these, shifted.
        convex.sort()
        for _ in range(RETRY_BUDGET):
            at = ordered[rng.randrange(len(ordered))]
            cut = _cut(cells, at, convex[rng.randrange(len(convex))])
            if cut is None:
                continue
            remaining = _stretch(cells, at) - cut
            # No hole test: the cut is 4-adjacent to the outside across the
            # convex corner, so the complement stays one component.
            if not cells_connected(remaining):
                continue
            corners, count, pinch = _corner_scan(remaining)
            if pinch or count != vertices + 2:
                continue
            cells, convex, vertices = remaining, corners, count
            break
        else:
            raise IterationBudgetExceeded(
                f"no acceptable cut in {RETRY_BUDGET} attempts at {vertices} vertices"
            )
    return polygon_from_cells(cells)


@dataclass(frozen=True)
class ThreePartitionInstance:
    """Multiset S of 3q positive integers that should split into q triples of sum T."""

    S: tuple[int, ...]
    q: int
    T: int


def _check_instance(inst: ThreePartitionInstance) -> None:
    if inst.q < 1:
        raise InstanceInvalid("q must be at least 1")
    if len(inst.S) != 3 * inst.q:
        raise InstanceInvalid(f"|S| = {len(inst.S)}, expected 3q = {3 * inst.q}")
    if any(int(s) != s or s < 1 for s in inst.S):
        raise InstanceInvalid("S entries must be positive integers")
    if sum(inst.S) != inst.q * inst.T:
        raise InstanceInvalid(f"sum(S) = {sum(inst.S)}, expected qT = {inst.q * inst.T}")
    if any(not (inst.T / 4 < s < inst.T / 2) for s in inst.S):
        warnings.warn(
            "spike depths outside (T/4, T/2); triples of other sizes could also balance",
            stacklevel=3,
        )


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
    than MAX_CELLS cells raise TooLarge before any is built.
    """
    n = len(spike_lengths)
    if n < 1 or spike_width < 1 or base_height < 1 or spike_gap < 1:
        raise InstanceInvalid("comb dimensions must be positive")
    if len(down) > n:
        raise InstanceInvalid(f"{len(down)} bottom teeth for {n} slots")
    if any(s < 0 for s in (*spike_lengths, *down)):
        raise InstanceInvalid("spike lengths must be nonnegative")
    width = n * (spike_width + spike_gap) + spike_gap
    check_cells(width * base_height + spike_width * (sum(spike_lengths) + sum(down)), "comb")
    cells = {Cell(c, r) for c in range(width) for r in range(base_height)}
    for i, (up, dn) in enumerate(zip_longest(spike_lengths, down, fillvalue=0)):
        x0 = spike_gap + i * (spike_width + spike_gap)
        for c in range(x0, x0 + spike_width):
            for r in range(-dn, base_height + up):
                cells.add(Cell(c, r))
    return cells


def comb_polygon(
    spike_lengths: Sequence[int],
    spike_width: int = 1,
    base_height: int = 1,
    spike_gap: int = 1,
    down: Sequence[int] = (),
) -> OrthoPolygon:
    return polygon_from_cells(comb_cells(spike_lengths, spike_width, base_height, spike_gap, down))


def build_comb(
    inst: ThreePartitionInstance,
    spike_width: int = 1,
    base_height: int = 1,
    spike_gap: int = 1,
) -> OrthoPolygon:
    """Comb polygon whose spike depths are the instance entries, in order."""
    _check_instance(inst)
    return comb_polygon(inst.S, spike_width, base_height, spike_gap)


def _spike_columns(inst: ThreePartitionInstance, spike_width: int, spike_gap: int) -> list[int]:
    return [spike_gap + i * (spike_width + spike_gap) for i in range(len(inst.S))]


def _check_partition(inst: ThreePartitionInstance, partition: Sequence[Iterable[int]]) -> list[tuple[int, ...]]:
    triples = [tuple(t) for t in partition]
    if len(triples) != inst.q:
        raise NotAPartition(f"{len(triples)} groups for q = {inst.q}")
    for t in triples:
        if len(t) != 3:
            raise TripleSizeError(f"group {t} does not have exactly three elements")
    flat = sorted(i for t in triples for i in t)
    if flat != list(range(1, 3 * inst.q + 1)):
        raise NotAPartition("groups are not a disjoint cover of {1..3q}")
    return triples


@dataclass(frozen=True)
class SweepRecord:
    """One robot's sweep over its three spikes: clearing work vs. overhead."""

    clear: int  # one time unit per spike cell, paid on the ascent
    overhead: int  # descents plus base walking between spikes
    total: int  # simulated steps until the last spike cell is reached


def simulate_comb_sweep(
    inst: ThreePartitionInstance, partition: Sequence[Iterable[int]]
) -> list[SweepRecord]:
    """Step a robot per triple over its spikes on the actual comb grid.

    Each robot starts on the base below its leftmost spike, climbs and
    descends each spike in left-to-right order (no descent after the last),
    walking the base in between. The step count is simulated cell by cell on
    the rasterized comb; clear/overhead come from closed forms, and the two
    must agree (ScheduleMismatch otherwise).
    """
    triples = _check_partition(inst, partition)
    grid = rasterize(build_comb(inst))
    cols = _spike_columns(inst, 1, 1)

    records: list[SweepRecord] = []
    for triple in triples:
        spikes = sorted(triple)
        depths = [inst.S[i - 1] for i in spikes]
        xs = [cols[i - 1] for i in spikes]
        assigned = {
            Cell(x, 1 + d) for x, depth in zip(xs, depths) for d in range(depth)
        }

        pos = Cell(xs[0], 0)
        assert pos in grid
        steps = 0
        visited = {pos} & assigned
        done_at = None

        def move(to: Cell) -> None:
            nonlocal pos, steps, done_at
            assert abs(to.col - pos.col) + abs(to.row - pos.row) == 1
            assert to in grid, f"sweep leaves the comb at {tuple(to)}"
            pos = to
            steps += 1
            if to in assigned:
                visited.add(to)
                if done_at is None and visited == assigned:
                    done_at = steps

        for si, (x, depth) in enumerate(zip(xs, depths)):
            while pos.col != x:
                step = 1 if x > pos.col else -1
                move(Cell(pos.col + step, pos.row))
            for r in range(1, depth + 1):
                move(Cell(x, r))
            if si != len(xs) - 1:
                for r in range(depth - 1, -1, -1):
                    move(Cell(x, r))

        clear = sum(depths)
        overhead = (clear - depths[-1]) + (xs[-1] - xs[0])
        if done_at != clear + overhead or steps != done_at:
            raise ScheduleMismatch(
                f"simulated {done_at} steps, closed form gives {clear} + {overhead}"
            )
        records.append(SweepRecord(clear, overhead, done_at))
    return records


def verify_partition_schedule(
    inst: ThreePartitionInstance, partition: Sequence[Iterable[int]]
) -> int:
    """Makespan of the round schedule induced by a triple partition: q * max clear.

    Equals qT exactly when every triple sums to T (the sums total qT, so the
    max is T only in the balanced case). The comb sweep is simulated as a
    cross-check of each robot's clearing time.
    """
    _check_instance(inst)
    triples = _check_partition(inst, partition)
    records = simulate_comb_sweep(inst, partition)
    clears = [sum(inst.S[i - 1] for i in t) for t in triples]
    for rec, clear in zip(records, clears):
        if rec.clear != clear:
            raise ScheduleMismatch(f"sweep cleared {rec.clear}, schedule expected {clear}")
    return inst.q * max(clears)
