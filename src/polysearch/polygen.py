"""Random orthogonal polygon generation and comb-shaped hardness gadgets.

inflate_cut grows a polygon from a unit square two vertices at a time by
refining the lattice around a random cell and cutting a random rectangle at a
convex corner, on one bitmap of the cells; only a cut that fits is refined,
and the corner counts of the rest show that it is one piece with no pinch.
Combs encode 3-Partition triples as spike depths; balancing the triples is
what makes an optimal multi-robot sweep schedule hard.
"""
from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InstanceInvalid,
    IterationBudgetExceeded,
    NotAPartition,
    OddTargetVertices,
    ScheduleMismatch,
    TooLarge,
    TripleSizeError,
)
from .geometry import MAX_VERTICES, Cell, OrthoPolygon, check_cells, polygon_from_cells, rasterize

RETRY_BUDGET = 10_000


def _corner_scan(a: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """(convex corners as (x, y) rows sorted by x then y, vertex count, whether
    a hole-free set is one pinch-free piece) of the cells a[row, col]. In a
    pinch-free set, convex less reflex corners is 4 x (pieces - holes)."""
    p = np.pad(a, 1).view(np.uint8)
    sw, se, nw, ne = p[:-1, :-1], p[:-1, 1:], p[1:, :-1], p[1:, 1:]
    n = sw + se + nw + ne  # cells around each lattice point
    convex, reflex = n == 1, n == 3
    pinch = bool(((n == 2) & (ne == sw)).any())
    c, r = int(convex.sum()), int(reflex.sum())
    return np.argwhere(convex.T), c + r, not pinch and c - r == 4


def _stretch_cut(a: np.ndarray, row: int, col: int, x: int, y: int) -> np.ndarray | None:
    """a with row `row` and column `col` doubled, less the rectangle between
    lattice point (x, y), shifted alike, and the center of cell (col, row)'s
    2x2 block; None unless the rectangle's preimage, the cells from (x, y) to
    (col, row), lies in a."""
    if not a[min(y, row):max(y, row + 1), min(x, col):max(x, col + 1)].all():
        return None
    s = np.insert(a, row, a[row], axis=0)
    s = np.insert(s, col, s[:, col], axis=1)
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
    if target_vertices % 2:
        raise OddTargetVertices(f"{target_vertices} is odd; orthogonal polygons have even vertex counts")
    if target_vertices < 4:
        raise OddTargetVertices(f"{target_vertices} < 4; no such orthogonal polygon")
    if target_vertices > MAX_VERTICES:
        raise TooLarge(f"{target_vertices} vertices; at most {MAX_VERTICES} are supported")

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
    rows, cols = np.nonzero(a)
    return polygon_from_cells(map(Cell, cols.tolist(), rows.tolist()))


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
    than MAX_CELLS cells or MAX_VERTICES vertices raise TooLarge before any
    cell is built.
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
    # Teeth never touch, so each nonzero one adds four corners to the base's four.
    vertices = 4 + 4 * sum(1 for depth in (*spike_lengths, *down) if depth)
    if vertices > MAX_VERTICES:
        raise TooLarge(f"comb has {vertices} vertices; at most {MAX_VERTICES} are supported")
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
