"""The 3-Partition reduction behind the comb instances, as a test oracle.

A 3-Partition instance becomes a comb whose spike depths are its entries.
One robot per triple sweeps its three spikes on the rasterized comb, and
the round schedule's makespan is qT exactly when every triple sums to T.
Criterion 05 checks that equivalence exhaustively; nothing in the package
calls this module.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from polysearch.errors import InvalidConfig, PolySearchError
from polysearch.geometry import Cell, OrthoPolygon, rasterize
from polysearch.polygen import comb_polygon


class NotAPartition(PolySearchError):
    """Proposed triples do not cover {1..3q} exactly once each."""


class TripleSizeError(PolySearchError):
    """A proposed group does not contain exactly three elements."""


class ScheduleMismatch(PolySearchError):
    """Simulated sweep disagrees with the closed-form schedule times."""


@dataclass(frozen=True)
class ThreePartitionInstance:
    """Multiset S of 3q positive integers that should split into q triples of sum T."""

    S: tuple[int, ...]
    q: int
    T: int


def _check_instance(inst: ThreePartitionInstance) -> None:
    if inst.q < 1:
        raise InvalidConfig("q must be at least 1")
    if len(inst.S) != 3 * inst.q:
        raise InvalidConfig(f"|S| = {len(inst.S)}, expected 3q = {3 * inst.q}")
    if any(int(s) != s or s < 1 for s in inst.S):
        raise InvalidConfig("S entries must be positive integers")
    if sum(inst.S) != inst.q * inst.T:
        raise InvalidConfig(f"sum(S) = {sum(inst.S)}, expected qT = {inst.q * inst.T}")
    if any(not (inst.T / 4 < s < inst.T / 2) for s in inst.S):
        warnings.warn(
            "spike depths outside (T/4, T/2); triples of other sizes could also balance",
            stacklevel=3,
        )


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
        assert pos in grid.index
        steps = 0
        visited = {pos} & assigned
        done_at = None

        def move(to: Cell) -> None:
            nonlocal pos, steps, done_at
            assert abs(to.col - pos.col) + abs(to.row - pos.row) == 1
            assert to in grid.index, f"sweep leaves the comb at {tuple(to)}"
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
