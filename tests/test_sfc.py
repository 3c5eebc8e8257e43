from __future__ import annotations

import pytest

from polysearch.errors import InvalidConfig, TooFewRobots, TooLarge, TooManyRobots
from polysearch.geometry import Cell, rasterize
from polysearch.sfc import gilbert_curve, repair_curve, segment_bounds

from conftest import P


def full_rect_grid(w: int, h: int):
    return rasterize(P((0, 0), (w, 0), (w, h), (0, h)))


def steps(c: tuple[Cell, ...]):
    return [(b.col - a.col, b.row - a.row) for a, b in zip(c, c[1:])]


class TestGilbert:
    def test_single_column(self):
        c = gilbert_curve(1, 5)
        assert list(c) == [Cell(0, r) for r in range(5)]

    def test_single_row(self):
        c = gilbert_curve(5, 1)
        assert list(c) == [Cell(col, 0) for col in range(5)]

    def test_2x2(self):
        c = gilbert_curve(2, 2)
        assert len(set(c)) == 4
        for dx, dy in steps(c):
            assert abs(dx) + abs(dy) == 1

    def test_3x3_frozen(self):
        # No diagonal arises at 3x3 with this split rule: 9 cells, 8 unit
        # steps, so repair leaves the curve unchanged.
        c = gilbert_curve(3, 3)
        assert len(c) == 9
        assert len(set(c)) == 9
        assert all(abs(dx) + abs(dy) == 1 for dx, dy in steps(c))
        assert repair_curve(c) == c

    def test_exhaustive_up_to_12(self):
        for w in range(1, 13):
            for h in range(1, 13):
                c = gilbert_curve(w, h)
                assert len(c) == w * h
                assert set(c) == {Cell(col, row) for col in range(w) for row in range(h)}
                diagonals = 0
                for dx, dy in steps(c):
                    assert max(abs(dx), abs(dy)) == 1
                    if abs(dx) == 1 and abs(dy) == 1:
                        diagonals += 1
                assert diagonals <= 1

    def test_empty_rectangle_rejected(self):
        with pytest.raises(InvalidConfig, match="has no cells"):
            gilbert_curve(0, 3)

    @pytest.mark.parametrize(
        "size, error, match",
        [
            ((0, 10**5000), InvalidConfig, r"rectangle 0x<too long to print> has no cells"),
            ((10**5000, 10**5000), TooLarge, r"<too long to print>x<too long to print> has <too long to print> cells"),
            ((10**4000, 10**4000), TooLarge, f"rectangle {10**4000}x{10**4000} has <too long to print> cells"),
        ],
        ids=["empty", "both-sides", "product-only"],
    )
    def test_size_messages_take_huge_integers(self, size, error, match):
        # str() refuses an int of more than 4,300 digits, so the message prints a stand-in.
        with pytest.raises(error, match=match):
            gilbert_curve(*size)


class TestRepair:
    def test_identity_when_no_diagonal(self):
        c = gilbert_curve(4, 4)
        assert repair_curve(c) == c

    def test_4x5_diagonal_removed(self):
        c = gilbert_curve(4, 5)
        assert sum(1 for dx, dy in steps(c) if abs(dx) == 1 and abs(dy) == 1) == 1
        r = repair_curve(c)
        assert len(r) == len(c) + 1
        assert all(abs(dx) + abs(dy) == 1 for dx, dy in steps(r))
        assert set(r) == set(c)

    def test_horizontal_intermediate_preferred(self):
        c = (Cell(0, 0), Cell(1, 1))
        r = repair_curve(c)
        assert list(r) == [Cell(0, 0), Cell(1, 0), Cell(1, 1)]

    def test_gap_rejected(self):
        with pytest.raises(InvalidConfig, match="curve jumps"):
            repair_curve((Cell(0, 0), Cell(2, 0)))

    def test_exhaustive_repaired_up_to_12(self):
        for w in range(1, 13):
            for h in range(1, 13):
                g = full_rect_grid(w, h)
                r = repair_curve(gilbert_curve(w, h))
                assert set(r) == set(g.cells)
                assert len(r) <= w * h + 1
                assert all(abs(dx) + abs(dy) == 1 for dx, dy in steps(r))


class TestSegments:
    def starts(self, c, count):
        return [start for start, _ in segment_bounds(len(c), count)]

    def test_even_split(self):
        c = gilbert_curve(3, 3)
        assert self.starts(c, 4) == [0, 2, 4, 6]

    def test_one_robot(self):
        c = gilbert_curve(2, 3)
        assert self.starts(c, 1) == [0]
        assert segment_bounds(len(c), 1) == [(0, 6)]

    def test_robot_per_cell(self):
        c = gilbert_curve(2, 2)
        assert self.starts(c, 4) == [0, 1, 2, 3]

    def test_too_many(self):
        with pytest.raises(TooManyRobots):
            segment_bounds(len(gilbert_curve(2, 2)), 5)

    @pytest.mark.parametrize("count", [0, -1])
    def test_too_few(self, count):
        with pytest.raises(TooFewRobots, match="at least one robot per curve"):
            segment_bounds(4, count)

    def test_segments_partition_curve(self):
        c = gilbert_curve(5, 4)
        for count in range(1, len(c) + 1):
            segs = segment_bounds(len(c), count)
            assert segs[0][0] == 0
            assert segs[-1][1] == len(c)
            for (_, stop), (start, _) in zip(segs, segs[1:]):
                assert stop == start
            assert all(stop > start for start, stop in segs)
