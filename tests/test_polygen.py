from __future__ import annotations

import hashlib
import itertools
import os
import random
import warnings
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysearch import geometry, polygen
from polysearch.cli import main
from polysearch.errors import InvalidConfig, IterationBudgetExceeded, TooLarge
from polysearch.geometry import Cell, polygon_from_cells, rasterize, validate_polygon
from polysearch.polygen import RETRY_BUDGET, _corner_scan, _stretch_cut, comb_cells, inflate_cut

from conftest import CARDINAL_STEPS
from three_partition import (
    NotAPartition,
    SweepRecord,
    ThreePartitionInstance,
    TripleSizeError,
    build_comb,
    simulate_comb_sweep,
    verify_partition_schedule,
)


def triple_partitions(items):
    """All ways to split `items` into unordered triples."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for pair in itertools.combinations(rest, 2):
        remaining = [x for x in rest if x not in pair]
        for sub in triple_partitions(remaining):
            yield [(first,) + pair] + sub


def quiet_instance(S, q, T) -> ThreePartitionInstance:
    return ThreePartitionInstance(tuple(S), q, T)


class TestInflateCut:
    def test_four_vertices_is_unit_square(self):
        for seed in (0, 1, 99):
            poly = inflate_cut(4, seed)
            assert poly.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))

    def test_six_vertices(self):
        for seed in range(5):
            poly = inflate_cut(6, seed)
            assert poly.n_vertices == 6
            assert poly.area == 3  # an L-tromino is the only 6-vertex option here

    def test_odd_target_rejected(self):
        with pytest.raises(InvalidConfig, match="is odd"):
            inflate_cut(5, 0)
        with pytest.raises(InvalidConfig, match="no such orthogonal polygon"):
            inflate_cut(2, 0)

    def test_vertex_bound(self, monkeypatch):
        monkeypatch.setattr(polygen, "MAX_VERTICES", 6)
        assert inflate_cut(6, 0).n_vertices == 6
        with pytest.raises(TooLarge, match="at most 6"):
            inflate_cut(8, 0)

    def test_deterministic(self):
        assert inflate_cut(14, 123) == inflate_cut(14, 123)

    def test_many_targets_exact_vertex_count(self):
        seed = 0
        for target in range(4, 41, 2):
            for rep in range(8):
                poly = inflate_cut(target, seed)
                seed += 1
                assert poly.n_vertices == target
                g = rasterize(poly)  # raises if the interior is not connected
                assert len(g) == poly.area
                w, h = poly.bounds
                assert w * h <= 400

    def test_revalidates(self):
        # output passes the validator round trip unchanged
        poly = inflate_cut(20, 7)
        assert validate_polygon(poly.vertices) == poly

    @pytest.mark.parametrize("split", [False, True])
    def test_fitting_cut_that_splits_is_retried(self, monkeypatch, split):
        # No fitting cut of the pinned polygons splits the set, so the first
        # one is reported split here; the round draws again and still fits.
        scans, scan = [], polygen._corner_scan

        def first_fit_splits(a):
            corners, count, one_piece = scan(a)
            scans.append((count, one_piece))
            return corners, count, one_piece and not (split and len(scans) == 2)

        monkeypatch.setattr(polygen, "_corner_scan", first_fit_splits)
        poly = inflate_cut(8, 3)
        assert poly.n_vertices == 8 and validate_polygon(poly.vertices) == poly
        assert scans[1] == (6, True)  # after the unit square's scan, the first cut fits
        assert len(scans) == 3 + split

    def test_retry_budget_exhausted(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(polygen, "RETRY_BUDGET", 0)
        assert inflate_cut(4, 0).n_vertices == 4  # no round, so no attempt
        with pytest.raises(IterationBudgetExceeded, match="0 attempts at 4 vertices"):
            inflate_cut(6, 0)
        out = str(tmp_path / "poly.json")
        assert main(["generate", "--vertices", "6", "-o", out]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "poly.json").exists()

    def test_pinned_polygon_digest(self):
        # sha256 of the vertex tuples for v = 4..40 even, seeds 0..3, taken
        # when every attempt still stretched the whole cell set.
        h = hashlib.sha256()
        for target in range(4, 41, 2):
            for seed in range(4):
                h.update(repr(inflate_cut(target, seed).vertices).encode())
        assert h.hexdigest() == "6304a990c69c75d5a1ff9e60931e1a31db057ac0b5e077331b517ed57b432cff"


# Set-based reference oracle of inflate_cut: every round works over a set of
# Cells, stretches the whole set and floods it for connectivity.

# Incidence bits of a cell at a lattice point: the two diagonal pairings are
# the pinch patterns.
_NE, _NW, _SE, _SW = 1, 2, 4, 8
_PINCH_MASKS = (_NE | _SW, _NW | _SE)


def ref_corner_masks(cells):
    """Incidence bits of the cells around each lattice point they touch."""
    around = defaultdict(int)
    for c, r in cells:
        around[(c, r)] |= _NE
        around[(c + 1, r)] |= _NW
        around[(c, r + 1)] |= _SE
        around[(c + 1, r + 1)] |= _SW
    return around


def ref_corner_scan(cells):
    """(convex corners, number of polygon vertices, whether the set pinches at a point)."""
    convex, vertices, pinch = [], 0, False
    for p, mask in ref_corner_masks(cells).items():
        n = bin(mask).count("1")
        if n == 1:
            convex.append(p)
        if n in (1, 3):
            vertices += 1
        elif n == 2 and mask in _PINCH_MASKS:
            pinch = True
    return convex, vertices, pinch


def ref_stretch(cells, at):
    """Double the row and column through `at`; its image is a 2x2 block."""
    out = set()
    for c, r in cells:
        cs = (c,) if c < at.col else ((c, c + 1) if c == at.col else (c + 1,))
        rs = (r,) if r < at.row else ((r, r + 1) if r == at.row else (r + 1,))
        out.update(Cell(nc, nr) for nc in cs for nr in rs)
    return out


def ref_shift(p, at):
    """Lattice point p as it lies after ref_stretch(_, at)."""
    return p[0] + (p[0] > at.col), p[1] + (p[1] > at.row)


def ref_cut(cells, at, corner):
    """Cells of ref_stretch(cells, at) between the shifted corner and the
    center of at's block, or None if one is missing. Checked without
    stretching: their preimages are the cells between the corner and `at`."""
    x, y = corner
    if any((c, r) not in cells for c in range(min(x, at.col), max(x, at.col + 1))
           for r in range(min(y, at.row), max(y, at.row + 1))):
        return None
    (x, y), (cx, cy) = ref_shift(corner, at), (at.col + 1, at.row + 1)
    return {Cell(c, r) for c in range(min(x, cx), max(x, cx)) for r in range(min(y, cy), max(y, cy))}


def ref_pieces(cells):
    """Number of 4-connected components of a cell set, by flood fill."""
    seen, pieces = set(), 0
    for start in cells:
        if start in seen:
            continue
        pieces += 1
        seen.add(start)
        stack = [start]
        while stack:
            c, r = stack.pop()
            for dx, dy in CARDINAL_STEPS:
                nb = (c + dx, r + dy)
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return pieces


def ref_inflate_cut(target_vertices, seed):
    """inflate_cut over sets: the same rng draws, a flood for connectivity."""
    rng = random.Random(seed)
    cells = {Cell(0, 0)}
    convex, vertices, _ = ref_corner_scan(cells)
    while vertices < target_vertices:
        ordered = sorted(cells, key=lambda c: (c.row, c.col))
        convex.sort()
        for _ in range(RETRY_BUDGET):
            at = ordered[rng.randrange(len(ordered))]
            cut = ref_cut(cells, at, convex[rng.randrange(len(convex))])
            if cut is None:
                continue
            remaining = ref_stretch(cells, at) - cut
            if ref_pieces(remaining) != 1:
                continue
            corners, count, pinch = ref_corner_scan(remaining)
            if pinch or count != vertices + 2:
                continue
            cells, convex, vertices = remaining, corners, count
            break
        else:
            raise IterationBudgetExceeded("no acceptable cut")
    return polygon_from_cells(cells)


def bitmap(cells):
    """Bool array a[row, col] of a set of cells at nonnegative coordinates."""
    a = np.zeros((max(r for _, r in cells) + 1, max(c for c, _ in cells) + 1), dtype=bool)
    for c, r in cells:
        a[r, c] = True
    return a


def cells_of(a):
    return {Cell(int(c), int(r)) for r, c in zip(*np.nonzero(a))}


def picture(rows):
    """Bitmap of a picture, top row first, '#' for a cell."""
    return np.array([[ch == "#" for ch in line] for line in reversed(rows)])


def scan(rows):
    convex, vertices, one_piece = _corner_scan(picture(rows))
    return [tuple(p) for p in convex.tolist()], vertices, one_piece


class TestCornerScan:
    def test_unit_square(self):
        assert scan(["#"]) == ([(0, 0), (0, 1), (1, 0), (1, 1)], 4, True)

    def test_l(self):
        convex, vertices, one_piece = scan(["#.", "##"])
        assert convex == [(0, 0), (0, 2), (1, 2), (2, 0), (2, 1)]
        assert (vertices, one_piece) == (6, True)

    def test_two_disjoint_squares(self):
        convex, vertices, one_piece = scan(["#.#"])
        assert len(convex) == 8 and vertices == 8 and not one_piece

    def test_diagonal_pinch(self):
        for rows in (["#.", ".#"], [".#", "#."]):
            convex, vertices, one_piece = scan(rows)
            assert len(convex) == 6 and vertices == 6 and not one_piece

    def test_ring(self):
        convex, vertices, one_piece = scan(["###", "#.#", "###"])
        assert len(convex) == 4 and vertices == 8 and not one_piece

    def test_island_in_a_hole_counts_as_one_piece(self):
        # Two pieces and one hole have the corner counts of one piece: the
        # rule holds only for sets without holes, as inflate_cut's cuts are.
        rows = ["#####", "#...#", "#.#.#", "#...#", "#####"]
        assert scan(rows)[1:] == (12, True)
        assert ref_pieces(cells_of(picture(rows))) == 2


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    bits=st.lists(st.booleans(), min_size=36, max_size=36),
)
def test_property_corner_scan_matches_set_oracle(shape, bits):
    """Convex corners, vertex count and one-piece flag of a random bitmap
    against the set-based corner masks, and the flag against pieces less
    holes, each counted by a flood."""
    h, w = shape
    a = np.array(bits[:h * w], dtype=bool).reshape(h, w)
    cells = cells_of(a)
    convex, vertices, one_piece = _corner_scan(a)
    ref_convex, ref_vertices, pinch = ref_corner_scan(cells)
    assert [tuple(p) for p in convex.tolist()] == sorted(ref_convex)
    assert vertices == ref_vertices
    box = {Cell(c, r) for c in range(-1, w + 1) for r in range(-1, h + 1)}
    holes = ref_pieces(box - cells) - 1
    assert one_piece == (not pinch and ref_pieces(cells) - holes == 1)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(vertices=st.integers(2, 15).map(lambda h: 2 * h), seed=st.integers(0, 10**6))
def test_property_cut_before_stretch_matches_stretched_oracle(vertices, seed):
    """For every cell as `at` and every convex corner, the shifted corners
    and the unstretched fit test agree with a full stretch and its corner
    masks, both in the set-based oracle and in _stretch_cut."""
    cells = set(rasterize(inflate_cut(vertices, seed)).cells)
    a = bitmap(cells)
    convex = [tuple(p) for p in _corner_scan(a)[0].tolist()]
    assert convex == sorted(ref_corner_scan(cells)[0])
    for at in cells:
        inflated = ref_stretch(cells, at)
        oracle = sorted(ref_corner_scan(inflated)[0])
        assert [ref_shift(p, at) for p in convex] == oracle
        cx, cy = at.col + 1, at.row + 1
        for corner, (x, y) in zip(convex, oracle):
            cut = {Cell(c, r) for c in range(min(x, cx), max(x, cx)) for r in range(min(y, cy), max(y, cy))}
            fits = cut <= inflated
            assert ref_cut(cells, at, corner) == (cut if fits else None)
            got = _stretch_cut(a, at.row, at.col, *corner)
            assert (got is not None) == fits
            if fits:
                assert got.shape == (a.shape[0] + 1, a.shape[1] + 1) and cells_of(got) == inflated - cut


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(vertices=st.integers(2, 35).map(lambda h: 2 * h), seed=st.integers(0, 10**6))
def test_property_inflate_cut_equals_set_based_oracle(vertices, seed):
    assert inflate_cut(vertices, seed) == ref_inflate_cut(vertices, seed)


@pytest.mark.skipif(not os.environ.get("POLYSEARCH_WIDE_DIGEST"), reason="wide digest runs in CI only")
def test_wide_inflate_cut_equals_set_based_oracle():
    # Tier-1 reaches v = 70 only; these take a few seconds in the oracle.
    for vertices in (100, 150, 200):
        for seed in range(4):
            assert inflate_cut(vertices, seed) == ref_inflate_cut(vertices, seed)


class TestComb:
    def test_build_comb_cells(self):
        inst = quiet_instance((1, 2, 3), 1, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            poly = build_comb(inst)
        g = rasterize(poly)
        assert len(g) == 7 + 6  # 7 base cells + spike cells
        for col, depth in zip((1, 3, 5), (1, 2, 3)):
            for r in range(1, depth + 1):
                assert Cell(col, r) in g.index
            assert Cell(col, depth + 1) not in g.index

    def test_comb_dimensions(self):
        cells = comb_cells((2, 2), spike_width=2, base_height=3, spike_gap=2)
        # base 10 wide x 3 tall, two 2x2 spikes
        assert len(cells) == 30 + 8

    def test_bottom_teeth_and_flat_slots(self):
        cells = comb_cells((2, 0), spike_width=1, base_height=1, spike_gap=1, down=(0, 3))
        # base 5x1; slot 0 (col 1) rises 2 cells, slot 1 (col 3) hangs 3 below
        assert len(cells) == 5 + 2 + 3
        assert Cell(1, 2) in cells and Cell(3, 1) not in cells
        assert Cell(3, -3) in cells and Cell(1, -1) not in cells

    @pytest.mark.parametrize(
        "shape",
        [((2, 2), 2, 3, 2, ()), ((2, 0), 1, 1, 1, (0, 3)), ((8, 10, 12, 10), 2, 4, 2, (1, 0, 5))],
    )
    def test_cell_bound_is_checked_on_the_exact_count(self, monkeypatch, shape):
        depths, width, height, gap, down = shape
        count = len(comb_cells(depths, width, height, gap, down))
        monkeypatch.setattr(geometry, "MAX_CELLS", count)
        assert len(comb_cells(depths, width, height, gap, down)) == count
        monkeypatch.setattr(geometry, "MAX_CELLS", count - 1)
        with pytest.raises(TooLarge, match=f"comb has {count} cells"):
            comb_cells(depths, width, height, gap, down)

    def test_vertex_bound_is_checked_on_the_exact_count(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 8)
            depths = [rng.choice((0, 0, 1, 3)) for _ in range(n)]
            down = [rng.choice((0, 0, 2)) for _ in range(rng.randint(0, n))]
            shape = (depths, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3), down)
            count = len(polygon_from_cells(comb_cells(*shape)).vertices)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(polygen, "MAX_VERTICES", count)
                comb_cells(*shape)
                mp.setattr(polygen, "MAX_VERTICES", count - 1)
                with pytest.raises(TooLarge, match=f"comb has {count} vertices"):
                    comb_cells(*shape)

    def test_more_bottom_teeth_than_slots_rejected(self):
        with pytest.raises(InvalidConfig, match="3 bottom teeth for 2 slots"):
            comb_cells((1, 2), down=(1, 2, 3))

    def test_negative_depth_rejected(self):
        with pytest.raises(InvalidConfig, match="spike lengths must be nonnegative"):
            comb_cells((2, -1))
        with pytest.raises(InvalidConfig, match="spike lengths must be nonnegative"):
            comb_cells((2, 2), down=(0, -1))

    def test_spike_depths_ordered_left_to_right(self):
        inst = quiet_instance((4, 5, 7, 4, 5, 7), 2, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            poly = build_comb(inst, spike_width=1, base_height=2)
        g = rasterize(poly)
        for i, depth in enumerate(inst.S):
            col = 1 + 2 * i
            assert Cell(col, 1 + depth) in g.index
            assert Cell(col, 2 + depth) not in g.index

    def test_sum_mismatch_rejected(self):
        with pytest.raises(InvalidConfig, match="expected qT"):
            build_comb(quiet_instance((1, 2, 3), 1, 7))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidConfig, match="expected 3q"):
            build_comb(quiet_instance((1, 2, 3, 4), 1, 10))

    def test_out_of_band_depths_warn(self):
        with pytest.warns(UserWarning):
            build_comb(quiet_instance((1, 2, 3, 1, 2, 3), 2, 6))

    def test_in_band_depths_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_comb(quiet_instance((4, 4, 5), 1, 13))


class TestSchedule:
    def inst(self):
        return quiet_instance((1, 2, 3, 1, 2, 3), 2, 6)

    def test_balanced_partition_gives_qt(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert verify_partition_schedule(self.inst(), [(1, 2, 3), (4, 5, 6)]) == 12

    def test_unbalanced_partition_exceeds_qt(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ms = verify_partition_schedule(self.inst(), [(1, 4, 2), (5, 3, 6)])
        assert ms == 2 * 8

    def test_not_a_partition(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NotAPartition):
                verify_partition_schedule(self.inst(), [(1, 2, 3), (3, 5, 6)])
            with pytest.raises(NotAPartition):
                verify_partition_schedule(self.inst(), [(1, 2, 3)])

    def test_triple_size(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TripleSizeError):
                verify_partition_schedule(self.inst(), [(1, 2), (3, 4, 5, 6)])

    def test_sweep_record_hand_checked(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = simulate_comb_sweep(quiet_instance((1, 2, 3), 1, 6), [(1, 2, 3)])
        assert records == [SweepRecord(clear=6, overhead=7, total=13)]

    def test_exhaustive_iff_small(self):
        cases = [
            quiet_instance((4, 4, 5), 1, 13),
            quiet_instance((4, 4, 5, 4, 4, 5), 2, 13),
            quiet_instance((4, 4, 4, 4, 4, 4, 5, 5, 5), 3, 13),
        ]
        for inst in cases:
            qt = inst.q * inst.T
            seen_balanced = seen_unbalanced = False
            for partition in triple_partitions(range(1, 3 * inst.q + 1)):
                balanced = all(sum(inst.S[i - 1] for i in t) == inst.T for t in partition)
                ms = verify_partition_schedule(inst, partition)
                assert (ms == qt) == balanced
                assert ms >= qt
                seen_balanced |= balanced
                seen_unbalanced |= not balanced
            assert seen_balanced
            assert seen_unbalanced or inst.q == 1
