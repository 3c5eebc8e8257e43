from __future__ import annotations

import json
import os
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysearch import geometry
from polysearch.errors import InvalidConfig, InvalidPolygon, TooLarge
from polysearch.geometry import (
    Cell,
    GridGraph,
    OrthoPolygon,
    polygon_from_cells,
    rasterize,
    read_polygon_file,
    validate_polygon,
    write_polygon_file,
)
from polysearch.harness import PRESETS
from polysearch.polygen import comb_cells, inflate_cut

from conftest import (
    TWO_PART_CELLS,
    P,
    grid_fields,
    ref_grid_fields,
    ref_in_closed_region,
    ref_inside,
    ref_on_boundary,
    ref_polygon_from_cells,
    ref_raster_cells,
    two_part_grid,
)


class TestValidate:
    def test_unit_square(self, unit_square):
        assert unit_square.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
        assert unit_square.area == 1
        assert unit_square.n_vertices == 4

    def test_clockwise_input_normalized_ccw(self):
        cw = P((0, 0), (0, 2), (2, 2), (2, 0))
        ccw = P((0, 0), (2, 0), (2, 2), (0, 2))
        assert set(cw.vertices) == set(ccw.vertices)
        assert cw.area == 4
        # shoelace of the stored loop must be positive
        s = 0
        v = cw.vertices
        for i in range(len(v)):
            x0, y0 = v[i]
            x1, y1 = v[(i + 1) % len(v)]
            s += x0 * y1 - x1 * y0
        assert s > 0

    def test_negative_coordinates_translated(self):
        poly = P((-3, -1), (-1, -1), (-1, 1), (-3, 1))
        assert min(x for x, _ in poly.vertices) == 0
        assert min(y for _, y in poly.vertices) == 0
        assert poly.area == 4

    def test_float_integral_accepted(self):
        poly = validate_polygon([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
        assert poly.area == 2

    def test_non_integral_rejected(self):
        with pytest.raises(InvalidPolygon, match="not on the integer lattice"):
            validate_polygon([(0, 0), (1.5, 0), (1.5, 1), (0, 1)])

    def test_bool_coordinate_rejected(self):
        # JSON true loads as a bool, which would otherwise read as 1.
        with pytest.raises(InvalidPolygon, match="not an"):
            validate_polygon([[True, 0], [2, 0], [2, 2], [1, 2]])
        with pytest.raises(InvalidPolygon):
            validate_polygon([[0, 0], [2, 0], [2, 2], [0, False]])

    def test_diagonal_edge_rejected(self):
        with pytest.raises(InvalidPolygon, match="is not axis-parallel"):
            validate_polygon([(0, 0), (2, 0), (2, 2), (1, 1)])

    def test_odd_vertex_count_rejected(self):
        with pytest.raises(InvalidPolygon, match="orthogonal polygons have an even count"):
            validate_polygon([(0, 0), (2, 0), (2, 2), (1, 2), (0, 2)])

    def test_zero_length_edge_rejected(self):
        with pytest.raises(InvalidPolygon, match="zero-length edge"):
            validate_polygon([(0, 0), (2, 0), (2, 0), (2, 2), (0, 2), (0, 1)])

    def test_collinear_consecutive_edges_rejected(self):
        with pytest.raises(InvalidPolygon, match="do not alternate horizontal/vertical"):
            validate_polygon([(0, 0), (1, 0), (2, 0), (2, 2), (1, 2), (0, 2)])

    def test_self_crossing_rejected(self):
        with pytest.raises(InvalidPolygon, match="edges 2 and 5 meet"):
            validate_polygon([(0, 0), (4, 0), (4, 2), (1, 2), (1, 1), (3, 1), (3, 3), (0, 3)])

    def test_vertex_pinch_rejected(self):
        with pytest.raises(InvalidPolygon, match="edges 1 and 5 meet"):
            validate_polygon([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, 2), (1, 1), (0, 1)])

    def test_too_few_vertices(self):
        with pytest.raises(InvalidPolygon):
            validate_polygon([(0, 0), (1, 1)])

    def test_vertex_bound(self, monkeypatch, l_shape, u_shape):
        monkeypatch.setattr(geometry, "MAX_VERTICES", 6)
        assert validate_polygon(l_shape.vertices) == l_shape
        with pytest.raises(TooLarge, match="8 vertices; at most 6"):
            validate_polygon(u_shape.vertices)

    @pytest.mark.parametrize("far", [10**5 + 1, 10**400, 10**8000], ids=["just-over", "float-overflow", "str-limit"])
    def test_extent_bound_takes_huge_integers(self, far):
        # 10**400 overflows a float; str() of 10**8000 has too many digits.
        for loop in ([(0, 0), (far, 0), (far, 1), (0, 1)], [(0, -far), (1, -far), (1, 0), (0, 0)]):
            with pytest.raises(TooLarge, match=f"wider or taller than {geometry.MAX_CELLS} cells"):
                validate_polygon(loop)
        edge = geometry.MAX_CELLS
        assert validate_polygon([(0, 0), (edge, 0), (edge, 1), (0, 1)]).bounds == (edge, 1)

    @pytest.mark.parametrize(
        "vertex, match",
        [
            ([10**5000, "a"], r"vertex <too long to print> is not an \[x, y\] pair"),
            ([Fraction(10**5000, 3), 0], r"vertex \(<too long to print>, 0\) is not on the integer lattice"),
        ],
        ids=["not-a-pair", "off-lattice"],
    )
    def test_vertex_messages_take_huge_integers(self, vertex, match):
        # str() refuses an int of more than 4,300 digits, so the message prints a stand-in.
        with pytest.raises(InvalidPolygon, match=match):
            validate_polygon([vertex, [1, 0], [1, 1], [0, 1]])

    def test_min_edge_and_bounds(self, l_shape):
        assert l_shape.bounds == (2, 2)


class TestRasterize:
    def test_unit_square_single_cell(self, unit_square):
        g = rasterize(unit_square)
        assert g.cells == (Cell(0, 0),)

    def test_l_shape_cells(self, l_shape):
        g = rasterize(l_shape)
        assert set(g.cells) == {Cell(0, 0), Cell(1, 0), Cell(0, 1)}

    def test_cell_count_matches_shoelace_area(self, l_shape, u_shape, staircase):
        for poly in (l_shape, u_shape, staircase):
            assert len(rasterize(poly)) == poly.area

    def test_membership_matches_single_ray_oracle(self, l_shape, u_shape, staircase, unit_square):
        for poly in (l_shape, u_shape, staircase, unit_square):
            g = rasterize(poly)
            w, h = poly.bounds
            for col in range(w):
                for row in range(h):
                    expect = ref_inside(poly.vertices, col + 0.5, row + 0.5)
                    assert (Cell(col, row) in g.index) == expect

    def test_inside_cells_have_closed_corners(self, u_shape, staircase):
        for poly in (u_shape, staircase):
            g = rasterize(poly)
            for c in g.cells:
                for dx in (0, 1):
                    for dy in (0, 1):
                        assert ref_in_closed_region(poly.vertices, c.col + dx, c.row + dy)

    def test_corner_closure_alone_is_not_membership(self, u_shape):
        # The notch cell of the U has all four corners on the boundary but its
        # center is outside; the center parity test is the referee.
        g = rasterize(u_shape)
        notch = Cell(1, 1)
        assert notch not in g.index
        for dx in (0, 1):
            for dy in (0, 1):
                assert ref_on_boundary(u_shape.vertices, 1 + dx, 1 + dy)

    def test_graph_is_connected(self, l_shape, u_shape, staircase):
        for poly in (l_shape, u_shape, staircase):
            g = rasterize(poly)
            seen = {0}
            stack = [0]
            while stack:
                i = stack.pop()
                for j in g.adjacency[i]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            assert seen == set(range(len(g)))

    def test_area_above_max_cells_rejected(self, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_CELLS", 12)
        assert len(rasterize(P((0, 0), (4, 0), (4, 3), (0, 3)))) == 12
        with pytest.raises(TooLarge):
            rasterize(P((0, 0), (13, 0), (13, 1), (0, 1)))

    def test_pinched_loop_rejected(self):
        # Two squares touching at (1, 1): the loop passes that vertex twice,
        # so the cells are inside but not 4-connected.
        pinched = OrthoPolygon(((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, 2), (1, 1), (0, 1)))
        with pytest.raises(InvalidPolygon, match="interior cells are not 4-connected"):
            rasterize(pinched)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(vertices=st.integers(6, 20).map(lambda h: 2 * h), seed=st.integers(0, 10**6))
def test_property_rasterize_round_trips_inflate_cut(vertices, seed):
    poly = inflate_cut(vertices, seed)
    g = rasterize(poly)
    assert polygon_from_cells(g.cells) == poly
    w, h = poly.bounds
    for col in range(w):
        for row in range(h):
            assert (Cell(col, row) in g.index) == ref_inside(poly.vertices, col + 0.5, row + 0.5)


def lattice_walk_revisits(loop) -> bool:
    """Whether the unit-step walk around a vertex loop meets any lattice point twice."""
    seen = set()
    for (x0, y0), (x1, y1) in zip(loop, loop[1:] + loop[:1]):
        dx, dy = (x1 > x0) - (x1 < x0), (y1 > y0) - (y1 < y0)
        x, y = x0, y0
        while True:
            if (x, y) in seen:
                return True
            seen.add((x, y))
            x, y = x + dx, y + dy
            if (x, y) == (x1, y1):
                break
    return False


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda m: st.tuples(*[st.lists(st.integers(0, 4), min_size=m, max_size=m)] * 2)
    )
)
def test_property_validate_rejects_exactly_non_simple_loops(coords):
    # Horizontal edge i runs along ys[i] from xs[i] to xs[i + 1], so the
    # loop alternates horizontal and vertical edges; equal neighbours give
    # zero-length edges, which the walk sees as a revisited point.
    xs, ys = coords
    m = len(xs)
    loop = [p for i in range(m) for p in ((xs[i], ys[i]), (xs[(i + 1) % m], ys[i]))]
    try:
        validate_polygon(loop)
        accepted = True
    except InvalidPolygon:
        accepted = False
    assert accepted != lattice_walk_revisits(loop)


class TestGridGraph:
    @staticmethod
    def neighbors(g, cell):
        return [g.cells[j] for j in g.adjacency[g.require(cell)]]

    def test_neighbor_order_nesw(self):
        g = rasterize(P((0, 0), (3, 0), (3, 3), (0, 3)))
        assert self.neighbors(g, Cell(1, 1)) == [Cell(1, 2), Cell(2, 1), Cell(1, 0), Cell(0, 1)]

    def test_boundary_cell_neighbors(self, l_shape):
        g = rasterize(l_shape)
        assert self.neighbors(g, Cell(0, 0)) == [Cell(0, 1), Cell(1, 0)]
        assert self.neighbors(g, Cell(1, 0)) == [Cell(0, 0)]

    def test_outside_cell_raises(self, l_shape):
        g = rasterize(l_shape)
        with pytest.raises(InvalidConfig, match="is not in the grid"):
            g.require(Cell(1, 1))
        assert Cell(1, 1) not in g.index
        with pytest.raises(InvalidConfig, match="cell <too long to print> is not in the grid"):
            g.require((10**5000, 0))

    @pytest.mark.parametrize("cell", [5, [1], (0, 0, 0), None, (True, 0), (0.0, 0)], ids=repr)
    def test_require_takes_a_pair_of_integers(self, l_shape, cell):
        # Not a TypeError, and a bool is not the integer 1.
        g = rasterize(l_shape)
        with pytest.raises(InvalidConfig, match=re.escape(f"cell {cell!r} is not a pair of integers")):
            g.require(cell)
        assert g.require([1, 0]) == g.require((1, 0)) == g.require(Cell(1, 0))

    @pytest.mark.parametrize(
        "cells",
        [[(1.5, 0)], [(True, 0), (0, 0)], [Cell(0.5, 0)], [(0, 0, 0)], [5]],
        ids=["float", "bool", "float-Cell", "triple", "int"],
    )
    def test_cells_are_taken_by_the_pair_rule(self, cells):
        # Each was a Cell of a float or a bool, or a ValueError or TypeError.
        bad = next(c for c in cells if c != (0, 0))
        with pytest.raises(InvalidConfig, match=re.escape(f"cell {bad!r} is not a pair of integers")):
            GridGraph(cells)

    def test_cells_become_plain_ints(self):
        g = GridGraph([(np.int64(1), 0), [0, np.uint8(0)]])
        assert g.cells == (Cell(0, 0), Cell(1, 0))
        assert {type(v) for cell in g.cells for v in cell} == {int}

    def test_neighbor_symmetry(self, staircase):
        g = rasterize(staircase)
        for i, adj in enumerate(g.adjacency):
            for j in adj:
                assert i in g.adjacency[j]

    def test_row_major_order(self, staircase):
        g = rasterize(staircase)
        assert list(g.cells) == sorted(g.cells, key=lambda c: (c.row, c.col))

    def test_build_equals_set_based_oracle_on_presets(self):
        for make in PRESETS.values():
            for inst in make().instances:
                g = rasterize(inst.polygon)
                assert grid_fields(g) == ref_grid_fields(ref_raster_cells(inst.polygon)), inst.id
                assert g.bounds == inst.polygon.bounds, inst.id
                # any order, repeats and plain pairs give the same grid
                shuffled = [tuple(c) for c in reversed(g.cells)] + [g.cells[0]]
                assert grid_fields(GridGraph(shuffled)) == grid_fields(g)
                assert grid_fields(GridGraph([tuple(c) for c in g.cells])) == grid_fields(g)

    def test_build_equals_set_based_oracle_out_of_order(self):
        assert grid_fields(two_part_grid()) == ref_grid_fields(TWO_PART_CELLS)
        assert two_part_grid().cells != TWO_PART_CELLS

    def test_bounds_come_from_the_cells(self):
        assert two_part_grid().bounds == (5, 2)
        assert GridGraph([Cell(2, 3)]).bounds == (3, 4)
        assert GridGraph([]).bounds == (0, 0)


class TestTrace:
    def test_round_trip_cells(self, l_shape, u_shape, staircase):
        for poly in (l_shape, u_shape, staircase):
            g = rasterize(poly)
            traced = polygon_from_cells(g.cells)
            assert set(rasterize(traced).cells) == set(g.cells)
            assert traced.n_vertices == poly.n_vertices
            assert traced.area == poly.area

    def test_single_cell(self):
        traced = polygon_from_cells([Cell(0, 0)])
        assert traced.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))

    @pytest.mark.parametrize(
        "cells, message",
        [
            # Two cells corner to corner fail the span test before the pinch test.
            pytest.param([Cell(0, 0), Cell(1, 1)], "more than one boundary loop", id="diagonal-pair"),
            pytest.param(
                [(0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0)],
                re.escape("cell set pinches at point (1, 1)"),
                id="ring-of-seven",
            ),
        ],
    )
    def test_pinched_set_rejected(self, cells, message):
        with pytest.raises(InvalidPolygon, match=message):
            polygon_from_cells(cells)

    @pytest.mark.parametrize(
        "cells",
        [
            pytest.param([(c, r) for c in range(3) for r in range(3) if (c, r) != (1, 1)], id="ring"),
            # The walk misses the lone cell's corners; two cells apart and the
            # far piece fail the span test first.
            pytest.param([(c, r) for c in range(3) for r in range(3)] + [(4, 0)], id="second-piece"),
            pytest.param([(0, 0), (2, 0)], id="two-cells"),
            pytest.param([(0, 0), (1, 0), (1, 1), (-4, 7)], id="far-piece"),
        ],
    )
    def test_hole_or_second_piece_rejected(self, cells):
        for trace in (polygon_from_cells, ref_polygon_from_cells):
            with pytest.raises(InvalidPolygon, match="more than one boundary loop"):
                trace(cells)

    def test_no_cells_rejected(self):
        with pytest.raises(InvalidPolygon, match="no cells to trace"):
            polygon_from_cells([])
        with pytest.raises(InvalidPolygon, match="no cells to trace"):
            polygon_from_cells(np.zeros((0, 2), np.int64))

    @pytest.mark.parametrize(
        "cells, bad",
        [
            ([(0.5, 0), (1, 0)], (0.5, 0)),
            ([(True, 0), (0, 0)], (True, 0)),
            ([(0, 0, 0)], (0, 0, 0)),
            ([5], 5),
            ([("a", 0)], ("a", 0)),
        ],
        ids=["float", "bool", "triple", "int", "str"],
    )
    def test_cells_are_taken_by_the_pair_rule(self, cells, bad):
        # The first two traced as a 2-cell rectangle, the others ended in ValueError or TypeError.
        with pytest.raises(InvalidConfig, match=re.escape(f"cell {bad!r} is not a pair of integers")):
            polygon_from_cells(cells)

    @pytest.mark.parametrize(
        "cells",
        [np.array([[0, 0], [1, 0]], float), np.array([[0, 0], [1, 0]], bool), np.zeros((2, 3), np.int64), 5],
        ids=["float-array", "bool-array", "three-columns", "not-iterable"],
    )
    def test_what_is_not_a_cell_set_rejected(self, cells):
        with pytest.raises(InvalidConfig):
            polygon_from_cells(cells)

    @pytest.mark.parametrize(
        "cells",
        [[(0, 0), (2**63 - 1, 0)], [(0, 0), (10**20, 0)], np.array([[-(2**63), 0], [2**63 - 1, 0]])],
        ids=["int64-max", "past-int64", "int64-extremes"],
    )
    def test_far_apart_cells_are_two_pieces(self, cells):
        # The first traced as a 2-cell rectangle (an int64 difference wrapped), the second overflowed.
        with pytest.raises(InvalidPolygon, match="more than one boundary loop"):
            polygon_from_cells(cells)

    def test_far_from_the_origin(self):
        # Cells past int64 trace from their exact offset; a uint64 array is taken as it is.
        strip = ((0, 0), (2, 0), (2, 1), (0, 1))
        assert polygon_from_cells([(10**20, 7), (10**20 + 1, 7)]).vertices == strip
        assert polygon_from_cells(np.array([[2**64 - 2, 0], [2**64 - 1, 0]], np.uint64)).vertices == strip
        with pytest.raises(InvalidPolygon, match=re.escape(f"cell set pinches at point {(10**20 + 1, 1)}")):
            polygon_from_cells([(10**20 + c, r) for c, r in [(0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0)]])

    def test_sparse_bounding_box(self):
        # 9,001 cells in a 6,001 x 3,001 box: the trace works on the cells'
        # corners, so cells far apart cost no memory either.
        cells = comb_cells((3000,), spike_gap=3000)
        assert polygon_from_cells(cells) == ref_polygon_from_cells(cells)
        with pytest.raises(InvalidPolygon, match="more than one boundary loop"):
            polygon_from_cells([(0, 0), (10**15, -(10**15))])

    def test_equals_unit_edge_walk(self, unit_square, l_shape, u_shape, staircase):
        # The corner-key trace against the unit-edge walk, on cells given in
        # any order, as Cells or an array, at any offset.
        polys = [unit_square, l_shape, u_shape, staircase]
        polys += [inst.polygon for make in PRESETS.values() for inst in make().instances]
        for poly in polys:
            cells = rasterize(poly).cells
            moved = np.array(cells[::-1]) - (3, 5)
            assert polygon_from_cells(cells) == polygon_from_cells(moved) == ref_polygon_from_cells(cells) == poly
        for shape in [((3, 0, 2), 1, 2, 1, (1, 2)), ((0, 4), 2, 1, 3, (5,)), ((1,), 1, 1, 1, (0,))]:
            cells = comb_cells(*shape)
            assert polygon_from_cells(cells) == ref_polygon_from_cells(cells)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_unit_edge_walk_on_patrol_polygons(self, seed):
        # The 24 polygons of the bench's patrol_cold workload at this seed.
        rng = random.Random(seed)
        for _ in range(24):
            vertices = rng.choice(range(48, 61, 2))
            poly = inflate_cut(vertices, rng.randrange(2**31))
            cells = rasterize(poly).cells
            assert polygon_from_cells(cells) == ref_polygon_from_cells(cells) == poly


@pytest.mark.skipif(not os.environ.get("POLYSEARCH_WIDE_DIGEST"), reason="wide digest runs in CI only")
def test_wide_trace_equals_unit_edge_walk():
    # The 442 polygons of the wide digest, v = 4..70 even, seeds 0..12.
    for vertices in range(4, 71, 2):
        for seed in range(13):
            poly = inflate_cut(vertices, seed)
            cells = rasterize(poly).cells
            assert polygon_from_cells(cells) == ref_polygon_from_cells(cells) == poly, (vertices, seed)


class TestPolygonIO:
    def test_round_trip(self, tmp_path, l_shape):
        path = str(tmp_path / "poly.json")
        write_polygon_file(path, l_shape)
        assert read_polygon_file(path) == l_shape
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == {"vertices": [list(v) for v in l_shape.vertices]}
