"""Discrete-time pursuit of an intruder by a robot team on a cell grid.

Robots and one intruder occupy unit cells of a rasterized polygon. A trial
is plain index lists: the robots' cell indices in robot id order and the
intruder's index. Each step a planning team (rs, crs, baseline) refills
the plans that need it, every robot pops its plan's next cell or stays
put, then the intruder moves; a patrol team's cells follow from the step
count alone. Capture happens when a robot ends the step on the intruder's
cell, or when a robot and the intruder exchange cells within the step.

Strategies:

* ``sfc``       patrol: the grid is cut into rectangles, each rectangle is
                covered by a space-filling curve, and every robot sweeps
                its own contiguous curve segment back and forth. The team's
                tours are built once per grid and (strategy, k, rect_seed);
                at step t a robot stands on entry t, modulo the length, of
                its ping-pong tour, so patrolling needs no planning.
* ``sfc_g``     the same patrol plus one stationary guard per junction
                between rectangles, blocking recontamination. The guards
                are the last robots of the team.
* ``rs``        each robot independently picks random target cells and
                walks there along cheapest paths over a shared visit-count
                map, so the team spreads out over time.
* ``crs``       targets are drawn jointly once the whole team has arrived
                and matched to robots by an optimal assignment.
* ``baseline``  every robot always knows the intruder's cell and chases it
                along a shortest path, replanned once the intruder leaves
                the path's end (an omniscient lower-bound pursuer).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .decomposition import Rectangulation, allocate_robots, rectangulate
from .errors import InvalidConfig, TooFewRobots, TooLarge, Unreachable
from .geometry import GridGraph, is_int
from .planning import (
    CostMap,
    costs_to_target,
    hungarian,
    plan_indices,
    shortest_indices,
)
from .sfc import gilbert_curve, repair_curve, segment_bounds

STRATEGIES = ("sfc", "sfc_g", "rs", "crs", "baseline")
INTRUDER_MODELS = ("static", "random", "walk")

#: Draws allowed when sampling a target cell different from the current one.
RESAMPLE_BUDGET = 32

#: Trial length cap, in steps per grid cell, when the config leaves it unset.
DEFAULT_STEP_FACTOR = 100

#: Largest team a trial or a sweep may field: far above the presets' 59
#: robots, and a bound on every per-robot list and (k, n) cost matrix.
MAX_ROBOTS = 1_000

#: A patrol robot's cell indices over one period, starting at step 0.
Tour = tuple[int, ...]


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one trial on a grid; a fixed placement is in cell indices."""

    strategy: str
    k: int
    intruder: str = "static"
    max_steps: int | None = None
    seed: int = 0
    rect_seed: int = 0
    robot_cells: tuple[int, ...] | None = None
    intruder_cell: int | None = None

    def __post_init__(self) -> None:
        """Raise InvalidConfig for a malformed field, and TooLarge above MAX_ROBOTS.

        Fewer than one robot passes (a sweep reports it as infeasible, `team`
        raises TooFewRobots); `init_trial` checks placed cells against its grid.
        """
        if self.strategy not in STRATEGIES:
            raise InvalidConfig(f"unknown strategy {self.strategy!r}")
        if self.intruder not in INTRUDER_MODELS:
            raise InvalidConfig(f"unknown intruder model {self.intruder!r}")
        if not is_int(self.k):
            raise InvalidConfig(f"team size must be an integer, got {self.k!r}")
        if self.k > MAX_ROBOTS:
            raise TooLarge(f"a team of {self.k} robots is too large; at most {MAX_ROBOTS} are supported")
        if self.max_steps is not None and (not is_int(self.max_steps) or self.max_steps < 0):
            raise InvalidConfig(f"max_steps must be a nonnegative integer, got {self.max_steps!r}")
        if not is_int(self.seed):
            raise InvalidConfig(f"seed must be an integer, got {self.seed!r}")
        if not is_int(self.rect_seed):
            raise InvalidConfig(f"rect_seed must be an integer, got {self.rect_seed!r}")
        if self.robot_cells is not None:
            if self.strategy in ("sfc", "sfc_g"):
                raise InvalidConfig("robot_cells only apply to rs, crs and baseline")
            if not hasattr(self.robot_cells, "__len__"):
                raise InvalidConfig(f"robot_cells must be a sequence of cell indices, got {self.robot_cells!r}")
            if len(self.robot_cells) != self.k:
                raise InvalidConfig(f"{self.k} robots but {len(self.robot_cells)} cells")


@dataclass
class SimState:
    """One trial in index space; robot lists are in robot id order.

    ``intruder`` holds the intruder's cell. A planning team keeps its cells
    in ``pos``, and robot i walks ``plans[i]``, the cells still ahead with
    the next one last; it has arrived, and stays put, when that list is
    empty. An sfc/sfc_g team keeps no ``pos``: it carries its ping-pong
    ``tours`` and ``through``, the tours through each cell, and `positions`
    derives its cells from ``tours`` and ``t``.
    """

    cfg: SimConfig
    grid: GridGraph
    pos: list[int]
    intruder: int
    cost: CostMap | None
    rng: random.Random
    max_steps: int
    tours: tuple[Tour, ...]
    through: tuple[tuple[Tour, ...], ...]
    plans: list[list[int]]
    t: int = 0
    captured: bool = False
    via_swap: bool = False


@dataclass(frozen=True)
class TrialResult:
    """What one trial produced; its labels stay with the config that ran it."""

    captured: bool
    steps: int
    via_swap: bool = False


@dataclass(frozen=True)
class SfcLayout:
    """Per-grid patrol structure shared by every sfc/sfc_g trial.

    ``curves[i]`` lists the grid cell indices visited by rectangle i's
    repaired space-filling curve; ``guards`` holds one doorway cell per
    junction, on the lower-numbered rectangle's side.
    """

    rectangulation: Rectangulation
    curves: tuple[tuple[int, ...], ...]
    guards: tuple[int, ...]


def sfc_layout(grid: GridGraph, rect_seed: int = 0) -> SfcLayout:
    """The patrol layout for `grid` under `rect_seed`, kept in `grid.memo`."""

    def build() -> SfcLayout:
        r = rectangulate(grid, rect_seed)
        curves = []
        for rect in r.rects:
            local = repair_curve(gilbert_curve(rect.width, rect.height))
            col, row = rect.anchor
            starts = [grid.index[col, row + y] for y in range(rect.height)]  # a row is a run of indices
            curves.append(tuple(starts[y] + x for x, y in local))
        guards = tuple(grid.index[j.door] for j in r.juncs)
        return SfcLayout(rectangulation=r, curves=tuple(curves), guards=guards)

    return grid.memo(("sfc_layout", rect_seed), build)


def team(cfg: SimConfig, grid: GridGraph) -> tuple[tuple[Tour, ...], tuple[tuple[Tour, ...], ...]]:
    """The team `cfg` fields on `grid`, (tours, through), drawing nothing.

    Raises TooFewRobots for no robots (`cfg` checked its fields when built).
    A planning team has no tours, ``((), ())``; the k-robot sfc/sfc_g team
    is kept in `grid.memo`. Its tours are in robot id order: searchers
    first, each with the ping-pong tour ``seg + seg[-2:0:-1]`` (period
    2(L - 1)) of its curve segment, which is ``tour[:len(tour) // 2 + 1]``;
    then, for sfc_g, one guard per junction, whose tour is its doorway cell.
    ``through[c]`` holds the tours that pass through cell c, the only robots
    that can stand on c. Raises TooFewRobots when the rectangles (and
    junctions) outnumber k, and TooManyRobots when a curve gets more
    searchers than cells.
    """
    if cfg.k < 1:
        raise TooFewRobots("at least one robot is required")
    if cfg.strategy not in ("sfc", "sfc_g"):
        return (), ()

    def build() -> tuple[tuple[Tour, ...], tuple[tuple[Tour, ...], ...]]:
        layout = sfc_layout(grid, cfg.rect_seed)
        guards = layout.guards if cfg.strategy == "sfc_g" else ()
        m = len(layout.curves)
        if cfg.k - len(guards) < m:
            raise TooFewRobots(
                f"{cfg.strategy} needs {m + len(guards)} robots here ({m} rectangles"
                + (f", {len(guards)} junctions)" if guards else ")")
                + f", got {cfg.k}"
            )
        tours = []
        for curve, count in zip(layout.curves, allocate_robots(layout.rectangulation, cfg.k - len(guards))):
            for start, stop in segment_bounds(len(curve), count):
                seg = curve[start:stop]
                tours.append(seg + seg[-2:0:-1])
        tours.extend((cell,) for cell in guards)
        through: list[tuple[Tour, ...]] = [()] * len(grid.cells)
        for tour in tours:
            for cell in dict.fromkeys(tour[: len(tour) // 2 + 1]):
                through[cell] += (tour,)
        return tuple(tours), tuple(through)

    return grid.memo(("sfc_team", cfg.strategy, cfg.k, cfg.rect_seed), build)


def init_trial(cfg: SimConfig, grid: GridGraph) -> SimState:
    """Field the team of `cfg` on `grid` (see `team`) and place it and the intruder.

    Random draws happen in a fixed order (robot positions in id order, then
    the intruder), so a config and its seed pin the whole trial; a placed
    team or intruder draws nothing. A placed index outside the grid raises
    InvalidConfig; `cfg` checked its other fields when it was built.
    """
    tours, through = team(cfg, grid)
    n = len(grid.cells)
    rng = random.Random(cfg.seed)
    cost = CostMap(grid) if cfg.strategy in ("rs", "crs") else None
    if cfg.robot_cells is not None:  # k cells of a planning team, as SimConfig checked
        pos = [grid.check_index(idx) for idx in cfg.robot_cells]
    else:
        pos = [] if tours else [rng.randrange(n) for _ in range(cfg.k)]

    intruder = rng.randrange(n) if cfg.intruder_cell is None else grid.check_index(cfg.intruder_cell)

    max_steps = cfg.max_steps if cfg.max_steps is not None else DEFAULT_STEP_FACTOR * n
    state = SimState(
        cfg=cfg,
        grid=grid,
        pos=pos,
        intruder=intruder,
        cost=cost,
        rng=rng,
        max_steps=max_steps,
        tours=tours,
        through=through,
        plans=[[] for _ in pos],
    )
    state.captured = _patrol_on(through, intruder, 0) if tours else intruder in pos
    return state


def positions(state: SimState) -> list[int]:
    """The robots' cells in robot id order; patrol robot i is on tours[i][t % len]."""
    t = state.t
    return [tour[t % len(tour)] for tour in state.tours] if state.tours else state.pos


def _patrol_on(through: tuple[tuple[Tour, ...], ...], cell: int, t: int, last: int = -1) -> bool:
    """Whether a tour through `cell` is on it at step t (and on `last` at t - 1, unless -1)."""
    for tour in through[cell]:
        n = len(tour)
        if tour[t % n] == cell and (last < 0 or tour[(t - 1) % n] == last):
            return True
    return False


def _rs_plan(state: SimState) -> None:
    """rs: a robot that has arrived gets a path to a fresh private random target.

    Targets are resampled until they differ from the current cell (bounded
    attempts), and paths are cheapest under the shared visit-count map, so
    crowded cells get avoided on the next replan.
    """
    g, cm = state.grid, state.cost
    for plan, here in zip(state.plans, state.pos):
        if not plan:
            plan += plan_indices(g, cm, here, _draw_target(state, here))[:0:-1]


def _crs_plan(state: SimState) -> None:
    """crs: like rs, but arrivals wait until the whole team can redeploy.

    Once every robot has walked its plan, new targets are drawn jointly and
    matched to robots by assignment cost. Waiting robots still stand on
    their cells and keep inflating the visit counts there.
    """
    if any(state.plans):
        return
    g, cm, pos = state.grid, state.cost, state.pos
    targets = [_draw_target(state, here) for here in pos]
    cost = costs_to_target(g, cm, targets)[:, pos].T  # robot by target
    i, j = divmod(int(cost.argmax()), len(targets))  # the first largest cost, robots in id order
    if cost[i, j] == float("inf"):
        raise Unreachable(f"no path from {tuple(g.cells[pos[i]])} to {tuple(g.cells[targets[j]])}")
    for plan, here, j in zip(state.plans, pos, hungarian(cost)):
        plan += plan_indices(g, cm, here, targets[j])[:0:-1]


def _baseline_plan(state: SimState) -> None:
    """baseline: a plan that no longer ends on the intruder's cell becomes a shortest path there.

    A kept plan is the rest of a walk along the goal's next-hop row, so it
    is the tail of the path a fresh request would return.
    """
    g, goal = state.grid, state.intruder
    for plan, here in zip(state.plans, state.pos):
        if not plan or plan[0] != goal:
            plan[:] = shortest_indices(g, here, goal)[:0:-1]


_PLANS = {"rs": _rs_plan, "crs": _crs_plan, "baseline": _baseline_plan}


def intruder_move(state: SimState) -> int:
    """The intruder's cell after one step under its model.

    static: never moves. random: uniform over staying and every adjacent
    cell. walk: uniform over adjacent cells only (stays only if boxed in).
    """
    here, model = state.intruder, state.cfg.intruder
    if model == "static":
        return here
    adj = state.grid.adjacency[here]
    if model == "random":
        pick = state.rng.randrange(len(adj) + 1)
        return adj[pick - 1] if pick else here
    return adj[state.rng.randrange(len(adj))] if adj else here


def step(state: SimState) -> None:
    """One synchronous step: searchers, cost bumps, intruder, capture test.

    A planning team's strategy refills its plans, then each robot pops its
    plan's next cell or stays put. Capture is co-location after the
    intruder's move, or a robot/intruder cell exchange within the step.
    Stepping a finished trial is a no-op. A patrol team is not moved (its
    guards never move): at step t its robots stand on their tours' entries
    t, so only the tours through the intruder's new cell (co-location) and
    old cell (swap) are tested.
    """
    if state.captured or state.t >= state.max_steps:
        return
    t = state.t + 1
    intruder_prev = state.intruder
    if state.tours:
        intruder_now = state.intruder = intruder_move(state)
        co_located = _patrol_on(state.through, intruder_now, t)
        swapped = (
            not co_located
            and intruder_now != intruder_prev
            and _patrol_on(state.through, intruder_prev, t, intruder_now)
        )
    else:
        prev = state.pos
        _PLANS[state.cfg.strategy](state)
        pos = state.pos = [plan.pop() if plan else here for plan, here in zip(state.plans, prev)]
        if state.cost is not None:
            bump = state.cost.bump_index
            for idx in pos:
                bump(idx)
        intruder_now = state.intruder = intruder_move(state)
        co_located = intruder_now in pos
        # A swap needs the intruder to move onto a cell a robot just left.
        swapped = (
            not co_located
            and intruder_now != intruder_prev
            and intruder_now in prev
            and any(r == intruder_prev and p == intruder_now for r, p in zip(pos, prev))
        )
    state.t = t
    if co_located or swapped:
        state.captured = True
        state.via_swap = swapped


def run_trial(cfg: SimConfig, grid: GridGraph, trace: list | None = None) -> TrialResult:
    """Run one trial to capture or to the step cap.

    When `trace` is a list, the loop appends ``[intruder, *positions]``, cell
    indices, before each step and once at the end: one row for each t in
    0..steps, so ``np.array(trace)`` is a (steps + 1, k + 1) array.
    """
    state = init_trial(cfg, grid)
    while not state.captured and state.t < state.max_steps:
        if trace is not None:
            trace.append([state.intruder, *positions(state)])
        step(state)
    if trace is not None:
        trace.append([state.intruder, *positions(state)])
    return TrialResult(captured=state.captured, steps=state.t, via_swap=state.via_swap)


def _draw_target(state: SimState, current: int) -> int:
    n = len(state.grid.cells)
    for _ in range(RESAMPLE_BUDGET):
        cand = state.rng.randrange(n)
        if cand != current:
            return cand
    return current
