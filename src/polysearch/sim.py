"""Discrete-time pursuit of an intruder by a robot team on a cell grid.

Robots and one intruder occupy unit cells of a rasterized polygon. Each
step the searchers move first (one cell at most, in robot id order), then
the intruder. Capture happens when a robot ends the step on the intruder's
cell, or when a robot and the intruder exchange cells within the step.

Strategies:

* ``sfc``       patrol: the grid is cut into rectangles, each rectangle is
                covered by a space-filling curve, and every robot sweeps
                its own contiguous curve segment back and forth. The team
                is built once per grid and (strategy, k, rect_seed); at
                step t a robot stands on entry t, modulo the length, of
                its ping-pong tour, so patrolling needs no planning.
* ``sfc_g``     the same patrol plus one stationary guard per junction
                between rectangles, blocking recontamination.
* ``rs``        each robot independently picks random target cells and
                walks there along cheapest paths over a shared visit-count
                map, so the team spreads out over time.
* ``crs``       targets are drawn jointly once the whole team has arrived
                and matched to robots by an optimal assignment.
* ``baseline``  every robot always knows the intruder's cell and chases it
                along a shortest path (an omniscient lower-bound pursuer).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .decomposition import Rectangulation, allocate_robots, rectangulate
from .errors import InvalidConfig, TooFewRobots
from .geometry import Cell, GridGraph, OrthoPolygon, rasterize
from .planning import (
    CostMap,
    costs_to_target,
    hungarian,
    plan_indices,
    shortest_indices,
)
from .sfc import gilbert_curve, place_curve, repair_curve, segment_bounds

STRATEGIES = ("sfc", "sfc_g", "rs", "crs", "baseline")
INTRUDER_MODELS = ("static", "random", "walk")

#: Draws allowed when sampling a target cell different from the current one.
RESAMPLE_BUDGET = 32

#: Trial length cap, in steps per grid cell, when the config leaves it unset.
DEFAULT_STEP_FACTOR = 100


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one trial."""

    polygon: OrthoPolygon
    strategy: str
    k: int
    intruder: str = "static"
    max_steps: int | None = None
    seed: int = 0
    rect_seed: int = 0
    robot_positions: tuple[Cell, ...] | None = None
    intruder_position: Cell | None = None
    trace: bool = False
    instance_id: str = ""


@dataclass
class Robot:
    id: int
    role: str
    idx: int
    segment: tuple[int, ...] = ()
    tour: tuple[int, ...] = ()
    plan: list[int] | None = None
    plan_pos: int = 0


@dataclass
class Intruder:
    idx: int
    model: str


@dataclass
class SimState:
    cfg: SimConfig
    grid: GridGraph
    robots: list[Robot]
    intruder: Intruder
    cost: CostMap | None
    rng: random.Random
    max_steps: int
    t: int = 0
    captured: bool = False
    via_swap: bool = False
    trace: list[dict] | None = None
    crs_round_t: int = -1


@dataclass(frozen=True)
class TrialResult:
    captured: bool
    steps: int
    strategy: str
    intruder: str
    k: int
    seed: int
    instance: str = ""
    trace: tuple[dict, ...] | None = None
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
    """Build (or fetch) the patrol layout for `grid` under `rect_seed`.

    A grid keeps the layout of one `rect_seed`; another seed replaces it.
    """
    hit = grid.cache.get("sfc_layout")
    if hit is not None and hit[0] == rect_seed:
        return hit[1]
    r = rectangulate(grid, rect_seed)
    curves = []
    for rect in r.rects:
        local = gilbert_curve(rect.width, rect.height)
        routed = repair_curve(place_curve(rect, local), grid)
        curves.append(tuple(grid.require(cell) for cell in routed))
    guards = tuple(grid.require(j.pairs[0][0]) for j in r.juncs)
    layout = SfcLayout(rectangulation=r, curves=tuple(curves), guards=guards)
    grid.cache["sfc_layout"] = (rect_seed, layout)
    return layout


#: One patrol robot: (role, segment, tour).
Member = tuple[str, tuple[int, ...], tuple[int, ...]]


def sfc_team(grid: GridGraph, strategy: str, k: int, rect_seed: int = 0) -> tuple[Member, ...]:
    """Build (or fetch) the k-robot sfc/sfc_g team for `grid`, in robot id order.

    Searchers come first, each with its curve segment and its ping-pong
    tour ``seg + seg[-2:0:-1]`` (period 2(L - 1)); then one guard per
    junction for sfc_g, whose tour is its doorway cell. A grid keeps one
    team; another (strategy, k, rect_seed) replaces it. Raises TooFewRobots
    when the rectangles (and junctions) outnumber k, and TooManyRobots when
    a curve gets more searchers than cells.
    """
    key = (strategy, k, rect_seed)
    hit = grid.cache.get("sfc_team")
    if hit is not None and hit[0] == key:
        return hit[1]
    layout = sfc_layout(grid, rect_seed)
    guards = layout.guards if strategy == "sfc_g" else ()
    m = len(layout.curves)
    if k - len(guards) < m:
        raise TooFewRobots(
            f"{strategy} needs {m + len(guards)} robots here ({m} rectangles"
            + (f", {len(guards)} junctions)" if guards else ")")
            + f", got {k}"
        )
    team: list[Member] = []
    for curve, count in zip(layout.curves, allocate_robots(layout.rectangulation, k - len(guards))):
        for start, stop in segment_bounds(len(curve), count):
            seg = curve[start:stop]
            team.append(("searcher", seg, seg + seg[-2:0:-1]))
    team.extend(("guard", (), (cell,)) for cell in guards)
    grid.cache["sfc_team"] = (key, tuple(team))
    return grid.cache["sfc_team"][1]


def min_robots(strategy: str, grid: GridGraph, rect_seed: int = 0) -> int:
    """Smallest team the strategy can field on this grid."""
    if strategy in ("sfc", "sfc_g"):
        layout = sfc_layout(grid, rect_seed)
        extra = len(layout.guards) if strategy == "sfc_g" else 0
        return len(layout.curves) + extra
    return 1


def init_trial(cfg: SimConfig, grid: GridGraph | None = None) -> SimState:
    """Place the team and the intruder; a shared grid may be passed in.

    Random draws happen in a fixed order (robot positions in id order, then
    the intruder), so a config and its seed pin the whole trial.
    """
    if cfg.strategy not in STRATEGIES:
        raise InvalidConfig(f"unknown strategy {cfg.strategy!r}")
    if cfg.intruder not in INTRUDER_MODELS:
        raise InvalidConfig(f"unknown intruder model {cfg.intruder!r}")
    if cfg.k < 1:
        raise TooFewRobots("at least one robot is required")
    if cfg.max_steps is not None and cfg.max_steps < 0:
        raise InvalidConfig("max_steps must be nonnegative")
    if grid is None:
        grid = rasterize(cfg.polygon)
    n = len(grid.cells)
    rng = random.Random(cfg.seed)
    cost = CostMap(grid) if cfg.strategy in ("rs", "crs") else None

    if cfg.strategy in ("sfc", "sfc_g"):
        if cfg.robot_positions is not None:
            raise InvalidConfig("robot_positions only apply to rs, crs and baseline")
        team = sfc_team(grid, cfg.strategy, cfg.k, cfg.rect_seed)
        # Positional arguments: this runs once per robot and trial.
        robots = [Robot(i, role, tour[0], seg, tour) for i, (role, seg, tour) in enumerate(team)]
    else:
        if cfg.robot_positions is not None:
            if len(cfg.robot_positions) != cfg.k:
                raise InvalidConfig(f"{cfg.k} robots but {len(cfg.robot_positions)} positions")
            starts = [grid.require(cell) for cell in cfg.robot_positions]
        else:
            starts = [rng.randrange(n) for _ in range(cfg.k)]
        robots = [Robot(id=i, role="searcher", idx=s) for i, s in enumerate(starts)]

    if cfg.intruder_position is not None:
        intruder_idx = grid.require(cfg.intruder_position)
    else:
        intruder_idx = rng.randrange(n)
    intruder = Intruder(idx=intruder_idx, model=cfg.intruder)

    max_steps = cfg.max_steps if cfg.max_steps is not None else DEFAULT_STEP_FACTOR * n
    state = SimState(
        cfg=cfg,
        grid=grid,
        robots=robots,
        intruder=intruder,
        cost=cost,
        rng=rng,
        max_steps=max_steps,
        trace=[] if cfg.trace else None,
    )
    if any(r.idx == intruder_idx for r in robots):
        state.captured = True
    _record(state)
    return state


def policy_rs(state: SimState, robot: Robot) -> Cell:
    """Walk toward a private random target; pick a fresh one on arrival.

    Targets are resampled until they differ from the current cell (bounded
    attempts), and paths are cheapest under the shared visit-count map, so
    crowded cells get avoided on the next replan.
    """
    g = state.grid
    if robot.plan is None or robot.plan_pos >= len(robot.plan) - 1:
        target = _draw_target(state, robot.idx)
        robot.plan = plan_indices(g, state.cost, robot.idx, target)
        robot.plan_pos = 0
    if robot.plan_pos < len(robot.plan) - 1:
        robot.plan_pos += 1
        robot.idx = robot.plan[robot.plan_pos]
    return g.cells[robot.idx]


def policy_crs(state: SimState, robot: Robot) -> Cell:
    """Like rs, but arrivals wait until the whole team can redeploy at once.

    The first searcher processed each step checks the barrier; when every
    robot has finished its plan, new targets are drawn jointly and matched
    to robots by assignment cost. Waiting robots still stand on their cells
    and keep inflating the visit counts there.
    """
    if state.crs_round_t != state.t:
        state.crs_round_t = state.t
        if all(r.plan is None or r.plan_pos >= len(r.plan) - 1 for r in state.robots):
            _crs_assign(state)
    if robot.plan is not None and robot.plan_pos < len(robot.plan) - 1:
        robot.plan_pos += 1
        robot.idx = robot.plan[robot.plan_pos]
    return state.grid.cells[robot.idx]


def policy_baseline(state: SimState, robot: Robot) -> Cell:
    """Chase the intruder's current cell along a shortest path."""
    g = state.grid
    path = shortest_indices(g, robot.idx, state.intruder.idx)
    if len(path) > 1:
        robot.idx = path[1]
    return g.cells[robot.idx]


_POLICIES = {
    "rs": policy_rs,
    "crs": policy_crs,
    "baseline": policy_baseline,
}


def intruder_move(state: SimState) -> Cell:
    """Advance the intruder one step under its model.

    static: never moves. random: uniform over staying and every adjacent
    cell. walk: uniform over adjacent cells only (stays only if boxed in).
    """
    g, intr = state.grid, state.intruder
    if intr.model == "static":
        return g.cells[intr.idx]
    adj = g.adjacency[intr.idx]
    if intr.model == "random":
        pick = state.rng.randrange(len(adj) + 1)
        if pick > 0:
            intr.idx = adj[pick - 1]
    elif adj:
        intr.idx = adj[state.rng.randrange(len(adj))]
    return g.cells[intr.idx]


def step(state: SimState) -> None:
    """One synchronous step: searchers, cost bumps, intruder, capture test.

    Guards never move. Capture is co-location after the intruder's move, or
    a robot/intruder cell exchange within the step. Stepping a finished
    trial is a no-op.
    """
    if state.captured or state.t >= state.max_steps:
        return
    robots = state.robots
    prev = [r.idx for r in robots]
    if state.cfg.strategy in ("sfc", "sfc_g"):
        t = state.t + 1
        for robot in robots:
            tour = robot.tour
            robot.idx = tour[t % len(tour)]
    else:
        policy = _POLICIES[state.cfg.strategy]
        for robot in robots:
            policy(state, robot)
    if state.cost is not None:
        bump = state.cost.bump_index
        for robot in robots:
            bump(robot.idx)
    intruder_prev = state.intruder.idx
    intruder_move(state)
    intruder_now = state.intruder.idx

    co_located = intruder_now in [r.idx for r in robots]
    # A swap needs the intruder to move onto a cell a robot just left.
    swapped = (
        not co_located
        and intruder_now != intruder_prev
        and intruder_now in prev
        and any(r.idx == intruder_prev and prev[i] == intruder_now for i, r in enumerate(robots))
    )
    state.t += 1
    if co_located or swapped:
        state.captured = True
        state.via_swap = swapped
    _record(state)


def run_trial(cfg: SimConfig, grid: GridGraph | None = None) -> TrialResult:
    """Run one trial to capture or to the step cap."""
    state = init_trial(cfg, grid)
    while not state.captured and state.t < state.max_steps:
        step(state)
    return TrialResult(
        captured=state.captured,
        steps=state.t,
        strategy=cfg.strategy,
        intruder=cfg.intruder,
        k=cfg.k,
        seed=cfg.seed,
        instance=cfg.instance_id,
        trace=tuple(state.trace) if state.trace is not None else None,
        via_swap=state.via_swap,
    )


def _record(state: SimState) -> None:
    if state.trace is None:
        return
    cells = state.grid.cells
    state.trace.append(
        {
            "t": state.t,
            "robots": tuple(cells[r.idx] for r in state.robots),
            "intruder": cells[state.intruder.idx],
            "captured": state.captured,
            "via_swap": state.via_swap,
        }
    )


def _draw_target(state: SimState, current: int) -> int:
    n = len(state.grid.cells)
    for _ in range(RESAMPLE_BUDGET):
        cand = state.rng.randrange(n)
        if cand != current:
            return cand
    return current


def _crs_assign(state: SimState) -> None:
    g, cm = state.grid, state.cost
    targets = [_draw_target(state, robot.idx) for robot in state.robots]
    remaining = costs_to_target(g, cm, targets)
    assignment = hungarian(remaining[:, [robot.idx for robot in state.robots]].T)
    for robot, j in zip(state.robots, assignment.targets):
        robot.plan = plan_indices(g, cm, robot.idx, targets[j])
        robot.plan_pos = 0
