"""Multi-robot search for an intruder in grid-decomposed orthogonal polygons.

The package covers the full pipeline: polygon validation and
rasterization, random polygon generation, comb-shaped hard instances,
rectangular decomposition, space-filling patrol curves, cost-aware path
planning, a discrete-time pursuit simulation, and a Monte-Carlo sweep
harness with CSV and SVG reporting.
"""

from .decomposition import (
    Junction,
    Rectangle,
    Rectangulation,
    allocate_robots,
    rectangulate,
)
from .errors import PolySearchError
from .geometry import (
    Cell,
    GridGraph,
    OrthoPolygon,
    polygon_from_cells,
    rasterize,
    read_polygon_file,
    validate_polygon,
    write_polygon_file,
)
from .harness import (
    PRESETS,
    InstanceSpec,
    SummaryRow,
    SweepSpec,
    read_csv,
    run_sweep,
    summarize,
    write_csv,
)
from .planning import CostMap, costs_to_target, hungarian
from .plots import bar_chart, line_plot
from .polygen import comb_polygon, inflate_cut
from .sfc import gilbert_curve, repair_curve
from .sim import (
    INTRUDER_MODELS,
    STRATEGIES,
    SimConfig,
    TrialResult,
    init_trial,
    run_trial,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "CostMap",
    "GridGraph",
    "INTRUDER_MODELS",
    "InstanceSpec",
    "Junction",
    "OrthoPolygon",
    "PolySearchError",
    "PRESETS",
    "Rectangle",
    "Rectangulation",
    "STRATEGIES",
    "SimConfig",
    "SummaryRow",
    "SweepSpec",
    "TrialResult",
    "allocate_robots",
    "bar_chart",
    "comb_polygon",
    "costs_to_target",
    "gilbert_curve",
    "hungarian",
    "inflate_cut",
    "init_trial",
    "line_plot",
    "polygon_from_cells",
    "rasterize",
    "read_csv",
    "read_polygon_file",
    "rectangulate",
    "repair_curve",
    "run_sweep",
    "run_trial",
    "step",
    "summarize",
    "validate_polygon",
    "write_csv",
    "write_polygon_file",
]
