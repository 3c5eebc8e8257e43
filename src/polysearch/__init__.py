"""Multi-robot search for an intruder in grid-decomposed orthogonal polygons.

The package covers the full pipeline: polygon validation and
rasterization, random polygon generation, comb-shaped hard instances,
rectangular decomposition, space-filling patrol curves, cost-aware path
planning, a discrete-time pursuit simulation, and a Monte-Carlo sweep
harness with CSV and SVG reporting.

Importing the package loads none of its modules: a public name (or a
module, as in ``polysearch.sim``) is imported the first time it is read
(PEP 562), so geometry, curves and charts never load scipy.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name under the module that defines it.
_PUBLIC = {
    "decomposition": ("Junction", "Rectangle", "Rectangulation", "allocate_robots", "rectangulate"),
    "errors": ("PolySearchError",),
    "geometry": (
        "Cell",
        "GridGraph",
        "OrthoPolygon",
        "polygon_from_cells",
        "rasterize",
        "read_polygon_file",
        "validate_polygon",
        "write_polygon_file",
    ),
    "harness": (
        "PRESETS",
        "InstanceSpec",
        "SummaryRow",
        "SweepSpec",
        "read_csv",
        "run_sweep",
        "summarize",
        "write_csv",
    ),
    "planning": ("CostMap", "costs_to_target", "hungarian"),
    "plots": ("bar_chart", "line_plot"),
    "polygen": ("comb_polygon", "inflate_cut"),
    "sfc": ("gilbert_curve", "repair_curve"),
    "sim": ("INTRUDER_MODELS", "STRATEGIES", "SimConfig", "TrialResult", "init_trial", "run_trial", "step"),
}
_MODULE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE)


def __getattr__(name: str):
    module = _MODULE.get(name, name)
    if module not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE, *_PUBLIC})
