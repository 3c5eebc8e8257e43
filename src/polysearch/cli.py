"""Command line front end.

Subcommands mirror the library layers: polygon generation, comb
construction, decomposition, curve inspection, single simulations,
Monte-Carlo sweeps and chart rendering.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .decomposition import rectangulate
from .errors import InvalidConfig, IoError, PolySearchError
from .geometry import (
    rasterize,
    read_json,
    read_polygon_file,
    validate_polygon,
    write_polygon_file,
    write_text,
)
from .harness import (
    PRESETS,
    InstanceSpec,
    SweepSpec,
    expand_cells,
    read_csv,
    run_sweep,
    write_csv,
)
from .plots import bar_chart, line_plot
from .polygen import comb_polygon, inflate_cut
from .sfc import gilbert_curve
from .sim import SimConfig, run_trial


def _cmd_generate(args: argparse.Namespace) -> int:
    poly = inflate_cut(args.vertices, seed=args.seed)
    write_polygon_file(args.output, poly)
    print(f"wrote {args.output}: {poly.n_vertices} vertices, {poly.area} cells")
    return 0


def _cmd_comb(args: argparse.Namespace) -> int:
    try:
        depths = tuple(int(d) for d in args.depths.split(","))
    except ValueError:
        raise InvalidConfig(f"--depths must be comma-separated integers, got {args.depths!r}") from None
    poly = comb_polygon(
        depths,
        spike_width=args.spike_width,
        base_height=args.base_height,
        spike_gap=args.gap,
    )
    write_polygon_file(args.output, poly)
    print(f"wrote {args.output}: {len(depths)} teeth, {poly.area} cells")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    poly = read_polygon_file(args.polygon)
    grid = rasterize(poly)
    r = rectangulate(grid, seed=args.seed)
    if args.json:  # tuples, cells among them, print as JSON arrays
        rects = [{"anchor": rect.anchor, "width": rect.width, "height": rect.height} for rect in r.rects]
        juncs = [{"a": j.a, "b": j.b, "doorways": j.pairs} for j in r.juncs]
        print(json.dumps({"rectangles": rects, "junctions": juncs}, indent=2))
        return 0
    print(f"{len(r.rects)} rectangles, {len(r.juncs)} junctions")
    for i, rect in enumerate(r.rects):
        print(f"  R{i}: {rect.width}x{rect.height} at {tuple(rect.anchor)}")
    for j in r.juncs:
        print(f"  J: R{j.a}-R{j.b} via {j.hi - j.lo} doorway(s)")
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    curve = gilbert_curve(args.width, args.height)
    if args.json:
        print(json.dumps([list(c) for c in curve]))
    else:
        print(" ".join(f"({c.col},{c.row})" for c in curve))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    poly = read_polygon_file(args.polygon)
    cfg = SimConfig(
        strategy=args.strategy,
        k=args.robots,
        intruder=args.intruder,
        max_steps=args.max_steps,
        seed=args.seed,
        rect_seed=args.rect_seed,
    )
    grid = rasterize(poly)
    rows: list | None = [] if args.trace else None
    res = run_trial(cfg, grid, rows)
    payload = {
        "captured": res.captured,
        "via_swap": res.via_swap,
        "steps": res.steps,
        "strategy": cfg.strategy,
        "intruder": cfg.intruder,
        "k": cfg.k,
        "seed": cfg.seed,
    }
    if rows is not None:  # cells are tuples, which json writes as arrays
        cells, last = grid.cells, len(rows) - 1
        payload["trace"] = [
            {
                "t": t,
                "robots": [cells[i] for i in row[1:]],
                "intruder": cells[row[0]],
                "captured": res.captured and t == last,
                "via_swap": res.via_swap and t == last,
            }
            for t, row in enumerate(rows)
        ]
    print(json.dumps(payload, indent=2))
    return 0


def _load_instance(inst: dict, spec_dir: str) -> InstanceSpec:
    fields = {**inst}  # TypeError unless inst is a JSON object
    if "file" in fields and "polygon" in fields:
        raise IoError(f"instance {fields.get('id')!r} gives both \"file\" and \"polygon\"; give one")
    if "file" in fields:
        fields["polygon"] = read_polygon_file(os.path.join(spec_dir, fields.pop("file")))
    else:
        fields["polygon"] = validate_polygon(fields["polygon"])
    return InstanceSpec(**fields)


def _load_spec(path: str) -> SweepSpec:
    """A JSON sweep spec: its keys are the fields of SweepSpec and InstanceSpec.

    Lists become tuples, and an instance's "file", relative to the spec's
    directory, is read into its polygon. Unknown and missing keys raise
    IoError naming the key.
    """
    raw = read_json(path)
    try:
        instances = tuple(_load_instance(inst, os.path.dirname(path)) for inst in raw["instances"])
        fields = {key: tuple(v) if isinstance(v, list) else v for key, v in raw.items()}
        return SweepSpec(**{**fields, "instances": instances})
    except (KeyError, TypeError) as exc:
        raise IoError(f"{path} is not a valid sweep spec: {type(exc).__name__} {exc}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.preset:
        spec = PRESETS[args.preset]()
    else:
        spec = _load_spec(args.spec)
    if args.trials is not None:
        spec = dataclasses.replace(spec, trials=args.trials)
    if args.base_seed is not None:
        spec = dataclasses.replace(spec, base_seed=args.base_seed)
    # Fail before the sweep, not after it, when the CSV has nowhere to go.
    if not args.output:
        raise IoError("output path is empty")
    out_dir = os.path.dirname(args.output) or "."
    if not os.path.isdir(out_dir):
        raise IoError(f"output directory {out_dir} does not exist")
    if os.path.isdir(args.output):
        raise IoError(f"output {args.output} is a directory")

    def progress(done: int, total: int) -> None:
        print(f"\r{done}/{total} cells", end="", file=sys.stderr, flush=True)

    rows = run_sweep(spec, workers=args.workers, progress=progress)
    print(file=sys.stderr)
    write_csv(rows, args.output)
    feasible = sum(1 for r in rows if r.feasible)
    print(f"wrote {args.output}: {len(rows)} rows ({feasible} feasible)")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    rows = read_csv(args.csv)
    if args.kind == "line":
        svg = line_plot(rows, title=args.title)
    else:
        svg = bar_chart(rows, title=args.title)
    write_text(args.output, svg)
    print(f"wrote {args.output}")
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    for name, make in PRESETS.items():
        spec = make()
        cells = expand_cells(spec)
        sizes = ", ".join(f"{inst.id}={inst.polygon.area}" for inst in spec.instances)
        print(f"{name}: {len(cells)} cells x {spec.trials} trials ({sizes})")
    return 0


class _Parser(argparse.ArgumentParser):
    """A malformed command line raises InvalidConfig, so it ends as one line."""

    def error(self, message: str):
        raise InvalidConfig(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polysearch",
        description="Multi-robot intruder search on orthogonal polygon grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="grow a random orthogonal polygon")
    p.add_argument("--vertices", type=int, required=True, help="target vertex count (even)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("comb", help="build a comb-shaped polygon")
    p.add_argument("--depths", required=True, help="comma-separated tooth depths")
    p.add_argument("--spike-width", type=int, default=1)
    p.add_argument("--base-height", type=int, default=1)
    p.add_argument("--gap", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_comb)

    p = sub.add_parser("decompose", help="rectangulate a polygon file")
    p.add_argument("polygon")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("curve", help="print a space-filling curve")
    p.add_argument("width", type=int)
    p.add_argument("height", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("simulate", help="run one search trial")
    p.add_argument("polygon")
    p.add_argument("--strategy", required=True)
    p.add_argument("-k", "--robots", type=int, required=True)
    p.add_argument("--intruder", default="static")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rect-seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a Monte-Carlo sweep to CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS))
    src.add_argument("--spec", help="JSON sweep description")
    p.add_argument("--trials", type=int, default=None, help="override trials per cell")
    p.add_argument("--base-seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1, help="process count")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("plot", help="render a sweep CSV as SVG")
    p.add_argument("csv")
    p.add_argument("--kind", choices=("line", "bar"), default="line")
    p.add_argument("--title", default="")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("presets", help="list built-in sweeps")
    p.set_defaults(func=_cmd_presets)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PolySearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
