"""End-to-end command line checks using the real entry point."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pathlib
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polysearch import harness
from polysearch.cli import main
from polysearch.geometry import MAX_CELLS, MAX_VERTICES, rasterize, read_polygon_file, write_polygon_file
from polysearch.harness import CSV_COLUMNS, PRESETS, read_csv
from polysearch.polygen import inflate_cut
from polysearch.sim import INTRUDER_MODELS, MAX_ROBOTS, SimConfig, run_trial


def test_generate_decompose_simulate_pipeline(tmp_path, capsys):
    poly_path = str(tmp_path / "poly.json")
    assert main(["generate", "--vertices", "12", "--seed", "3", "-o", poly_path]) == 0
    poly = read_polygon_file(poly_path)
    assert poly.n_vertices == 12
    assert list(json.loads((tmp_path / "poly.json").read_text())) == ["vertices"]
    capsys.readouterr()

    assert main(["decompose", poly_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(r["width"] * r["height"] for r in payload["rectangles"]) == poly.area

    assert main([
        "simulate", poly_path, "--strategy", "baseline", "-k", "2", "--seed", "5",
    ]) == 0
    out = capsys.readouterr().out
    result = json.loads(out)
    assert result["captured"] is True and result["k"] == 2


def test_comb_curve_and_presets(tmp_path, capsys):
    comb_path = str(tmp_path / "comb.json")
    assert main(["comb", "--depths", "2,3", "--spike-width", "1", "--base-height", "2",
                 "--gap", "1", "-o", comb_path]) == 0
    poly = read_polygon_file(comb_path)
    # base is 5x2 (two 1-wide teeth with unit gaps), teeth add 2 + 3
    assert poly.area == 10 + 2 + 3

    assert main(["curve", "4", "3", "--json"]) == 0
    cells = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert len(cells) == 12

    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("spikes4", "shapes", "areas", "beta"):
        assert name in out


@pytest.mark.parametrize("size", ["5m", -5, 0, True, float("nan"), 5.0])
def test_polygon_file_cell_size_is_ignored(tmp_path, capsys, size):
    # Files written before the key went held "cell_size_m"; any value loads.
    strip = [[0, 0], [4, 0], [4, 1], [0, 1]]
    old = _write(tmp_path, "old.json", json.dumps({"vertices": strip, "cell_size_m": size}))
    new = _write(tmp_path, "new.json", json.dumps({"vertices": strip}))
    assert main(["decompose", old]) == 0
    out = capsys.readouterr().out
    assert main(["decompose", new]) == 0
    assert capsys.readouterr().out == out


def test_sweep_and_plot_roundtrip(tmp_path, capsys):
    spec = {
        "instances": [{"id": "strip", "polygon": [[0, 0], [6, 0], [6, 1], [0, 1]]}],
        "strategies": ["rs", "baseline"],
        "ks": [1, 2],
        "intruders": ["static"],
        "trials": 4,
        "base_seed": 1,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    csv_path = str(tmp_path / "out.csv")
    assert main(["sweep", "--spec", str(spec_path), "-o", csv_path]) == 0
    text = (tmp_path / "out.csv").read_text()
    assert text.startswith("instance,strategy,intruder,k,")
    assert text.count("\n") == 5  # header + 4 rows

    svg_path = str(tmp_path / "out.svg")
    assert main(["plot", csv_path, "--kind", "line", "-o", svg_path]) == 0
    svg = (tmp_path / "out.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    bar_path = str(tmp_path / "bar.svg")
    assert main(["plot", csv_path, "--kind", "bar", "-o", bar_path]) == 0


def test_workers_flag_matches_serial(tmp_path, capsys):
    spec = {
        "instances": [{"id": "strip", "polygon": [[0, 0], [5, 0], [5, 1], [0, 1]]}],
        "strategies": ["rs"],
        "ks": [1, 2],
        "trials": 2,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"

    assert main(["sweep", "--spec", str(spec_path), "-o", str(serial)]) == 0
    assert main(["sweep", "--spec", str(spec_path), "--workers", "2", "-o", str(pooled)]) == 0
    assert pooled.read_text() == serial.read_text()
    capsys.readouterr()

    assert main(["sweep", "--spec", str(spec_path), "--workers", "0", "-o", str(pooled)]) == 2
    assert "worker count" in capsys.readouterr().err


def test_spec_file_is_read_relative_to_the_spec(tmp_path, capsys, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "poly.json").write_text(json.dumps({"vertices": [[0, 0], [5, 0], [5, 1], [0, 1]]}))
    (sub / "spec.json").write_text(_spec(instances=[{"id": "strip", "file": "poly.json"}]))
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--spec", "sub/spec.json", "-o", "out.csv"]) == 0
    assert [row.instance for row in read_csv("out.csv")] == ["strip"]


def test_cli_reports_domain_errors(tmp_path, capsys):
    poly_path = str(tmp_path / "poly.json")
    assert main(["generate", "--vertices", "7", "--seed", "0", "-o", poly_path]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_curve_plain_output(capsys):
    assert main(["curve", "3", "3"]) == 0
    assert capsys.readouterr().out == "(0,0) (0,1) (0,2) (1,2) (2,2) (2,1) (1,1) (1,0) (2,0)\n"


def test_curve_json_output(capsys):
    assert main(["curve", "3", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        [0, 0], [0, 1], [1, 1], [2, 1], [2, 0], [1, 0]
    ]


def test_simulate_trace_is_json(tmp_path, capsys):
    poly_path = str(tmp_path / "poly.json")
    main(["generate", "--vertices", "8", "--seed", "1", "-o", poly_path])
    capsys.readouterr()
    poly = read_polygon_file(poly_path)
    # The walk intruder with seed 1 is caught by swapping cells with the robot.
    for intruder, seed in (("static", 2), ("walk", 1)):
        assert main(["simulate", poly_path, "--strategy", "rs", "-k", "1", "--intruder",
                     intruder, "--seed", str(seed), "--trace"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"][0]["t"] == 0
        assert len(payload["trace"]) == payload["steps"] + 1
        res = run_trial(SimConfig(strategy="rs", k=1, intruder=intruder, seed=seed), rasterize(poly))
        assert payload["via_swap"] is res.via_swap is (intruder == "walk")
        assert all("via_swap" in row for row in payload["trace"])
        assert payload["trace"][-1]["via_swap"] is res.via_swap


@pytest.mark.parametrize(
    ("argv", "bound"),
    [
        pytest.param(["decompose", "{huge}"], MAX_CELLS, id="decompose"),
        pytest.param(["simulate", "{huge}", "--strategy", "rs", "-k", "1"], MAX_CELLS, id="simulate"),
        pytest.param(["sweep", "--spec", "{spec}", "-o", "{out}"], MAX_CELLS, id="sweep"),
        pytest.param(["curve", "100000", "100000"], MAX_CELLS, id="curve-square"),
        pytest.param(["curve", str(MAX_CELLS + 1), "1"], MAX_CELLS, id="curve-one-over"),
        pytest.param(
            ["simulate", "{small}", "--strategy", "rs", "-k", "1000000", "--max-steps", "0"],
            MAX_ROBOTS,
            id="simulate-k",
        ),
        pytest.param(
            ["simulate", "{small}", "--strategy", "crs", "-k", str(MAX_ROBOTS + 1)],
            MAX_ROBOTS,
            id="simulate-k-one-over",
        ),
        pytest.param(["sweep", "--spec", "{kspec}", "-o", "{out}"], MAX_ROBOTS, id="sweep-ks"),
        pytest.param(["comb", "--depths", "1,100000000", "-o", "{out}"], MAX_CELLS, id="comb-depths"),
        pytest.param(["comb", "--depths", "1", "--spike-width", "100000000", "-o", "{out}"], MAX_CELLS,
                     id="comb-spike-width"),
        pytest.param(["comb", "--depths", "1", "--base-height", "100000000", "-o", "{out}"], MAX_CELLS,
                     id="comb-base-height"),
        pytest.param(["comb", "--depths", "1", "--gap", "100000000", "-o", "{out}"], MAX_CELLS, id="comb-gap"),
        pytest.param(["generate", "--vertices", "1000000", "-o", "{out}"], MAX_VERTICES, id="generate-vertices"),
        pytest.param(["generate", "--vertices", str(MAX_VERTICES + 2), "-o", "{out}"], MAX_VERTICES,
                     id="generate-vertices-one-over"),
        pytest.param(["comb", "--depths", ",".join(["1"] * 125), "-o", "{out}"], MAX_VERTICES,
                     id="comb-vertices"),
        # 132,004 vertices around about 99,000 cells, under MAX_CELLS.
        pytest.param(["comb", "--depths", ",".join(["1"] * 33000), "-o", "{out}"], MAX_VERTICES,
                     id="comb-vertices-33000-teeth"),
        pytest.param(["decompose", "{stairs}"], MAX_VERTICES, id="decompose-vertices"),
        pytest.param(["simulate", "{stairs}", "--strategy", "rs", "-k", "1"], MAX_VERTICES,
                     id="simulate-vertices"),
    ],
)
def test_oversized_input_exits_2_before_building_cells(tmp_path, capsys, argv, bound):
    side = 10**5
    square = [[0, 0], [side, 0], [side, side], [0, side]]
    paths = {
        "huge": _write(tmp_path, "huge.json", json.dumps({"vertices": square})),
        "spec": _write(tmp_path, "spec.json", _spec(instances=[{"id": "huge", "polygon": square}])),
        "small": _write(tmp_path, "small.json", json.dumps({"vertices": [[0, 0], [4, 0], [4, 1], [0, 1]]})),
        "kspec": _write(tmp_path, "kspec.json", _spec(strategies=["crs"], ks=[2, 10**6])),
        # 502 vertices around 31,375 cells: only the vertex bound stops it.
        "stairs": _write(tmp_path, "stairs.json", json.dumps({"vertices": _staircase(250)})),
        "out": str(tmp_path / "out.csv"),
    }
    t0 = time.perf_counter()
    assert main([arg.format(**paths) for arg in argv]) == 2
    # 10^10 cells would take hours; 10^6 robots, seconds and 70 MB per trial
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(bound) in err[0]


def _staircase(steps: int) -> list[list[int]]:
    """Vertex loop of a staircase polygon with 2 * steps + 2 vertices."""
    loop = [[0, 0], [steps, 0]]
    for i in range(1, steps + 1):
        loop += [[steps - i + 1, i], [steps - i, i]]
    return loop


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _spec(**overrides) -> str:
    spec = {
        "instances": [{"id": "strip", "polygon": [[0, 0], [4, 0], [4, 1], [0, 1]]}],
        "strategies": ["rs"],
        "ks": [1],
        "trials": 1,
    }
    spec.update(overrides)
    return json.dumps({k: v for k, v in spec.items() if v is not None})


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["decompose", "{bad}"], id="decompose-malformed-json"),
        pytest.param(["simulate", "{bad}", "--strategy", "rs", "-k", "1"], id="simulate-malformed-json"),
        pytest.param(["decompose", "{novertices}"], id="polygon-without-vertices"),
        pytest.param(["sweep", "--spec", "{missing}", "-o", "{out}"], id="spec-file-missing"),
        pytest.param(["sweep", "--spec", "{nokey}", "-o", "{out}"], id="spec-key-missing"),
        pytest.param(["sweep", "--spec", "{zzz}", "-o", "{out}"], id="spec-unknown-strategy"),
        pytest.param(["sweep", "--spec", "{spec}", "--workers", "0", "-o", "{out}"], id="workers-flag-zero"),
        pytest.param(["decompose", "{short}"], id="polygon-vertex-not-a-pair"),
        pytest.param(["decompose", "{vbool}"], id="polygon-vertex-bool"),
        pytest.param(["sweep", "--spec", "{polybool}", "-o", "{out}"], id="spec-polygon-vertex-bool"),
        pytest.param(["sweep", "--spec", "{nointruders}", "-o", "{out}"], id="spec-intruders-empty"),
        pytest.param(["sweep", "--spec", "{polyobj}", "-o", "{out}"], id="spec-polygon-is-an-object"),
        pytest.param(["sweep", "--spec", "{trials}", "-o", "{out}"], id="spec-trials-string"),
        pytest.param(["sweep", "--spec", "{ks}", "-o", "{out}"], id="spec-ks-float"),
        pytest.param(["sweep", "--spec", "{maxsteps}", "-o", "{out}"], id="spec-max-steps-string"),
        pytest.param(["sweep", "--spec", "{numid}", "-o", "{out}"], id="spec-instance-id-number"),
        pytest.param(["sweep", "--spec", "{numfile}", "-o", "{out}"], id="spec-instance-file-number"),
        pytest.param(["sweep", "--spec", "{crid}", "-o", "{out}"], id="spec-instance-id-carriage-return"),
        pytest.param(["sweep", "--spec", "{surrogateid}", "-o", "{out}"], id="spec-instance-id-surrogate"),
        pytest.param(["sweep", "--spec", "{rectlist}", "-o", "{out}"], id="spec-rect-seed-list"),
        pytest.param(["sweep", "--spec", "{rectstr}", "-o", "{out}"], id="spec-rect-seed-string"),
        pytest.param(["sweep", "--spec", "{baselist}", "-o", "{out}"], id="spec-base-seed-list"),
        pytest.param(["sweep", "--spec", "{strategystr}", "-o", "{out}"], id="spec-strategies-string"),
        pytest.param(["sweep", "--spec", "{ksstr}", "-o", "{out}"], id="spec-ks-string"),
        pytest.param(["sweep", "--spec", "{intruderstr}", "-o", "{out}"], id="spec-intruders-string"),
        pytest.param(["sweep", "--spec", "{ksbool}", "-o", "{out}"], id="spec-ks-bool"),
        pytest.param(["sweep", "--spec", "{ksrepeated}", "-o", "{out}"], id="spec-ks-repeated"),
        pytest.param(["sweep", "--spec", "{idrepeated}", "-o", "{out}"], id="spec-instance-repeated"),
        pytest.param(["comb", "--depths", "3,x", "-o", "{out}"], id="comb-depth-not-an-integer"),
        pytest.param(["sweep", "--spec", "{negsteps}", "-o", "{out}"], id="spec-max-steps-negative"),
        pytest.param(["sweep", "--spec", "{spec}", "-o", "{nodir}"], id="sweep-output-dir-missing"),
        pytest.param(["sweep", "--spec", "{spec}", "-o", "{isdir}"], id="sweep-output-is-a-directory"),
        pytest.param(["sweep", "--spec", "{spec}", "-o", ""], id="sweep-output-empty"),
        pytest.param(["sweep", "--spec", "{fileandpoly}", "-o", "{out}"], id="spec-instance-file-and-polygon"),
        pytest.param(["sweep", "--spec", "{toolarge}", "-o", "{out}"], id="spec-instance-too-large"),
        pytest.param(["plot", "{missing}", "-o", "{svg}"], id="plot-csv-missing"),
        pytest.param(["plot", "{kabc}", "-o", "{svg}"], id="plot-csv-k-not-an-integer"),
        pytest.param(["plot", "{shortrow}", "-o", "{svg}"], id="plot-csv-short-row"),
        pytest.param(["plot", "{feasibleyes}", "-o", "{svg}"], id="plot-csv-feasible-not-a-bool"),
        pytest.param(["plot", "{meaninf}", "-o", "{svg}"], id="plot-csv-mean-inf"),
        pytest.param(["plot", "{meanneg}", "-o", "{svg}"], id="plot-csv-mean-negative"),
        pytest.param(["plot", "{meanhuge}", "-o", "{svg}"], id="plot-csv-mean-huge"),
        pytest.param(["plot", "{meanhuge}", "--kind", "bar", "-o", "{svg}"], id="plot-csv-mean-huge-bar"),
        pytest.param(["plot", "{meantiny}", "-o", "{svg}"], id="plot-csv-mean-subnormal"),
        pytest.param(["plot", "{meantiny}", "--kind", "bar", "-o", "{svg}"], id="plot-csv-mean-subnormal-bar"),
        pytest.param(["plot", "{meantiny2}", "-o", "{svg}"], id="plot-csv-mean-subnormal-2"),
        pytest.param(["plot", "{meantiny2}", "--kind", "bar", "-o", "{svg}"], id="plot-csv-mean-subnormal-2-bar"),
        pytest.param(["decompose", "{hugeint}"], id="polygon-vertex-huge-int"),
        pytest.param(["sweep", "--spec", "{polyhugeint}", "-o", "{out}"], id="spec-polygon-vertex-huge-int"),
        pytest.param(["curve", "{huge}", "{huge}"], id="curve-huge-int"),
        pytest.param(["comb", "--depths", "{huge}", "--spike-width", "{huge}", "-o", "{out}"], id="comb-huge-int"),
        pytest.param(["plot", "{csv}", "-o", "{nodir}"], id="plot-output-dir-missing"),
        # argv decodes a byte that is not UTF-8 (here 0xff) to a lone surrogate.
        pytest.param(["plot", "{csv}", "--title", "a\udcff", "-o", "{svg}"], id="plot-title-not-utf8"),
        # Malformed command lines: argparse reports them through InvalidConfig.
        pytest.param(["sweep", "--preset", "spikes4", "--workers", "x", "-o", "{out}"], id="workers-flag-not-an-integer"),
        pytest.param(["sweep", "--preset", "spikes4"], id="sweep-output-flag-missing"),
        pytest.param(["zzz"], id="unknown-subcommand"),
        pytest.param([], id="empty-command-line"),
    ],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, argv):
    strip = [[0, 0], [4, 0], [4, 1], [0, 1]]
    wide = [[0, 0], [10**400, 0], [10**400, 1], [0, 1]]
    ran = []
    run_cell = harness.run_cell
    monkeypatch.setattr(harness, "run_cell", lambda *job: ran.append(job) or run_cell(*job))
    header = ",".join(CSV_COLUMNS)
    row = "strip,rs,static,{k},4,4,1.0000,3.0000,1.0000,0.9800,{feasible}"
    paths = {
        "bad": _write(tmp_path, "bad.json", "{not json"),
        "novertices": _write(tmp_path, "novertices.json", '{"cell_size_m": 5.0}'),
        "missing": str(tmp_path / "missing.json"),
        "nokey": _write(tmp_path, "nokey.json", _spec(ks=None)),
        "zzz": _write(tmp_path, "zzz.json", _spec(strategies=["zzz"])),
        "spec": _write(tmp_path, "spec.json", _spec()),
        "short": _write(tmp_path, "short.json", '{"vertices": [[0, 0], [1], [1, 1], [0, 1]]}'),
        # With true read as 1 these would be a valid 1 x 2 rectangle.
        "vbool": _write(tmp_path, "vbool.json", '{"vertices": [[true, 0], [2, 0], [2, 2], [1, 2]]}'),
        "polybool": _write(
            tmp_path, "polybool.json", _spec(instances=[{"id": "s", "polygon": [[True, 0], [2, 0], [2, 2], [1, 2]]}])
        ),
        "nointruders": _write(tmp_path, "nointruders.json", _spec(intruders=[])),
        "polyobj": _write(
            tmp_path, "polyobj.json", _spec(instances=[{"id": "s", "polygon": {"vertices": strip}}])
        ),
        "trials": _write(tmp_path, "trials.json", _spec(trials="4")),
        "ks": _write(tmp_path, "ks.json", _spec(ks=[2.5])),
        "maxsteps": _write(tmp_path, "maxsteps.json", _spec(max_steps="9")),
        "numid": _write(tmp_path, "numid.json", _spec(instances=[{"id": 5, "polygon": strip}])),
        "numfile": _write(tmp_path, "numfile.json", _spec(instances=[{"id": "s", "file": 5}])),
        "crid": _write(tmp_path, "crid.json", _spec(instances=[{"id": "x\ry", "polygon": strip}])),
        "surrogateid": _write(tmp_path, "surrogateid.json", _spec(instances=[{"id": "a\ud800b", "polygon": strip}])),
        "rectlist": _write(
            tmp_path, "rectlist.json", _spec(instances=[{"id": "s", "polygon": strip, "rect_seed": [1]}])
        ),
        "rectstr": _write(
            tmp_path, "rectstr.json", _spec(instances=[{"id": "s", "polygon": strip, "rect_seed": "1"}])
        ),
        "baselist": _write(tmp_path, "baselist.json", _spec(base_seed=[3])),
        "strategystr": _write(tmp_path, "strategystr.json", _spec(strategies="rs")),
        "ksstr": _write(tmp_path, "ksstr.json", _spec(ks="1")),
        "intruderstr": _write(tmp_path, "intruderstr.json", _spec(intruders="static")),
        "ksbool": _write(tmp_path, "ksbool.json", _spec(ks=[True])),
        "ksrepeated": _write(tmp_path, "ksrepeated.json", _spec(ks=[3, 3])),
        "idrepeated": _write(
            tmp_path,
            "idrepeated.json",
            _spec(instances=[{"id": "s", "polygon": strip}, {"id": "s", "polygon": strip, "rect_seed": 1}]),
        ),
        # Every cell is infeasible, so no trial would reject the step cap.
        "negsteps": _write(tmp_path, "negsteps.json", _spec(ks=[0], max_steps=-1)),
        "csv": _write(tmp_path, "ok.csv", f"{header}\n{row.format(k=1, feasible='true')}\n"),
        "kabc": _write(tmp_path, "kabc.csv", f"{header}\n{row.format(k='abc', feasible='true')}\n"),
        "shortrow": _write(tmp_path, "shortrow.csv", f"{header}\nstrip,rs,static,1,4\n"),
        "feasibleyes": _write(
            tmp_path,
            "feasibleyes.csv",
            f"{header}\n{row.format(k=1, feasible='true')}\n{row.format(k=2, feasible='yes')}\n",
        ),
        # mean_steps of inf or -5 does not load; 1e308 does, but no chart axis reaches it.
        **{
            name: _write(tmp_path, f"{name}.csv", f"{header}\n{row.format(k=1, feasible='true')}\n".replace("3.0000", mean))
            for name, mean in [("meaninf", "inf"), ("meanneg", "-5.0000"), ("meanhuge", "1e308")]
        },
        # A subnormal mean with no spread: the tick step would underflow to 0.
        **{
            name: _write(
                tmp_path,
                f"{name}.csv",
                f"{header}\n{row.format(k=1, feasible='true')}\n".replace("3.0000,1.0000,0.9800", f"{mean},0,0"),
            )
            for name, mean in [("meantiny", "2.5e-323"), ("meantiny2", "5e-323")]
        },
        # 10**400 overflows a float, so math.isfinite cannot take it.
        "hugeint": _write(tmp_path, "hugeint.json", json.dumps({"vertices": wide})),
        "polyhugeint": _write(tmp_path, "polyhugeint.json", _spec(instances=[{"id": "s", "polygon": wide}])),
        "fileandpoly": _write(
            tmp_path,
            "fileandpoly.json",
            _spec(instances=[{"id": "a", "file": "strip.json", "polygon": [[0, 0], [9, 0], [9, 9], [0, 9]]}]),
        ),
        # The strip's cells would run before the square's rasterize raised.
        "toolarge": _write(
            tmp_path,
            "toolarge.json",
            _spec(
                instances=[
                    {"id": "strip", "polygon": strip},
                    {"id": "big", "polygon": [[0, 0], [400, 0], [400, 400], [0, 400]]},
                ]
            ),
        ),
        "strip": _write(tmp_path, "strip.json", json.dumps({"vertices": strip})),
        # Two such sizes multiply to 8,002 digits, more than str() of an int takes.
        "huge": "9" * 4001,
        "out": str(tmp_path / "out.csv"),
        "svg": str(tmp_path / "out.svg"),
        "nodir": str(tmp_path / "nodir" / "out"),
        "isdir": str(tmp_path),
    }
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not pathlib.Path(paths["out"]).exists() and not pathlib.Path(paths["svg"]).exists()
    assert not ran


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: polysearch sweep")


@pytest.mark.parametrize(
    "override, key",
    [
        ({"strategies": "rs"}, "strategies"),
        ({"ks": "1"}, "ks"),
        ({"intruders": "static"}, "intruders"),
        ({"base_seed": [3]}, "base_seed"),
        ({"trials": True}, "trials"),
        ({"instances": [{"id": "s", "polygon": [[0, 0], [4, 0], [4, 1], [0, 1]], "rect_seed": "1"}]},
         "rect_seed"),
        ({"trails": 3}, "trails"),
        ({"instances": [{"id": "s", "polygon": [[0, 0], [4, 0], [4, 1], [0, 1]], "rectseed": 1}]},
         "rectseed"),
    ],
)
def test_spec_error_names_the_bad_key(tmp_path, capsys, override, key):
    spec = _write(tmp_path, "spec.json", _spec(**override))
    assert main(["sweep", "--spec", spec, "-o", str(tmp_path / "out.csv")]) == 2
    assert key in capsys.readouterr().err


#: sha256 of the three `simulate --trace` outputs (static, random, walk) per strategy.
SIMULATE_TRACE_DIGESTS = {
    "sfc": "335493fc8905818af3af0a4c2e53b3487f576e97dcef09fde4ed3b6b8332e65c",
    "sfc_g": "0790db7f82b1267001b4c2247147655e42cb82a70efa46d70a9299c1d4058513",
    "rs": "9f3e0336b5eb33c60161a4ebc5111f6e8328be8fe308b63a9285ac44c5a51c67",
    "crs": "c8e188568022c3a39ce13f48ed40be553d34307e704e12d3131a572398564b29",
    "baseline": "2894ab5ec409ef35f958975bfc10856cdef1fafd80c9980de06990545ba12ce8",
}


@pytest.mark.parametrize("strategy", sorted(SIMULATE_TRACE_DIGESTS))
def test_simulate_trace_output_is_pinned(tmp_path, capsys, strategy):
    # Behaviour lock on the whole simulate payload, trace rows included.
    comb_path = str(tmp_path / "comb.json")
    assert main(["comb", "--depths", "3,2,4", "--base-height", "2", "-o", comb_path]) == 0
    capsys.readouterr()
    k = {"sfc": 4, "sfc_g": 7}.get(strategy, 2)
    digest = hashlib.sha256()
    for intruder in INTRUDER_MODELS:
        assert main(["simulate", comb_path, "--strategy", strategy, "-k", str(k),
                     "--intruder", intruder, "--seed", "3", "--trace"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SIMULATE_TRACE_DIGESTS[strategy]


#: sha256 of the `decompose` text and `--json` outputs at rect seeds 0..2 over
#: the areas and spikes4 combs and inflate_cut(v, s) for v = 20, 40, 60, s = 0..2.
DECOMPOSE_DIGESTS = {
    "json": "67c81c6700115949a6879c7c06df33ebde897c606fb99ea58d21e734b2241aa0",
    "text": "70e5c1ca8309abc6263c264553b9f4cac3c6abe0ef81a80f02ca7e9d15f140f5",
}


@pytest.mark.parametrize("mode", sorted(DECOMPOSE_DIGESTS))
def test_decompose_output_is_pinned(tmp_path, capsys, mode):
    polys = [inst.polygon for name in ("areas", "spikes4") for inst in PRESETS[name]().instances]
    polys += [inflate_cut(v, s) for v in (20, 40, 60) for s in range(3)]
    digest = hashlib.sha256()
    for i, poly in enumerate(polys):
        path = str(tmp_path / f"poly{i}.json")
        write_polygon_file(path, poly)
        for rect_seed in range(3):
            assert main(["decompose", path, "--seed", str(rect_seed)] + ["--json"] * (mode == "json")) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == DECOMPOSE_DIGESTS[mode]


def test_sweep_ids_with_csv_specials_round_trip(tmp_path, capsys):
    strip = [[0, 0], [4, 0], [4, 1], [0, 1]]
    ids = ["a,b", 'q"t', "x\ny"]
    spec = _write(tmp_path, "spec.json", _spec(
        instances=[{"id": name, "polygon": strip} for name in ids], ks=[1, 2], trials=2,
    ))
    csv_path = str(tmp_path / "out.csv")
    assert main(["sweep", "--spec", spec, "-o", csv_path]) == 0
    rows = read_csv(csv_path)
    assert [row.instance for row in rows] == [name for name in ids for _ in (1, 2)]
    assert main(["plot", csv_path, "--kind", "bar", "-o", str(tmp_path / "out.svg")]) == 0


STRIP = [[0, 0], [4, 0], [4, 2], [0, 2]]
#: A spec and a polygon file that run cleanly; the fuzz below replaces one
#: value in one of them.
FUZZ_SPEC = {
    "instances": [{"id": "strip", "polygon": STRIP, "rect_seed": 1}, {"id": "f", "file": "poly.json"}],
    "strategies": ["rs", "sfc"],
    "ks": [1, 2],
    "intruders": ["static", "walk"],
    "trials": 2,
    "base_seed": 3,
    "max_steps": 30,
}
FUZZ_POLYGON = {"vertices": STRIP, "cell_size_m": 5.0}
FUZZ_CSV = f"{','.join(CSV_COLUMNS)}\nstrip,rs,static,1,4,4,1.0000,3.0000,1.0000,0.9800,true\n"
#: Command lines that run cleanly in a folder holding the files above; the
#: fuzz below may instead replace the value of one flag in one of them.
FUZZ_ARGVS = [
    ["generate", "--vertices", "8", "--seed", "1", "-o", "out.json"],
    ["comb", "--depths", "2,1", "--spike-width", "1", "--base-height", "1", "--gap", "1", "-o", "out.json"],
    ["decompose", "poly.json", "--seed", "1"],
    ["simulate", "poly.json", "--strategy", "rs", "-k", "2", "--intruder", "walk", "--seed", "1",
     "--rect-seed", "1", "--max-steps", "30"],
    ["sweep", "--spec", "spec.json", "--trials", "2", "--base-seed", "3", "--workers", "1", "-o", "out.csv"],
    ["plot", "ok.csv", "--kind", "bar", "--title", "t", "-o", "out.svg"],
]


def _key_paths(doc, prefix=()):
    """Every key path in a JSON document, and one new key per object."""
    if isinstance(doc, dict):
        yield prefix + ("extra",)
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


#: Keys and flags whose values set how long a run takes; integers there
#: stay small. run_sweep caps --workers at the CPU count.
_CAPPED = ("trials", "ks", "max_steps")
_CAPPED_FLAGS = ("--trials", "--max-steps", "-k", "--vertices")

# Vertex loops: valid, self-intersecting, just over the vertex bound, far
# over it, and over the cell bound.
_loops = st.sampled_from([
    [[0, 0], [3, 0], [3, 3], [0, 3]],
    [[0, 0], [2, 0], [2, 2], [1, 2], [1, -1], [0, -1]],
    _staircase(250),
    _staircase(20_000),
    [[0, 0], [10**5, 0], [10**5, 10**5], [0, 10**5]],
])
_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**6, 2**64, -(2**64), 2.5, -0.0, 1e300, float("inf"), float("nan")]),
    st.text(max_size=4),
    st.lists(st.integers(-2, 6), max_size=3),
    st.sampled_from([[], {}, [[0, 0]], {"vertices": STRIP}]),
    _loops,
)
# Command-line arguments are strings and never hold a NUL.
_flag_values = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1000000", str(2**64), str(-(2**64)), "2.5", "nan", "", " 1", "x", "-", "--", "-o", "1,2"]),
    st.text(max_size=4).map(lambda text: text.replace("\0", "")),
)


def _int_above(text: str, cap: int) -> bool:
    try:
        return int(text) > cap
    except ValueError:
        return False


@st.composite
def _mutations(draw):
    """(kind, document, key path, replacement value), run time capped.

    A "flag" document is a command line of FUZZ_ARGVS, and its key path
    is the position of one flag's value.
    """
    kind = draw(st.sampled_from(["spec", "polygon", "flag"]))
    if kind == "flag":
        argv = draw(st.sampled_from(FUZZ_ARGVS))
        at = draw(st.sampled_from([i for i in range(1, len(argv)) if argv[i - 1].startswith("-")]))
        value = draw(_flag_values)
        if argv[at - 1] in _CAPPED_FLAGS and _int_above(value, 3):
            value = "3"
        return kind, argv, (at,), value
    doc = FUZZ_SPEC if kind == "spec" else FUZZ_POLYGON
    paths = list(_key_paths(doc))
    # Vertex lists are few among the key paths; draw them half the time, and
    # loops for them half of that, so the oversized loops reach the checks.
    loop_paths = [p for p in paths if p[-1] in ("vertices", "polygon")]
    path = draw(st.sampled_from(loop_paths) | st.sampled_from(paths))
    value = draw(_loops | _values if path in loop_paths else _values)
    if path[0] in _CAPPED and isinstance(value, int) and not isinstance(value, bool):
        value = min(value, 3)
    return kind, doc, path, value


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_mutations())
def test_property_one_replaced_value_exits_0_or_2_with_one_error_line(capsys, mutation):
    kind, doc, path, value = mutation
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        poly_path = _write(tmp, "poly.json", json.dumps(doc if kind == "polygon" else FUZZ_POLYGON))
        spec_path = _write(tmp, "spec.json", json.dumps(doc if kind == "spec" else FUZZ_SPEC))
        _write(tmp, "ok.csv", FUZZ_CSV)
        if kind == "spec":
            argvs = [["sweep", "--spec", spec_path, "-o", str(tmp / "out.csv")]]
        elif kind == "polygon":
            argvs = [["decompose", poly_path],
                     ["simulate", poly_path, "--strategy", "rs", "-k", "2", "--max-steps", "30"]]
        else:
            argvs = [doc]
        os.chdir(tmp)  # a replaced -o value writes inside tmp
        try:
            for argv in argvs:
                capsys.readouterr()
                code = main(argv)
                err = capsys.readouterr().err
                assert code in (0, 2)
                if code == 2:
                    lines = err.strip().splitlines()
                    assert len(lines) == 1 and lines[0].startswith("error:"), err
        finally:
            os.chdir(cwd)
