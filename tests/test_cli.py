"""End-to-end command driver tests, all in-process through main(argv)."""

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kolkit import chains, nash_g, profiles, solver, trajectories
from kolkit.cli import main
from kolkit.coefficients import make_field

from conftest import assert_same_text

BASE_GRID = {"Lx": 4.5, "Lv": 6.5, "Nx": 32, "Nv": 32}
BASE_SOLVER = {"dt": 1.0 / 32, "w0_cells": 2.0, "tail_tol": 1.0}
# json.dumps writes these as the non-standard constants NaN and Infinity
NAN, INF = float("nan"), float("inf")


def literal(text):
    """A number that write_cfg writes as the literal text, such as 1e400, which no float holds."""
    return f"<literal {text}>"


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(re.sub(r'"<literal ([^"]*)>"', r"\1", json.dumps(cfg)))
    return str(p)


def run(tmp_path, command, cfg, out="out", extra=()):
    cfg_path = write_cfg(tmp_path, cfg, name=f"{command}-{out}.json")
    outdir = tmp_path / out
    code = main([command, "--config", cfg_path, "--out", str(outdir), *extra])
    return code, outdir


def simulate_cfg(**over):
    cfg = {
        "grid": dict(BASE_GRID),
        "solver": dict(BASE_SOLVER),
        "field": {"kind": "constant", "params": {"value": 1.0}},
        "source": [0.0, 0.0, 0.0],
        "t_final": 0.5,
        "oracle_tol": 0.5,
    }
    cfg.update(over)
    return cfg


class TestSimulate:
    def test_runs_and_writes_outputs(self, tmp_path, capsys):
        code, outdir = run(tmp_path, "simulate", simulate_cfg())
        assert code == 0
        assert "ok" in capsys.readouterr().out
        assert (outdir / "kernel.npy").exists()
        assert (outdir / "kernel.json").exists()
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["command"] == "simulate"
        assert doc["passed"] is True
        assert doc["config"]["t_final"] == 0.5  # resolved config embedded
        assert doc["summary"]["oracle_l1_error"] < 0.5
        assert doc["summary"]["kernel"]["mass_drift"] < 1e-6

    def test_byte_stable_reruns(self, tmp_path):
        code1, out1 = run(tmp_path, "simulate", simulate_cfg(), out="a")
        code2, out2 = run(tmp_path, "simulate", simulate_cfg(), out="b")
        assert code1 == code2 == 0
        d1 = json.loads((out1 / "summary.json").read_text())
        d2 = json.loads((out2 / "summary.json").read_text())
        d1.pop("timestamp")
        d2.pop("timestamp")
        assert d1 == d2
        assert (out1 / "kernel.npy").read_bytes() == (out2 / "kernel.npy").read_bytes()

    def test_csv_export(self, tmp_path):
        code, outdir = run(tmp_path, "simulate", simulate_cfg(export="csv"))
        assert code == 0
        assert (outdir / "kernel.csv").exists()
        assert json.loads((outdir / "kernel.json").read_text())["format"] == "csv"

    @pytest.mark.parametrize("fmt", ["npy", "csv"])
    def test_kernel_files_hold_the_estimate(self, tmp_path, fmt):
        # kernel.npy round trips the estimate's array bit for bit, and so does
        # kernel.csv's "%.18e"; kernel.json is the estimate's sidecar plus the format
        cfg = simulate_cfg(export=fmt)
        code, outdir = run(tmp_path, "simulate", cfg)
        assert code == 0
        field = make_field("constant", {"value": 1.0})
        grid, config = solver.Grid(**cfg["grid"]), solver.SolverConfig(**cfg["solver"])
        est = solver.estimate_kernel(tuple(cfg["source"]), cfg["t_final"], field, grid, config)
        if fmt == "npy":
            back = np.load(outdir / "kernel.npy")
        else:
            back = np.loadtxt(outdir / "kernel.csv", delimiter=",")
        assert back.tobytes() == est.field.values.tobytes()
        side = json.loads((outdir / "kernel.json").read_text())
        assert side == json.loads(json.dumps({**est.sidecar(), "format": fmt}))
        assert side["format"] == fmt
        assert side["source"] == [0.0, 0.0, 0.0]
        assert side["grid"]["Nx"] == 32
        assert "mass_drift" in side and "coefficient" in side
        assert sorted(p.name for p in outdir.iterdir()) == sorted(["kernel.json", f"kernel.{fmt}", "summary.json"])

    def test_failed_assertion_exits_1(self, tmp_path, capsys):
        code, outdir = run(tmp_path, "simulate", simulate_cfg(oracle_tol=1e-9))
        assert code == 1
        assert "FAILED" in capsys.readouterr().err
        # the run still documents itself
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["passed"] is False


# values that pass their field's type and are rejected by the first run that
# takes them: record_every and a dt too small for the span by the first kernel run
CHECKED_BY_FIRST_RUN = {
    "level-set-record_every-0",
    "level-set-record_every-negative",
    "simulate-dt-subnormal",
    "simulate-t_final-huge",
    "verify-bounds-dt-subnormal",
    "g-bound-dt-subnormal",
    "level-set-dt-subnormal",
    "adjoint-dt-subnormal",
}


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["simulate", "--config", str(p)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_undecodable_bytes(self, tmp_path, capsys):
        # not UTF-8; a one-byte locale encoding reads them, and then they are not JSON
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe{")
        assert main(["simulate", "--config", str(p)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_config(self, tmp_path, capsys):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        assert main(["simulate", "--config", str(p)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_missing_field_is_named(self, tmp_path, capsys):
        cfg = simulate_cfg()
        del cfg["grid"]
        code, _ = run(tmp_path, "simulate", cfg)
        assert code == 2
        assert "'grid'" in capsys.readouterr().err

    def test_missing_nested_field_is_named(self, tmp_path, capsys):
        cfg = simulate_cfg()
        del cfg["grid"]["Nx"]
        code, _ = run(tmp_path, "simulate", cfg)
        assert code == 2
        assert "'Nx'" in capsys.readouterr().err

    def test_wrong_type_is_named(self, tmp_path, capsys):
        cfg = simulate_cfg()
        cfg["grid"]["Nx"] = "many"
        code, _ = run(tmp_path, "simulate", cfg)
        assert code == 2
        assert "'Nx'" in capsys.readouterr().err

    def test_cfl_violation_is_config_error(self, tmp_path, capsys):
        cfg = simulate_cfg()
        cfg["solver"]["dt"] = 0.25  # far over dx/Lv for this grid
        code, _ = run(tmp_path, "simulate", cfg)
        assert code == 2
        assert "CFL" in capsys.readouterr().err

    def test_unknown_field_kind(self, tmp_path, capsys):
        cfg = simulate_cfg(field={"kind": "perlin"})
        code, _ = run(tmp_path, "simulate", cfg)
        assert code == 2
        assert "field" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["level-set", "g-bound"])
    def test_box_smaller_than_weight_is_config_error(self, tmp_path, capsys, monkeypatch, command):
        # a 3 x 3 box cannot hold the weight ball of radius 4 (nash_g.DomainError),
        # and the command says so before it runs any member's kernel
        def no_kernel(*args, **kwargs):
            raise AssertionError("estimate_kernel ran before the weight was checked")

        monkeypatch.setattr(solver, "estimate_kernel", no_kernel)
        cfg = {
            "grid": {"Lx": 1.5, "Lv": 1.5, "Nx": 64, "Nv": 64},
            "solver": {"dt": 1.0 / 32, "w0_cells": 2.0, "tail_tol": 1.0},
            "ensemble": [{"kind": "constant", "params": {"value": 1.0}}],
            "weight_radius": 4.0,
        }
        code, outdir = run(tmp_path, command, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "radius 4.0" in err
        assert not (outdir / "summary.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "level-set"])
    def test_step_count_over_the_cap_is_config_error(self, tmp_path, capsys, monkeypatch, command):
        # 16 and 32 steps against a cap of 8; at the real cap, dt 1e-300 would take 5e299 steps
        # (simulate ran without end, and level-set's record marks raised MemoryError)
        monkeypatch.setattr(solver, "_MAX_STEPS", 8)
        cfg = simulate_cfg()
        if command == "level-set":
            cfg = {"grid": cfg["grid"], "solver": cfg["solver"], "ensemble": [cfg["field"]]}
        code, outdir = run(tmp_path, command, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "dt=0.03125" in err and "more than 8 steps" in err
        assert not (outdir / "summary.json").exists()

    @pytest.mark.parametrize(
        "command, cfg, named",
        [
            ("g-bound", {"weight_radius": 2.0}, "weight_radius"),
            ("level-set", {"weight_radius": 2.0}, "weight_radius"),
            ("chain", {"Xbar": [0.0], "Vbar": [1.0], "rho0": 2.0}, "rho0"),
            ("trajectories", {"family": "straight", "r_points": 32}, "r_points"),
            ("trajectories", {"family": "straight", "r_min": 2.0}, "r_min"),
            ("trajectories", {"family": "straight", "r_points": 64, "r_min": 0.009}, "r_min"),
            ("level-set", {"record_every": 0}, "record_every"),
            ("level-set", {"record_every": -3}, "record_every"),
            ("chain", {"Xbar": [0.0], "Vbar": [1.0], "samples_per_step": "many"}, "samples_per_step"),
            ("chain", {"Xbar": [0.0], "Vbar": [1.0], "samples_per_step": -5}, "samples_per_step"),
            ("chain", {"Xbar": [0.0], "Vbar": [1.0], "samples_per_step": 8}, "'samples_per_step' must be 0"),
            ("chain", {"Xbar": [0.0], "Vbar": [1.0], "samples_per_step": True}, "samples_per_step"),
            ("trajectories", {"family": "straight", "T": "one"}, "'T'"),
            ("trajectories", {"family": "straight", "d": "two"}, "'d'"),
            ("trajectories", {"family": "straight", "d": 0}, "'d' must be 1"),
            ("trajectories", {"family": "straight", "d": 2}, "'d' must be 1"),
            ("trajectories", {"family": "straight", "d": True}, "'d'"),
            ("simulate", {"mass_drift_tol": "tight"}, "'mass_drift_tol'"),
            ("simulate", {"oracle_tol": "loose"}, "'oracle_tol'"),
            ("simulate", {"oracle_tol": True}, "'oracle_tol'"),
            ("simulate", {"export": "xlsx"}, "'export'"),
            ("simulate", {"export": 1}, "'export'"),
            ("verify-bounds", {"d": "two"}, "'d'"),
            ("verify-bounds", {"d": True}, "'d'"),
            ("verify-bounds", {"d": 2}, "'d' must be 1"),
            ("verify-bounds", {"E_max": "big"}, "'E_max'"),
            ("verify-bounds", {"sample_stride": "8"}, "'sample_stride'"),
            ("verify-bounds", {"sample_stride": 0}, "'sample_stride'"),
            ("adjoint", {"t0": "one"}, "'t0'"),
            ("adjoint", {"t1": False}, "'t1'"),
            ("adjoint", {"tolerance": "tight"}, "'tolerance'"),
            ("simulate", {"solver": {**BASE_SOLVER, "transport_order": "3"}}, "'transport_order'"),
            ("simulate", {"solver": {**BASE_SOLVER, "w0_cells": "2"}}, "'w0_cells'"),
            ("simulate", {"solver": {**BASE_SOLVER, "tail_tol": None}}, "'tail_tol'"),
            ("g-bound", {"floor_delta_tol": "1e-3"}, "'floor_delta_tol'"),
            ("g-bound", {"floor": "tiny"}, "'floor'"),
            ("g-bound", {"source_seed": 1.5}, "'source_seed'"),
            ("level-set", {"floor": True}, "'floor'"),
            ("level-set", {"record_every": "8"}, "'record_every'"),
            ("g-bound", {"weight_radius": None}, "'weight_radius'"),
            ("g-bound", {"ensemble": [{"kind": "constant", "seed": None}]}, "'seed'"),
            ("g-bound", {"ensemble": [{"kind": "constant", "params": [1]}]}, "'params'"),
            ("simulate", {"source": [0, "a", 0]}, "'source[1]'"),
            ("simulate", {"source": [0.0, 0.0]}, "'source'"),
            ("verify-bounds", {"taus": [None]}, "'taus[0]'"),
            ("level-set", {"E": "abc"}, "'E'"),
            ("level-set", {"E": [[-2.0, 2.0]]}, "'E'"),
            ("adjoint", {"points": [[0.3, "x"]]}, "'points[0][1]'"),
            ("adjoint", {"eval_point": 5}, "'eval_point'"),
            ("chain", {"Xbar": [0.0], "Vbar": [1.0], "rho0": None}, "'rho0'"),
            ("trajectories", {"family": "log-oscillatory", "beta": None}, "'beta'"),
            ("trajectories", {"family": "straight", "require_flags": [[1]]}, "'require_flags[0]'"),
            ("trajectories", {"family": "straight", "require_flags": ["endpoints", "nonsense"]}, "'nonsense'"),
            ("trajectories", {"family": "straight", "r_points": 100.7}, "'r_points'"),
            ("g-bound", {"ensemble": {"kind": "constant", "seeds": [1.5]}}, "'seeds[0]'"),
            ("g-bound", {"ensemble": [{"kind": "constant", "params": {"value": None}}]}, "'value'"),
            ("g-bound", {"ensemble": [{"kind": "checkerboard", "params": {"cells": 0.5}}]}, "'cells'"),
            ("g-bound", {"ensemble": []}, "'ensemble'"),
            ("level-set", {"ensemble": {"kind": "constant", "seeds": []}}, "'seeds'"),
            ("adjoint", {"points": []}, "'points'"),
            ("g-bound", {"source_seed": -1}, "'source_seed'"),
            ("simulate", {"t_final": 10**400}, "'t_final'"),
            ("chain", {"Xbar": [0.5], "Vbar": [0.5], "c0": literal("1e400")}, "1e400 is out of the float range"),
            ("level-set", {"E": [[literal("-1e400"), 2], [-2, 2]]}, "-1e400 is out of the float range"),
            ("chain", {"Xbar": [literal("1e400")], "Vbar": [0.5]}, "1e400 is out of the float range"),
            ("trajectories", {"family": "log-oscillatory", "beta": literal("1e400")}, "1e400 is out of the"),
            ("trajectories", {"family": "straight", "T": literal("1e400")}, "1e400 is out of the float range"),
            ("g-bound", {"floor": literal("1e400")}, "1e400 is out of the float range"),
            ("g-bound", {"weight_radius": -5}, "weight_radius: truncation radius must be positive"),
            ("verify-bounds", {"taus": [0.5, -(10**400)]}, "'taus[1]'"),
            ("simulate", {"solver": {**BASE_SOLVER, "dt": NAN}}, "NaN is not a JSON number"),
            ("simulate", {"t_final": NAN}, "NaN is not a JSON number"),
            ("simulate", {"grid": {**BASE_GRID, "Lx": NAN}}, "NaN is not a JSON number"),
            ("simulate", {"grid": {**BASE_GRID, "Lx": INF}}, "Infinity is not a JSON number"),
            ("simulate", {"source": [0, NAN, 0]}, "NaN is not a JSON number"),
            ("simulate", {"solver": {**BASE_SOLVER, "w0_cells": NAN}}, "NaN is not a JSON number"),
            ("simulate", {"field": {"kind": "constant", "params": {"value": NAN}}}, "NaN is not"),
            ("verify-bounds", {"taus": [0.5, -INF]}, "-Infinity is not a JSON number"),
            ("g-bound", {"floor": 0}, "'floor'"),
            ("level-set", {"floor": 0.0}, "'floor'"),
            ("level-set", {"floor": -1e-30}, "'floor'"),
            ("level-set", {"E": [[2.0, -2.0], [-2.0, 2.0]]}, "box E must have lo < hi"),
            ("level-set", {"E": [[-2.0, 2.0], [1.0, 1.0]]}, "box E must have lo < hi"),
            ("level-set", {"E": [[40.0, 50.0], [-2.0, 2.0]]}, "holds no cell centre"),
            ("simulate", {"field": {"kind": "constant", "d": 0}}, "field: config field 'd' must be 1"),
            ("simulate", {"field": {"kind": "constant", "d": 2}}, "field: config field 'd' must be 1"),
            ("verify-bounds", {"field": {"kind": "constant", "d": 2}}, "field: config field 'd' must be 1"),
            ("adjoint", {"field": {"kind": "constant", "d": 2}}, "field: config field 'd' must be 1"),
            ("g-bound", {"ensemble": [{"kind": "constant"}, {"kind": "constant", "d": 2}]}, "ensemble[1]: config"),
            ("level-set", {"ensemble": {"kind": "constant", "seeds": [1, 2], "d": 3}}, "ensemble(seed=1): config"),
            ("simulate", {"solver": {**BASE_SOLVER, "dt": 5e-324}}, "dt=5e-324"),
            ("simulate", {"t_final": 1e308}, "time span 1e+308"),
            ("verify-bounds", {"solver": {**BASE_SOLVER, "dt": 5e-324}}, "dt=5e-324"),
            ("g-bound", {"solver": {**BASE_SOLVER, "dt": 5e-324}}, "dt=5e-324"),
            ("level-set", {"solver": {**BASE_SOLVER, "dt": 5e-324}}, "dt=5e-324"),
            ("adjoint", {"solver": {**BASE_SOLVER, "dt": 5e-324}}, "dt=5e-324"),
            ("chain", {"Xbar": [0.0], "Vbar": [1.0], "rho0": 5e-324}, "rho0"),
            ("chain", {"Xbar": [0.0], "Vbar": [1.0], "rho0": 1e-300}, "rho0"),
            ("g-bound", {"weight_radius": 1e300}, "weight ball of radius 1e+300"),
            ("simulate", {"grid": {**BASE_GRID, "Lv": 1e-300}}, "grid: cell width dv="),
            ("simulate", {"grid": {**BASE_GRID, "Lx": 1e300}}, "grid: cell width dx="),
            ("trajectories", {"family": "straight", "T": 5e-324}, "T=5e-324"),
            ("trajectories", {"family": "log-oscillatory", "beta": 5e-324}, "beta=5e-324"),
            ("trajectories", {"family": "straight", "r_min": 1e-320}, "r_min"),
            ("level-set", {"ensemble": {"kind": "random-piecewise", "params": {"cells": [5e-324, 0.5, 0.5]},
                                        "seeds": [1]}}, "ensemble(seed=1): cells (5e-324"),
            ("g-bound", {"ensemble": [{"kind": "checkerboard", "params": {"origin": [1e308, 0.0, 0.0]}}]},
             "ensemble[0]: cells (0.25, 0.25, 0.25) and origin (1e+308"),
        ],
        ids=[
            "g-bound",
            "level-set",
            "chain",
            "trajectories-r_points",
            "trajectories-r_min",
            "trajectories-fit-range",
            "level-set-record_every-0",
            "level-set-record_every-negative",
            "chain-samples_per_step-string",
            "chain-samples_per_step-negative",
            "chain-samples_per_step-nonzero",
            "chain-samples_per_step-bool",
            "trajectories-T-string",
            "trajectories-d-string",
            "trajectories-d-0",
            "trajectories-d-2",
            "trajectories-d-bool",
            "simulate-mass_drift_tol-string",
            "simulate-oracle_tol-string",
            "simulate-oracle_tol-bool",
            "simulate-export-xlsx",
            "simulate-export-number",
            "verify-bounds-d-string",
            "verify-bounds-d-bool",
            "verify-bounds-d-2",
            "verify-bounds-E_max-string",
            "verify-bounds-sample_stride-string",
            "verify-bounds-sample_stride-0",
            "adjoint-t0-string",
            "adjoint-t1-bool",
            "adjoint-tolerance-string",
            "simulate-transport_order-string",
            "simulate-w0_cells-string",
            "simulate-tail_tol-null",
            "g-bound-floor_delta_tol-string",
            "g-bound-floor-string",
            "g-bound-source_seed-float",
            "level-set-floor-bool",
            "level-set-record_every-string",
            "g-bound-weight_radius-null",
            "g-bound-seed-null",
            "g-bound-params-list",
            "simulate-source-string",
            "simulate-source-length",
            "verify-bounds-taus-null",
            "level-set-E-string",
            "level-set-E-shape",
            "adjoint-points-string",
            "adjoint-eval_point-number",
            "chain-rho0-null",
            "trajectories-beta-null",
            "trajectories-require_flags-nested",
            "trajectories-require_flags-unknown",
            "trajectories-r_points-float",
            "g-bound-seeds-float",
            "g-bound-field-value-null",
            "g-bound-field-cells-number",
            "g-bound-ensemble-empty",
            "level-set-seeds-empty",
            "adjoint-points-empty",
            "g-bound-source_seed-negative",
            "simulate-t_final-overflow",
            "chain-c0-overflow",
            "level-set-E-overflow",
            "chain-Xbar-overflow",
            "trajectories-beta-overflow",
            "trajectories-T-overflow",
            "g-bound-floor-overflow",
            "g-bound-weight_radius-negative",
            "verify-bounds-taus-overflow",
            "simulate-dt-nan",
            "simulate-t_final-nan",
            "simulate-Lx-nan",
            "simulate-Lx-infinity",
            "simulate-source-nan",
            "simulate-w0_cells-nan",
            "simulate-params-value-nan",
            "verify-bounds-taus-minus-infinity",
            "g-bound-floor-zero",
            "level-set-floor-zero",
            "level-set-floor-negative",
            "level-set-E-reversed",
            "level-set-E-flat",
            "level-set-E-no-cell",
            "simulate-field-d-0",
            "simulate-field-d-2",
            "verify-bounds-field-d-2",
            "adjoint-field-d-2",
            "g-bound-ensemble-entry-d-2",
            "level-set-ensemble-base-d-3",
            "simulate-dt-subnormal",
            "simulate-t_final-huge",
            "verify-bounds-dt-subnormal",
            "g-bound-dt-subnormal",
            "level-set-dt-subnormal",
            "adjoint-dt-subnormal",
            "chain-rho0-subnormal",
            "chain-rho0-underflowing-square",
            "g-bound-weight_radius-huge",
            "simulate-Lv-underflowing-square",
            "simulate-Lx-overflowing-square",
            "trajectories-T-subnormal",
            "trajectories-beta-subnormal",
            "trajectories-r_min-subnormal",
            "level-set-cells-subnormal",
            "g-bound-origin-huge",
        ],
    )
    def test_out_of_range_value_is_config_error(
        self, tmp_path, capsys, monkeypatch, request, command, cfg, named
    ):
        # each value is rejected by its config field's type, or by a library
        # constructor with a ValueError; every field is read before any kernel
        # runs, a chain is built or a trajectory family is checked
        def no_solver(*args, **kwargs):
            raise AssertionError("the solver ran before the config was checked")

        if request.node.callspec.id not in CHECKED_BY_FIRST_RUN:
            monkeypatch.setattr(solver, "estimate_kernel", no_solver)
            monkeypatch.setattr(nash_g, "adjoint_kernel_residual", no_solver)
            monkeypatch.setattr(chains, "build_chain", no_solver)
            monkeypatch.setattr(trajectories, "check_properties", no_solver)
        if command in ("simulate", "verify-bounds", "adjoint"):
            cfg = {**simulate_cfg(), "taus": [0.5], "points": [[0.3, -0.4]], **cfg}
        if command in ("g-bound", "level-set"):
            cfg = {
                "grid": dict(BASE_GRID),
                "solver": dict(BASE_SOLVER),
                "ensemble": [{"kind": "constant", "params": {"value": 1.0}}],
                **cfg,
            }
        code, outdir = run(tmp_path, command, cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        # no summary.json, kernel, chain.json or trajectory report
        assert not list(outdir.glob("*"))


class TestNumericalErrors:
    def check_numerical_error(self, outdir, capsys, code, kind, message):
        assert code == 3
        assert "numerical error:" in capsys.readouterr().err
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["passed"] is False
        assert doc["error"] == {"type": kind, "message": message}
        # the summary was renamed into place; no temporary file is left beside it
        assert not [p.name for p in outdir.iterdir() if p.name.endswith(".tmp")]

    def test_solver_error_exits_3_with_summary(self, tmp_path, capsys, monkeypatch):
        def failing_kernel(*args, **kwargs):
            raise solver.SolverError("non-finite values after step at t=0.25")

        monkeypatch.setattr(solver, "estimate_kernel", failing_kernel)
        code, outdir = run(tmp_path, "simulate", simulate_cfg())
        self.check_numerical_error(
            outdir, capsys, code, "SolverError", "non-finite values after step at t=0.25"
        )

    def test_fit_error_exits_3_with_summary(self, tmp_path, capsys, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise profiles.FitError("degenerate design")

        monkeypatch.setattr(profiles, "fit_envelope", failing_fit)
        cfg = {
            "grid": dict(BASE_GRID),
            "solver": dict(BASE_SOLVER),
            "field": {"kind": "constant", "params": {"value": 1.0}},
            "taus": [0.5],
            "sample_stride": 1,
        }
        code, outdir = run(tmp_path, "verify-bounds", cfg)
        self.check_numerical_error(outdir, capsys, code, "FitError", "degenerate design")


# one config per command that exits 0, with every numeric field it reads written out, on a
# grid of 32^2 that the fuzz runs in a few milliseconds a command
FUZZ_FIELD = {"values_range": [0.5, 2.0], "cells": [0.25, 0.5, 0.5], "origin": [0.0, 0.0, 0.0]}
FUZZ_CONFIGS = {
    "simulate": {
        **simulate_cfg(mass_drift_tol=1e-6),
        "solver": {**BASE_SOLVER, "transport_order": 3},
        "field": {"kind": "constant", "params": {"value": 1.0}, "seed": 0, "d": 1},
    },
    "verify-bounds": {
        "grid": BASE_GRID, "solver": BASE_SOLVER, "taus": [0.5, 1.0], "d": 1, "E_max": 8.0, "sample_stride": 1,
        "field": {"kind": "oscillatory", "params": {"base": 1.0, "amplitude": 0.5, "freq_x": 1.0,
                                                    "freq_v": 1.0, "freq_t": 1.0}},
    },
    "g-bound": {
        "grid": BASE_GRID, "solver": BASE_SOLVER, "floor": 1e-30, "floor_delta_tol": 1e-3,
        "weight_radius": 4.0, "source_seed": 0,
        "ensemble": [{"kind": "checkerboard", "params": {"values": [0.5, 2.0], "cells": [0.25, 0.5, 0.5],
                                                         "origin": [0.0, 0.0, 0.0]}, "seed": 1}],
    },
    "level-set": {
        "grid": BASE_GRID, "solver": BASE_SOLVER, "floor": 1e-30, "weight_radius": 4.0,
        "E": [[-2.0, 2.0], [-2.0, 2.0]], "record_every": 4,
        "ensemble": {"kind": "random-piecewise", "params": FUZZ_FIELD, "seeds": [1, 2]},
    },
    "chain": {"Xbar": [1.0], "Vbar": [0.5], "k0": 4096.0, "samples_per_step": 0, "rho0": 0.25, "c0": 0.05},
    "trajectories": {"family": "log-oscillatory", "T": 1.0, "beta": 2.0, "kappa": 1.0, "r_points": 64,
                     "r_min": 1e-3, "d": 1},
    "adjoint": {
        "grid": BASE_GRID, "solver": {**BASE_SOLVER, "transport_order": 1}, "points": [[0.3, -0.4]],
        "eval_point": [0.0, 0.0], "t0": 1.0, "t1": 2.0, "tolerance": 0.05,
        "field": {"kind": "random-piecewise", "params": FUZZ_FIELD, "seed": 3},
    },
}


def numeric_paths(cfg, path=()):
    """The path of every number in cfg, through its objects and lists."""
    if isinstance(cfg, (dict, list)):
        items = cfg.items() if isinstance(cfg, dict) else enumerate(cfg)
        return [p for k, v in items for p in numeric_paths(v, (*path, k))]
    return [path] if isinstance(cfg, (int, float)) and not isinstance(cfg, bool) else []


class TestConfigFuzz:
    @pytest.mark.parametrize("command", sorted(FUZZ_CONFIGS))
    def test_unfuzzed_configs_pass(self, tmp_path, command):
        assert run(tmp_path, command, FUZZ_CONFIGS[command])[0] == 0

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_cell_index_beyond_int64_is_config_error(self, tmp_path, capsys, axis):
        # a cell of 1e-300 passes the float-range check, but a point of order 1 lies in cell ~1e300,
        # which no int64 holds: a silent cast would make the whole field one cell
        cfg = json.loads(json.dumps(FUZZ_CONFIGS["level-set"]))
        cfg["ensemble"]["params"]["cells"][axis] = 1e-300
        code, outdir = run(tmp_path, "level-set", cfg)
        assert code == 2
        assert "cells (" in capsys.readouterr().err
        assert not (outdir / "summary.json").exists()

    @settings(max_examples=120, deadline=None)
    @given(
        case=st.sampled_from([(c, p) for c, cfg in FUZZ_CONFIGS.items() for p in numeric_paths(cfg)]),
        value=st.one_of(
            st.sampled_from([0, -0.0, -1, 5e-324, 1e-300, 1e300, -1e300, 1e308]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    )
    def test_numeric_fields_keep_the_exit_code_contract(self, tmp_path_factory, case, value):
        # any number in any numeric field exits 0-3 without a traceback, writes no summary on a
        # config error and writes only standard JSON; the smaller step cap keeps each run short
        command, path = case
        cfg = json.loads(json.dumps(FUZZ_CONFIGS[command]))
        node = cfg
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
        tmp = tmp_path_factory.mktemp("fuzz")
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
            mp.setattr(solver, "_MAX_STEPS", 64)
            code, outdir = run(tmp, command, cfg)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert code != 2 or not (outdir / "summary.json").exists()

        def no_constant(name):
            raise ValueError(f"non-standard JSON constant {name}")

        for doc in outdir.glob("*.json"):
            json.loads(doc.read_text(), parse_constant=no_constant)


class TestChainCommand:
    def test_reachable_target(self, tmp_path):
        cfg = {"Xbar": [0.0], "Vbar": [1.0], "k0": 16}
        code, outdir = run(tmp_path, "chain", cfg)
        assert code == 0
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["summary"]["k"] == 1021
        assert doc["summary"]["perturbation_check"] is True
        assert doc["summary"]["log_lower_bound"] < 0
        text = (outdir / "chain.json").read_text()
        assert len(json.loads(text)["centres"]["x"]) == 1022
        want = chains.build_chain([0.0], [1.0], chains.NearDiagonalParams(), k0=16.0)
        assert_same_text(text, json.dumps(want.to_dict(), sort_keys=True, indent=1))

    def test_failed_write_leaves_no_torn_chain_json(self, tmp_path, monkeypatch):
        # chain.json is written in pieces to a temporary file that is renamed
        # into place, so a write that raises after its first piece leaves the
        # previous chain.json, or none, and no temporary file
        code, outdir = run(tmp_path, "chain", {"Xbar": [0.0], "Vbar": [1.0], "k0": 16}, out="old")
        assert code == 0
        old = (outdir / "chain.json").read_bytes()
        pieces = chains.ChainSpec._json_chunks

        def torn(self, **kw):
            chunks = pieces(self, **kw)
            yield next(chunks)
            raise OSError("no space left on device")

        monkeypatch.setattr(chains.ChainSpec, "_json_chunks", torn)
        for out in ("old", "new"):
            with pytest.raises(OSError, match="no space"):
                run(tmp_path, "chain", {"Xbar": [0.0], "Vbar": [0.9], "k0": 16}, out=out)
        assert sorted(p.name for p in outdir.iterdir()) == ["chain.json", "summary.json"]
        assert (outdir / "chain.json").read_bytes() == old
        assert not list((tmp_path / "new").glob("*"))

    def test_two_dimensional_target_passes(self, tmp_path):
        # the default tube radius rho0 / (4 sqrt(d)) leaves the screen its slack in d = 2
        code, outdir = run(tmp_path, "chain", {"Xbar": [1.0, 0.5], "Vbar": [2.0, 0.1]})
        assert code == 0
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["summary"]["perturbation_check"] is True
        assert doc["summary"]["eta"] == 0.25 / (4.0 * np.sqrt(2.0))

    def test_target_whose_start_count_overflows(self, tmp_path, capsys):
        # |Xbar|^2 = 1e600 is beyond the float range, so the start count k0 |target|^2 is inf
        code, outdir = run(tmp_path, "chain", {"Xbar": [1e300], "Vbar": [0.5]})
        assert code == 2
        assert "chain target: start count" in capsys.readouterr().err
        assert not list(outdir.glob("*"))

    def test_unreachable_target(self, tmp_path, capsys):
        cfg = {"Xbar": [0.0], "Vbar": [40.0], "k0": 1}
        code, _ = run(tmp_path, "chain", cfg)
        assert code == 2
        assert "chain target" in capsys.readouterr().err


class TestTrajectoriesCommand:
    def test_straight_family_passes_required_flags(self, tmp_path):
        cfg = {
            "family": "straight",
            "r_points": 256,
            "require_flags": ["endpoints", "kinetic_relation", "kinetic_relation_integral"],
        }
        code, outdir = run(tmp_path, "trajectories", cfg)
        assert code == 0
        report = json.loads((outdir / "property_report.json").read_text())
        assert report["family"] == "straight"
        assert set(report["pass_flags"]) == set(trajectories.PASS_FLAGS)
        assert all(report["pass_flags"][f] for f in cfg["require_flags"])
        curves = (outdir / "exponent_curves.csv").read_text().splitlines()
        assert curves[0] == "r,det_A,inv_velocity_column_norm"
        assert len(curves) == 1 + cfg["r_points"]

    def test_failed_write_leaves_the_earlier_curves(self, tmp_path, monkeypatch):
        # each artifact is written to a temporary file renamed into place, so a
        # table write that raises part way through a row, in a second run into
        # the same --out, leaves the first run's file and no temporary file
        cfg = {"family": "straight", "r_points": 256}
        code, outdir = run(tmp_path, "trajectories", cfg)
        assert code == 0
        old = (outdir / "exponent_curves.csv").read_bytes()

        def torn(fh, *args, **kwargs):
            fh.write("1.000000000000000000e-06,3.9")
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savetxt", torn)
        with pytest.raises(OSError, match="no space"):
            run(tmp_path, "trajectories", {**cfg, "family": "log-oscillatory"})
        assert (outdir / "exponent_curves.csv").read_bytes() == old
        assert not list(outdir.glob(".*.tmp"))

    def test_documented_rate_failure_exits_1(self, tmp_path):
        cfg = {"family": "straight", "r_points": 256, "require_flags": ["det_A_rate"]}
        code, _ = run(tmp_path, "trajectories", cfg)
        assert code == 1

    def test_unknown_flag_is_config_error(self, tmp_path, capsys):
        cfg = {"family": "straight", "r_points": 256, "require_flags": ["nonsense"]}
        code, _ = run(tmp_path, "trajectories", cfg)
        assert code == 2
        assert "nonsense" in capsys.readouterr().err

    def test_unknown_family(self, tmp_path, capsys):
        code, _ = run(tmp_path, "trajectories", {"family": "bezier"})
        assert code == 2
        assert "family" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, want, nulls",
        [
            ({"family": "log-oscillatory", "kappa": 1e300}, 1, ["det_A_exponent", "B_det_near_zero"]),
        ],
        ids=["kappa-huge"],
    )
    def test_non_finite_values_are_written_as_null(self, tmp_path, cfg, want, nulls):
        # RFC 8259 has no NaN or Infinity token, so a strict reader must load both files
        def no_constant(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        code, outdir = run(tmp_path, "trajectories", cfg)
        assert code == want
        report = json.loads((outdir / "property_report.json").read_text(), parse_constant=no_constant)
        summary = json.loads((outdir / "summary.json").read_text(), parse_constant=no_constant)
        assert summary["summary"]["report"] == report
        assert all(report[k] is None for k in nulls)


class TestAdjointCommand:
    def test_upwind_duality_through_cli(self, tmp_path):
        cfg = {
            "grid": dict(BASE_GRID),
            "solver": {**BASE_SOLVER, "transport_order": 1},
            "field": {
                "kind": "checkerboard",
                "params": {"values": [0.5, 2.0], "cells": [0.25, 0.25, 0.25]},
                "seed": 3,
            },
            "points": [[0.3, -0.4]],
            "tolerance": 1e-10,
        }
        code, outdir = run(tmp_path, "adjoint", cfg)
        assert code == 0
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["summary"]["residual"] < 1e-10
        header = (outdir / "adjoint_points.csv").read_text().splitlines()[0]
        assert header == "y,w,forward,adjoint,relative_error"


class TestEnsembleCommands:
    def test_g_bound(self, tmp_path):
        cfg = {
            "grid": dict(BASE_GRID),
            "solver": dict(BASE_SOLVER),
            "ensemble": {
                "kind": "random-piecewise",
                "params": {"values_range": [0.5, 2.0], "cells": [0.25, 0.25, 0.25]},
                "seeds": [1, 2],
            },
            "source_seed": 88,
        }
        code, outdir = run(tmp_path, "g-bound", cfg)
        assert code == 0
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["summary"]["C_emp"] == -doc["summary"]["min_G1"]
        assert len(doc["summary"]["per_field"]) == 2
        assert doc["summary"]["max_floor_delta"] <= 1e-3
        assert (outdir / "g_values.csv").read_text().startswith("seed,G1,floor_delta")

    def test_level_set(self, tmp_path):
        cfg = {
            "grid": dict(BASE_GRID),
            "solver": dict(BASE_SOLVER),
            "ensemble": [
                {
                    "kind": "checkerboard",
                    "params": {"values": [0.5, 2.0], "cells": [0.25, 0.25, 0.25]},
                    "seed": 7,
                }
            ],
            "record_every": 8,
        }
        code, outdir = run(tmp_path, "level-set", cfg)
        assert code == 0
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["summary"]["max_statistic"] == self.library_level_set_statistic(cfg)
        curve = (outdir / "level_set_curve.csv").read_text().splitlines()
        assert curve[0] == "s,measure,s_times_measure"
        assert len(curve) == 1 + nash_g.default_s_grid().size

    @staticmethod
    def library_level_set_statistic(cfg):
        # the same statistic on states from a plain step loop, so a history
        # row that evolve leaves unwritten shows as a different number
        grid = solver.Grid(**cfg["grid"])
        config = solver.SolverConfig(**cfg["solver"])
        (desc,) = cfg["ensemble"]
        field = make_field(desc["kind"], params=desc["params"], seed=desc["seed"])
        w0 = (config.w0_cells * grid.dx, config.w0_cells * grid.dv)
        states = [solver.init_delta((0.0, 0.0), w0, grid)]
        for _ in range(round(1.0 / config.dt)):
            states.append(solver.step(states[-1], field, config, stepper=None))
        kept = states[:: cfg["record_every"]]
        history = solver.SpaceTimeField.from_snapshots(
            [s.values for s in kept], [s.t for s in kept], grid
        )
        weight = nash_g.GWeight(R=4.0)
        c = nash_g.log_mean_c(states[-1], weight, 1e-30)
        rep = nash_g.level_set_statistic(history, c, E=[[-2.0, 2.0], [-2.0, 2.0]], floor=1e-30)
        return rep.statistic

    def test_verify_bounds(self, tmp_path):
        cfg = {
            "grid": {"Lx": 4.5, "Lv": 7.0, "Nx": 64, "Nv": 64},
            "solver": {"dt": 1.0 / 64, "w0_cells": 2.0, "tail_tol": 1.0},
            "field": {"kind": "constant", "params": {"value": 1.0}},
            "taus": [0.5, 1.0],
            "sample_stride": 8,
        }
        code, outdir = run(tmp_path, "verify-bounds", cfg)
        assert code == 0
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["summary"]["bracket_violations"] == 0
        assert doc["summary"]["samples"] >= 8
        csv = (outdir / "envelope_samples.csv").read_text().splitlines()
        assert csv[0] == "tau,X,V,E,value,lower,upper"
