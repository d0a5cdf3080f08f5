"""Batch driver: one JSON config in, JSON/CSV reports out.

Commands: simulate | verify-bounds | g-bound | level-set | chain |
trajectories | adjoint.  Exit codes: 0 = ran and all requested assertions
passed, 1 = ran but a verification assertion failed, 2 = config error
(the diagnostic names the offending field), including an out-of-range
value, a number beyond the float range, the non-standard JSON constants
NaN and +-Infinity, and a config that puts a functional outside its
domain (nash_g.DomainError), 3 = numerical failure (solver.SolverError,
profiles.FitError), whose summary records the error.  Every summary embeds
the resolved config; with fixed seeds the summary is byte-stable apart from
the timestamp field.  This is kolkit's only module that writes files: every
artifact goes to a temporary file that is renamed into place (_replacing),
so none is ever left torn.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import chains, nash_g, profiles, solver, trajectories
from .coefficients import make_field
from .phase_geometry import NormalizedGap

__all__ = ["main", "ConfigFileError"]


class ConfigFileError(Exception):
    """Config is malformed; message names the field."""


# the Python types and JSON name of each kind; true/false, which isinstance counts as ints, match none
_TYPES = {float: (int, float), int: int, str: str, dict: dict, list: list}
_NAMES = {float: "number", int: "integer", str: "string", dict: "object", list: "list"}


def _typed(value, kind, name):
    """value checked against kind and returned, a float kind as a float.  A kind
    is a key of _TYPES; [k1, ..., kn], a list of exactly those kinds; [k, ...],
    a list of any length; or a tuple of kinds, the first whose JSON type fits."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    outer = [list if isinstance(k, list) else k for k in kinds]
    fits = [k for k, o in zip(kinds, outer) if isinstance(value, _TYPES[o]) and not isinstance(value, bool)]
    if not fits:
        got = _NAMES[type(value)] if isinstance(value, (list, dict)) else json.dumps(value)
        raise ConfigFileError(f"config field '{name}' must be {' or '.join(map(_NAMES.get, outer))}, got {got}")
    if isinstance(fits[0], list):
        kinds = fits[0][:1] * len(value) if fits[0][-1] is ... else fits[0]
        if len(kinds) != len(value):
            raise ConfigFileError(f"config field '{name}' must have {len(kinds)} entries, got {len(value)}")
        return [_typed(v, k, f"{name}[{i}]") for i, (v, k) in enumerate(zip(value, kinds))]
    if fits[0] is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ConfigFileError(f"config field '{name}' is out of the float range") from None


def _get(cfg, path, kind, default=...):
    """cfg[path] read as kind (see _typed); a field without a default is required."""
    if path not in cfg:
        if default is ...:
            raise ConfigFileError(f"missing required config field '{path}'")
        return default
    return _typed(cfg[path], kind, path)


def _nonempty(value, name):
    """value, a list the command needs at least one entry of."""
    if not value:
        raise ConfigFileError(f"config field '{name}' must not be empty")
    return value


@contextmanager
def _replacing(path, mode="w"):
    """A file open for writing (mode "w" or "wb") that replaces path when the
    block ends without an error, so a reader finds the previous file or the
    whole new one, never a torn one; on an error it is removed and path is left as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _null_if_not_finite(doc):
    """doc with each NaN or +-inf float replaced by None: RFC 8259 JSON has no token for them."""
    if isinstance(doc, dict):
        return {k: _null_if_not_finite(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_null_if_not_finite(v) for v in doc]
    if isinstance(doc, float) and not abs(doc) < np.inf:
        return None
    return doc


def _write_json(path, doc):
    with _replacing(path) as fh:
        fh.write(json.dumps(_null_if_not_finite(doc), sort_keys=True, indent=1, default=float, allow_nan=False))


def _write_table(path, header, *columns):
    """The columns side by side as comma-separated "%.18e" rows, under header unless it is empty."""
    with _replacing(path) as fh:
        np.savetxt(fh, np.column_stack(columns), delimiter=",", header=header, comments="")


def _write_rows(path, header, rows):
    """Each row as its values' str() joined by commas, under a header line."""
    with _replacing(path) as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _build_grid(cfg) -> solver.Grid:
    g = _get(cfg, "grid", dict)
    try:
        return solver.Grid(
            Lx=_get(g, "Lx", float), Lv=_get(g, "Lv", float), Nx=_get(g, "Nx", int), Nv=_get(g, "Nv", int)
        )
    except solver.ConfigError as e:
        raise ConfigFileError(f"grid: {e}") from e


def _build_solver(cfg) -> solver.SolverConfig:
    s = _get(cfg, "solver", dict)
    try:
        return solver.SolverConfig(
            dt=_get(s, "dt", float),
            transport_order=_get(s, "transport_order", int, solver.SolverConfig.transport_order),
            w0_cells=_get(s, "w0_cells", float, solver.SolverConfig.w0_cells),
            tail_tol=_get(s, "tail_tol", float, solver.SolverConfig.tail_tol),
        )
    except solver.ConfigError as e:
        raise ConfigFileError(f"solver: {e}") from e


def _one_d(cfg):
    # the solver, the coefficients and the trajectory families are d = 1 (only chains
    # take another d); any other d would describe a run that never happened
    d = _get(cfg, "d", int, 1)
    if d != 1:
        raise ConfigFileError(f"config field 'd' must be 1, the only dimension this command runs in, got {d}")


def _build_field(desc, where="field"):
    try:
        _one_d(desc)
        return make_field(
            _get(desc, "kind", str), params=_get(desc, "params", dict, {}), seed=_get(desc, "seed", int, 0)
        )
    except (ConfigFileError, ValueError) as e:
        raise ConfigFileError(f"{where}: {e}") from e


def _build_weight(cfg, grid):
    # checked against the box here, before any member's kernel runs
    try:
        weight = nash_g.GWeight(R=_get(cfg, "weight_radius", float, nash_g.GWeight.R))
        weight.values(grid)
    except ValueError as e:
        raise ConfigFileError(f"weight_radius: {e}") from e
    return weight


def _floor(cfg):
    # checked here, before any member's kernel runs
    floor = _get(cfg, "floor", float, 1e-30)
    if floor <= 0:
        raise ConfigFileError(f"config field 'floor' must be > 0, got {floor}")
    return floor


def _ensemble(cfg):
    ens = _get(cfg, "ensemble", (dict, [dict, ...]))
    if isinstance(ens, list):
        return [_build_field(d, f"ensemble[{i}]") for i, d in enumerate(_nonempty(ens, "ensemble"))]
    seeds = _nonempty(_get(ens, "seeds", [int, ...]), "seeds")
    base = {k: v for k, v in ens.items() if k != "seeds"}
    return [_build_field({**base, "seed": s}, f"ensemble(seed={s})") for s in seeds]


def _cmd_simulate(cfg, outdir):
    grid = _build_grid(cfg)
    config = _build_solver(cfg)
    field = _build_field(_get(cfg, "field", dict))
    source = tuple(_get(cfg, "source", [float, float, float]))
    t_final = _get(cfg, "t_final", float)
    mass_tol = _get(cfg, "mass_drift_tol", float, 1e-6)
    oracle_tol = _get(cfg, "oracle_tol", float, 0.02)
    fmt = _get(cfg, "export", str, "npy")
    if fmt not in ("npy", "csv"):
        raise ConfigFileError(f"config field 'export' must be npy|csv, got {fmt!r}")

    est = solver.estimate_kernel(source, t_final, field, grid, config)
    if fmt == "npy":
        with _replacing(outdir / "kernel.npy", "wb") as fh:
            np.save(fh, est.field.values)
    else:
        _write_table(outdir / "kernel.csv", "", est.field.values)
    _write_json(outdir / "kernel.json", {**est.sidecar(), "format": fmt})
    diag = solver.diagnostics(est.field)
    summary = {
        "kernel": est.sidecar(),
        "diagnostics": diag,
    }
    passed = est.mass_drift <= mass_tol and est.min_value >= 0.0

    if field.kind == "constant":
        sig2 = field.params["value"]
        X, V = grid.meshes()
        tau = t_final - source[0]
        Xn = np.broadcast_to(X - source[1] - tau * source[2], est.field.values.shape)
        Vn = np.broadcast_to(V - source[2], est.field.values.shape)
        oracle = profiles.explicit_kernel_mollified(sig2, tau, Xn, Vn, est.w0[0], est.w0[1])
        err = float(np.abs(est.field.values - oracle).sum() * grid.cell_volume)
        summary["oracle_l1_error"] = err
        passed = passed and err <= oracle_tol
    return summary, passed


def _cmd_verify_bounds(cfg, outdir):
    grid = _build_grid(cfg)
    config = _build_solver(cfg)
    field = _build_field(_get(cfg, "field", dict))
    taus = _get(cfg, "taus", [float, ...])
    _one_d(cfg)
    e_max = _get(cfg, "E_max", float, 8.0)
    stride = _get(cfg, "sample_stride", int, 8)
    if stride < 1:
        raise ConfigFileError(f"config field 'sample_stride' must be >= 1, got {stride}")

    rows = []
    for tau in taus:
        est = solver.estimate_kernel((0.0, 0.0, 0.0), tau, field, grid, config)
        X, V = grid.meshes()
        Xs = np.broadcast_to(X, est.field.values.shape)[::stride, ::stride].ravel()
        Vs = np.broadcast_to(V, est.field.values.shape)[::stride, ::stride].ravel()
        vals = est.field.values[::stride, ::stride].ravel()
        for x, v, val in zip(Xs, Vs, vals):
            gap = NormalizedGap.from_raw(tau, x, v)
            E = profiles.kinetic_exponent(gap)
            if E <= e_max and val > 0:
                rows.append((gap, (tau, x, v, E, val)))
    if len(rows) < 8:
        raise ConfigFileError("taus/sample_stride leave fewer than 8 usable samples")
    report = profiles.fit_envelope([(gap, row[-1]) for gap, row in rows], d=1)

    c = report.constants
    table = [
        (*row, profiles.lower_profile(c, gap, d=1), profiles.upper_profile(c, gap, d=1)) for gap, row in rows
    ]
    violations = sum(not (lo <= val <= hi) for *_, val, lo, hi in table)
    _write_rows(outdir / "envelope_samples.csv", "tau,X,V,E,value,lower,upper", table)
    summary = {
        "fit": report.to_dict(),
        "samples": len(rows),
        "bracket_violations": violations,
        "E_max": e_max,
    }
    passed = violations == 0 and report.constants.is_two_sided()
    return summary, passed


def _cmd_g_bound(cfg, outdir):
    grid = _build_grid(cfg)
    config = _build_solver(cfg)
    fields = _ensemble(cfg)
    floor = _floor(cfg)
    floor_tol = _get(cfg, "floor_delta_tol", float, 1e-3)
    weight = _build_weight(cfg, grid)
    source_seed = _get(cfg, "source_seed", int, 0)
    if source_seed < 0:
        raise ConfigFileError(f"config field 'source_seed' must be >= 0, got {source_seed}")
    rng = np.random.default_rng(source_seed)

    rows = []
    for f in fields:
        ang = rng.uniform(0, 2 * np.pi)
        rad = np.sqrt(rng.uniform(0, 1.0))
        src = (0.0, rad * np.cos(ang), rad * np.sin(ang))
        est = solver.estimate_kernel(src, 1.0, f, grid, config)
        g, delta = nash_g.g_floor_sensitivity(est.field, weight, floor)
        rows.append({"seed": f.seed, "source": list(src), "G1": g, "floor_delta": delta})
    g_values = [r["G1"] for r in rows]
    _write_rows(
        outdir / "g_values.csv", "seed,G1,floor_delta", [(r["seed"], r["G1"], r["floor_delta"]) for r in rows]
    )
    summary = {
        "per_field": rows,
        "min_G1": min(g_values),
        "C_emp": -min(g_values),
        "max_floor_delta": max(r["floor_delta"] for r in rows),
        "floor": floor,
    }
    passed = all(np.isfinite(g_values)) and summary["max_floor_delta"] <= floor_tol
    return summary, passed


def _cmd_level_set(cfg, outdir):
    grid = _build_grid(cfg)
    config = _build_solver(cfg)
    fields = _ensemble(cfg)
    floor = _floor(cfg)
    weight = _build_weight(cfg, grid)
    E = _get(cfg, "E", [[float, float], [float, float]], [[-2.0, 2.0], [-2.0, 2.0]])
    nash_g.box_cells(E, grid)  # a DomainError here, before any kernel runs
    record_every = _get(cfg, "record_every", int, 8)

    stats = []
    best = None
    for f in fields:
        est = solver.estimate_kernel(
            (0.0, 0.0, 0.0), 1.0, f, grid, config, record_every=record_every
        )
        c = nash_g.log_mean_c(est.field, weight, floor)
        rep = nash_g.level_set_statistic(est.history, c, E=E, floor=floor)
        stats.append({"seed": f.seed, "c_f": c, "statistic": rep.statistic})
        if best is None or rep.statistic > best[1].statistic:
            best = (f.seed, rep)
    worst_seed, worst = best
    _write_table(
        outdir / "level_set_curve.csv", "s,measure,s_times_measure", worst.s_grid, worst.measures, worst.products()
    )
    summary = {
        "per_field": stats,
        "max_statistic": max(s["statistic"] for s in stats),
        "worst_seed": worst_seed,
        "E": E,
    }
    passed = all(np.isfinite(s["statistic"]) for s in stats)
    return summary, passed


def _cmd_chain(cfg, outdir):
    Xbar = _get(cfg, "Xbar", (float, [float, ...]))
    Vbar = _get(cfg, "Vbar", (float, [float, ...]))
    k0 = _get(cfg, "k0", float, None)
    samples = _get(cfg, "samples_per_step", int, 0)
    if samples != 0:
        raise ConfigFileError(
            f"config field 'samples_per_step' must be 0, got {samples}: "
            "the corner screen bounds every point of the tube"
        )
    try:
        defaults = chains.NearDiagonalParams
        p = defaults(rho0=_get(cfg, "rho0", float, defaults.rho0), c0=_get(cfg, "c0", float, defaults.c0))
    except ValueError as e:
        raise ConfigFileError(f"rho0/c0: {e}") from e
    try:
        chain = chains.build_chain(Xbar, Vbar, p, k0=k0)
    except (ValueError, chains.ChainConstructionError) as e:
        raise ConfigFileError(f"chain target: {e}") from e
    ok = chains.perturbation_check(chain)
    log_bound = chains.chain_lower_bound(chain, p, log=True)
    with _replacing(outdir / "chain.json") as fh:
        chain.to_json(fh)
    summary = {
        "k": chain.k,
        "dt": chain.dt,
        "mu": chain.mu.tolist(),
        "eta": chain.eta,
        "rho0": p.rho0,
        "c0": p.c0,
        "k0": chain.k0,
        "perturbation_check": bool(ok),
        "log_lower_bound": log_bound,
    }
    return summary, bool(ok)


def _cmd_trajectories(cfg, outdir):
    name = _get(cfg, "family", str, "straight")
    T = _get(cfg, "T", float, 1.0)
    _one_d(cfg)
    # only the fields the config holds are passed, so each default is stated once, in the library
    osc = {k: _get(cfg, k, float) for k in ("beta", "kappa") if k in cfg}
    grid = {
        arg: _get(cfg, k, kind) for k, arg, kind in (("r_points", "n", int), ("r_min", "r_min", float)) if k in cfg
    }
    required = _get(cfg, "require_flags", [str, ...], ["endpoints"])
    for flag in required:
        if flag not in trajectories.PASS_FLAGS:
            raise ConfigFileError(f"require_flags: unknown flag {flag!r}")
    try:
        if name == "straight":
            fam = trajectories.straight_family(T)
        elif name == "log-oscillatory":
            fam = trajectories.log_oscillatory_family(T, **osc)
        else:
            raise ConfigFileError(f"config field 'family' must be straight|log-oscillatory, got {name!r}")
    except ValueError as e:
        raise ConfigFileError(f"family: {e}") from e
    try:
        r_grid = trajectories.default_r_grid(**grid)
    except ValueError as e:
        raise ConfigFileError(f"r_points/r_min: {e}") from e
    rep = trajectories.check_properties(fam, r_grid=r_grid)
    _write_json(outdir / "property_report.json", rep.to_dict())
    curves = (rep.r_grid, rep.curves["det_A"], rep.curves["inv_column_norm"])
    _write_table(outdir / "exponent_curves.csv", "r,det_A,inv_velocity_column_norm", *curves)
    summary = {"report": rep.to_dict(), "required_flags": required}
    passed = all(rep.pass_flags[f] for f in required)
    return summary, passed


def _cmd_adjoint(cfg, outdir):
    grid = _build_grid(cfg)
    config = _build_solver(cfg)
    field = _build_field(_get(cfg, "field", dict))
    points = _nonempty(_get(cfg, "points", [[float, float], ...]), "points")
    eval_point = _get(cfg, "eval_point", [float, float], [0.0, 0.0])
    t0 = _get(cfg, "t0", float, 1.0)
    t1 = _get(cfg, "t1", float, 2.0)
    tolerance = _get(cfg, "tolerance", float, 0.05)
    res = nash_g.adjoint_kernel_residual(field, points, grid, config, eval_point=eval_point, t0=t0, t1=t1)
    reads = zip(res["points"], res["forward"], res["adjoint"], res["relative_errors"])
    _write_rows(
        outdir / "adjoint_points.csv", "y,w,forward,adjoint,relative_error", [(*p, *r) for p, *r in reads]
    )
    passed = res["residual"] <= tolerance
    return res, passed


_COMMANDS = {
    "simulate": _cmd_simulate,
    "verify-bounds": _cmd_verify_bounds,
    "g-bound": _cmd_g_bound,
    "level-set": _cmd_level_set,
    "chain": _cmd_chain,
    "trajectories": _cmd_trajectories,
    "adjoint": _cmd_adjoint,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kolkit",
        description="Verification campaigns for a kinetic diffusion solver and its bounds.",
    )
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", required=True, help="path to a JSON campaign config")
    ap.add_argument("--out", default=".", help="output directory (created if missing)")
    return ap


def _finite(literal: str) -> float:
    # json reads NaN, Infinity and -Infinity, which RFC 8259 leaves out, and a number beyond
    # the float range, such as 1e400, as non-finite floats, which no field accepts
    value = float(literal)
    if abs(value) < np.inf:
        return value
    why = "is out of the float range" if literal[-1].isdigit() else "is not a JSON number"
    raise ValueError(f"{literal} {why}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as e:
        print(f"config error: cannot read {args.config}: {e}", file=sys.stderr)
        return 2
    except ValueError as e:  # json.JSONDecodeError, _finite, or bytes that are not UTF-8
        print(f"config error: {args.config} is not valid JSON: {e}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("config error: top-level config must be a JSON object", file=sys.stderr)
        return 2

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    error = None
    try:
        summary, passed = _COMMANDS[args.command](cfg, outdir)
    except (ConfigFileError, solver.ConfigError, nash_g.DomainError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (solver.SolverError, profiles.FitError) as e:
        print(f"numerical error: {type(e).__name__}: {e}", file=sys.stderr)
        summary, passed, error = None, False, {"type": type(e).__name__, "message": str(e)}

    doc = {
        "command": args.command,
        "config": cfg,
        "passed": bool(passed),
        "summary": summary,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if error is not None:
        doc["error"] = error
    path = outdir / "summary.json"
    _write_json(path, doc)
    if error is not None:
        return 3
    if not passed:
        print(f"{args.command}: verification FAILED (see {path})", file=sys.stderr)
        return 1
    print(f"{args.command}: ok ({path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
