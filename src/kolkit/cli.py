"""Batch driver: one JSON config in, JSON/CSV reports out.

Commands: simulate | verify-bounds | g-bound | level-set | chain |
trajectories | adjoint.  Exit codes: 0 = ran and all requested assertions
passed, 1 = ran but a verification assertion failed, 2 = config error
(the diagnostic names the offending field), including an out-of-range
value and a config that puts a functional outside its domain
(nash_g.DomainError), 3 = numerical failure (solver.SolverError,
profiles.FitError), whose summary records the error.  Every summary
embeds the resolved config and is written atomically; with fixed seeds the
summary is byte-stable apart from the timestamp field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import chains, nash_g, profiles, solver, trajectories
from .coefficients import make_field
from .phase_geometry import NormalizedGap

__all__ = ["main", "ConfigFileError"]


class ConfigFileError(Exception):
    """Config is malformed; message names the field."""


def _get(cfg, path, kinds=None, required=True, default=None):
    cur = cfg
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            if required:
                raise ConfigFileError(f"missing required config field '{path}'")
            return default
        cur = cur[part]
    if kinds is not None and not isinstance(cur, kinds):
        names = kinds.__name__ if isinstance(kinds, type) else "/".join(k.__name__ for k in kinds)
        raise ConfigFileError(f"config field '{path}' must be {names}, got {type(cur).__name__}")
    return cur


def _build_grid(cfg) -> solver.Grid:
    g = _get(cfg, "grid", dict)
    try:
        return solver.Grid(
            Lx=float(_get(g, "Lx", (int, float))),
            Lv=float(_get(g, "Lv", (int, float))),
            Nx=int(_get(g, "Nx", int)),
            Nv=int(_get(g, "Nv", int)),
        )
    except solver.ConfigError as e:
        raise ConfigFileError(f"grid: {e}") from e


def _build_solver(cfg) -> solver.SolverConfig:
    s = _get(cfg, "solver", dict)
    try:
        return solver.SolverConfig(
            dt=float(_get(s, "dt", (int, float))),
            transport_order=int(s.get("transport_order", 3)),
            w0_cells=float(s.get("w0_cells", 3.0)),
            tail_tol=float(s.get("tail_tol", 1e-8)),
        )
    except solver.ConfigError as e:
        raise ConfigFileError(f"solver: {e}") from e


def _build_field(desc, where="field"):
    if not isinstance(desc, dict):
        raise ConfigFileError(f"config field '{where}' must be a field descriptor object")
    try:
        return make_field(
            _get(desc, "kind", str),
            params=desc.get("params", {}),
            seed=int(desc.get("seed", 0)),
            d=int(desc.get("d", 1)),
        )
    except ValueError as e:
        raise ConfigFileError(f"{where}: {e}") from e


def _build_weight(cfg, grid):
    # checked against the box here, before any member's kernel runs
    try:
        weight = nash_g.GWeight(R=float(cfg.get("weight_radius", 4.0)))
        weight.values(grid)
    except ValueError as e:
        raise ConfigFileError(f"weight_radius: {e}") from e
    return weight


def _ensemble(cfg):
    ens = _get(cfg, "ensemble", (dict, list))
    if isinstance(ens, list):
        return [_build_field(d, f"ensemble[{i}]") for i, d in enumerate(ens)]
    seeds = _get(ens, "seeds", list)
    base = {k: v for k, v in ens.items() if k != "seeds"}
    return [_build_field({**base, "seed": s}, f"ensemble(seed={s})") for s in seeds]


def _cmd_simulate(cfg, outdir):
    grid = _build_grid(cfg)
    config = _build_solver(cfg)
    field = _build_field(_get(cfg, "field", dict))
    source = tuple(float(c) for c in _get(cfg, "source", list))
    if len(source) != 3:
        raise ConfigFileError("config field 'source' must be [s, y, w]")
    t_final = float(_get(cfg, "t_final", (int, float)))

    est = solver.estimate_kernel(source, t_final, field, grid, config)
    est.save(outdir / "kernel", fmt=str(cfg.get("export", "npy")))
    diag = solver.diagnostics(est.field)
    summary = {
        "kernel": est.sidecar(),
        "diagnostics": diag,
    }
    passed = est.mass_drift <= float(cfg.get("mass_drift_tol", 1e-6)) and est.min_value >= 0.0

    if field.kind == "constant":
        sig2 = field.params["value"]
        X, V = grid.meshes()
        tau = t_final - source[0]
        Xn = np.broadcast_to(X - source[1] - tau * source[2], est.field.values.shape)
        Vn = np.broadcast_to(V - source[2], est.field.values.shape)
        oracle = profiles.explicit_kernel_mollified(sig2, tau, Xn, Vn, est.w0[0], est.w0[1])
        err = float(np.abs(est.field.values - oracle).sum() * grid.cell_volume)
        summary["oracle_l1_error"] = err
        passed = passed and err <= float(cfg.get("oracle_tol", 0.02))
    return summary, passed


def _cmd_verify_bounds(cfg, outdir):
    grid = _build_grid(cfg)
    config = _build_solver(cfg)
    field = _build_field(_get(cfg, "field", dict))
    taus = [float(t) for t in _get(cfg, "taus", list)]
    d = int(cfg.get("d", 1))
    e_max = float(cfg.get("E_max", 8.0))
    stride = int(cfg.get("sample_stride", 8))

    rows = []
    for tau in taus:
        est = solver.estimate_kernel((0.0, 0.0, 0.0), tau, field, grid, config)
        X, V = grid.meshes()
        Xs = np.broadcast_to(X, est.field.values.shape)[::stride, ::stride].ravel()
        Vs = np.broadcast_to(V, est.field.values.shape)[::stride, ::stride].ravel()
        vals = est.field.values[::stride, ::stride].ravel()
        for x, v, val in zip(Xs, Vs, vals):
            E = profiles.kinetic_exponent(NormalizedGap.from_raw(tau, x, v))
            if E <= e_max and val > 0:
                rows.append((tau, x, v, E, val))
    if len(rows) < 8:
        raise ConfigFileError("taus/sample_stride leave fewer than 8 usable samples")
    samples = [(NormalizedGap.from_raw(tau, x, v), val) for (tau, x, v, E, val) in rows]
    report = profiles.fit_envelope(samples, d=d)

    violations = 0
    with open(outdir / "envelope_samples.csv", "w") as fh:
        fh.write("tau,X,V,E,value,lower,upper\n")
        for (tau, x, v, E, val) in rows:
            gap = NormalizedGap.from_raw(tau, x, v)
            lo = profiles.lower_profile(report.constants, gap, d=d)
            hi = profiles.upper_profile(report.constants, gap, d=d)
            if not (lo <= val <= hi):
                violations += 1
            fh.write(f"{tau},{x},{v},{E},{val},{lo},{hi}\n")
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
    floor = float(cfg.get("floor", 1e-30))
    weight = _build_weight(cfg, grid)
    rng = np.random.default_rng(int(cfg.get("source_seed", 0)))

    rows = []
    for f in fields:
        ang = rng.uniform(0, 2 * np.pi)
        rad = np.sqrt(rng.uniform(0, 1.0))
        src = (0.0, rad * np.cos(ang), rad * np.sin(ang))
        est = solver.estimate_kernel(src, 1.0, f, grid, config)
        g, delta = nash_g.g_floor_sensitivity(est.field, weight, floor)
        rows.append({"seed": f.seed, "source": list(src), "G1": g, "floor_delta": delta})
    g_values = [r["G1"] for r in rows]
    with open(outdir / "g_values.csv", "w") as fh:
        fh.write("seed,G1,floor_delta\n")
        for r in rows:
            fh.write(f"{r['seed']},{r['G1']},{r['floor_delta']}\n")
    summary = {
        "per_field": rows,
        "min_G1": min(g_values),
        "C_emp": -min(g_values),
        "max_floor_delta": max(r["floor_delta"] for r in rows),
        "floor": floor,
    }
    passed = all(np.isfinite(g_values)) and summary["max_floor_delta"] <= float(
        cfg.get("floor_delta_tol", 1e-3)
    )
    return summary, passed


def _cmd_level_set(cfg, outdir):
    grid = _build_grid(cfg)
    config = _build_solver(cfg)
    fields = _ensemble(cfg)
    floor = float(cfg.get("floor", 1e-30))
    weight = _build_weight(cfg, grid)
    E = cfg.get("E", [[-2.0, 2.0], [-2.0, 2.0]])
    record_every = int(cfg.get("record_every", 8))

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
    best[1].curve_csv(outdir / "level_set_curve.csv")
    summary = {
        "per_field": stats,
        "max_statistic": max(s["statistic"] for s in stats),
        "worst_seed": best[0],
        "E": E,
    }
    passed = all(np.isfinite(s["statistic"]) for s in stats)
    return summary, passed


def _cmd_chain(cfg, outdir):
    try:
        p = chains.NearDiagonalParams(
            rho0=float(cfg.get("rho0", 0.25)), c0=float(cfg.get("c0", 0.05))
        )
    except ValueError as e:
        raise ConfigFileError(f"rho0/c0: {e}") from e
    Xbar = _get(cfg, "Xbar", (list, int, float))
    Vbar = _get(cfg, "Vbar", (list, int, float))
    k0 = cfg.get("k0")
    try:
        chain = chains.build_chain(Xbar, Vbar, p, k0=None if k0 is None else float(k0))
    except (ValueError, chains.ChainConstructionError) as e:
        raise ConfigFileError(f"chain target: {e}") from e
    ok = chains.perturbation_check(chain, samples_per_step=int(cfg.get("samples_per_step", 8)))
    log_bound = chains.chain_lower_bound(chain, p, log=True)
    (outdir / "chain.json").write_text(chain.to_json(indent=1))
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
    name = str(cfg.get("family", "straight"))
    T = float(cfg.get("T", 1.0))
    d = int(cfg.get("d", 1))
    try:
        if name == "straight":
            fam = trajectories.straight_family(T, d)
        elif name == "log-oscillatory":
            fam = trajectories.log_oscillatory_family(
                T, d, beta=float(cfg.get("beta", 2.0)), kappa=float(cfg.get("kappa", 1.0))
            )
        else:
            raise ConfigFileError(f"config field 'family' must be straight|log-oscillatory, got {name!r}")
    except ValueError as e:
        raise ConfigFileError(f"family: {e}") from e
    try:
        r_grid = trajectories.default_r_grid(
            n=int(cfg.get("r_points", 1024)), r_min=float(cfg.get("r_min", 1e-6))
        )
    except ValueError as e:
        raise ConfigFileError(f"r_points/r_min: {e}") from e
    rep = trajectories.check_properties(fam, r_grid=r_grid)
    (outdir / "property_report.json").write_text(rep.to_json(indent=1))
    rep.curves_csv(outdir / "exponent_curves.csv")
    required = cfg.get("require_flags", ["endpoints"])
    if not isinstance(required, list):
        raise ConfigFileError("config field 'require_flags' must be a list of flag names")
    for flag in required:
        if flag not in rep.pass_flags:
            raise ConfigFileError(f"require_flags: unknown flag {flag!r}")
    summary = {"report": rep.to_dict(), "required_flags": required}
    passed = all(rep.pass_flags[f] for f in required)
    return summary, passed


def _cmd_adjoint(cfg, outdir):
    grid = _build_grid(cfg)
    config = _build_solver(cfg)
    field = _build_field(_get(cfg, "field", dict))
    points = _get(cfg, "points", list)
    eval_point = cfg.get("eval_point", [0.0, 0.0])
    res = nash_g.adjoint_kernel_residual(
        field,
        points,
        grid,
        config,
        eval_point=eval_point,
        t0=float(cfg.get("t0", 1.0)),
        t1=float(cfg.get("t1", 2.0)),
    )
    with open(outdir / "adjoint_points.csv", "w") as fh:
        fh.write("y,w,forward,adjoint,relative_error\n")
        for (y, w), a, b, r in zip(
            res["points"], res["forward"], res["adjoint"], res["relative_errors"]
        ):
            fh.write(f"{y},{w},{a},{b},{r}\n")
    passed = res["residual"] <= float(cfg.get("tolerance", 0.05))
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as e:
        print(f"config error: cannot read {args.config}: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
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
    # a reader finds the previous summary or the whole new one, never a torn one
    path = outdir / "summary.json"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True, indent=1, default=float))
    os.replace(tmp, path)
    if error is not None:
        return 3
    if not passed:
        print(f"{args.command}: verification FAILED (see {path})", file=sys.stderr)
        return 1
    print(f"{args.command}: ok ({path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
