"""The four benchmark workloads, built from a seed and driven through
kolkit's public API and its in-process CLI (`kolkit.cli.main`).

Each workload has `setup(seed, out) -> inputs`, which only generates inputs
(fields, grids, CLI config files), and `run(inputs, rec)`, the timed body.
The body splits into items; an item that raises or fails a gate is counted
as failed and the body goes on.  Gates use the frozen acceptance tolerances
and the solver invariants from the ROADMAP.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from kolkit import chains, cli, coefficients, nash_g, phase_geometry, profiles, solver

MASS_DRIFT_TOL = 1e-6  # ROADMAP invariant and criterion 2
ORACLE_L1_TOL = 2e-2  # criterion 1, at 192^2
ORACLE_REFINEMENT = 1.8  # criterion 1, 192 -> 256
DUALITY_TOL = 1e-12  # ROADMAP invariant for upwind transport
FLOOR_DELTA_TOL = 1e-3  # criterion 8
ENVELOPE_SLACK = 1e-12  # criterion 11: one ulp of headroom on binding samples

BOX_A = {"Lx": 4.5, "Lv": 7.0}  # criteria 1, 7-9, 11

# Median reference_seconds() on a shared 2-core Intel Xeon VM; it only sets
# the scale of normalized times.
REFERENCE_NOMINAL_S = 0.002

_REF_FIELD = np.random.default_rng(0).random((128, 128))


def _reference_once():
    # PPM-like stencil sweeps on a 128^2 array.  Of the kernels tried (this
    # one, a loop over strided columns, small-matrix calls, JSON encoding,
    # a pure-Python loop), its time tracked the drift of every workload's
    # items best on that VM.
    f = _REF_FIELD.copy()
    for _ in range(6):
        g = np.roll(f, 1, axis=0)
        h = np.roll(f, -1, axis=0)
        e = np.clip((7.0 * (g + f) - h) / 12.0, np.minimum(g, f), np.maximum(g, f))
        f = np.where(e > f, e, f) * 0.5 + 0.5 * f
    return f


def reference_seconds(repeats=5):
    """Fastest of a few runs of the fixed reference kernel, in seconds."""
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _reference_once()
        best = min(best, time.perf_counter() - t0)
    return best


class Record:
    """Items, gates, exact counts and the digest material of one body run.

    The reference kernel runs after every item, so each item carries the
    machine's speed at the time it ran: the mean of the reference times
    just before it (`reference_s` for the first item) and just after it.
    """

    def __init__(self, reference_s):
        self.items = []  # {"name", "seconds", "reference_s", "failures"}
        self.counts = {}
        self.facts = {}
        self._digest = []  # (label, bytes) in body order
        self._files = []  # (label, path) hashed after the timed body
        self._failures = None
        self._reference_s = reference_s

    @contextmanager
    def item(self, name):
        before = self._reference_s
        self._failures = []
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:  # an item that raises is a failed item, not a failed run
            self._failures.append(f"raised {type(exc).__name__}: {exc}")
            traceback.print_exc()
        seconds = time.perf_counter() - t0
        self._reference_s = reference_seconds()
        self.items.append(
            {
                "name": name,
                "seconds": seconds,
                "reference_s": 0.5 * (before + self._reference_s),
                "failures": self._failures,
            }
        )
        self._failures = None

    def gate(self, name, ok, value=None):
        if not ok:
            self._failures.append(f"{name} failed (value {value!r})")

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def keep(self, label, obj):
        """Add an array or JSON-able value to the digest."""
        if isinstance(obj, np.ndarray):
            data = np.ascontiguousarray(obj).tobytes()
        else:
            data = json.dumps(obj, sort_keys=True, default=float).encode()
        self._digest.append((label, data))

    def keep_file(self, label, path):
        self._files.append((label, Path(path)))

    def digest(self) -> str:
        """sha256 of the kept values and files; `timestamp` is dropped from
        CLI summaries, the one field that is not byte-stable by design."""
        h = hashlib.sha256()
        parts = list(self._digest)
        for label, path in self._files:
            data = path.read_bytes()
            if path.name == "summary.json":
                doc = json.loads(data)
                doc.pop("timestamp", None)
                data = json.dumps(doc, sort_keys=True).encode()
            parts.append((label, data))
        for label, data in parts:
            h.update(label.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        return h.hexdigest()


def _write_config(out, name, config):
    path = out / f"{name}.config.json"
    path.write_text(json.dumps(config, sort_keys=True))
    return path


def _cli(rec, command, out, name):
    """Run one CLI command in process on the config written at setup; exit
    code 0 is its gate."""
    run_dir = out / name
    rc = cli.main([command, "--config", str(out / f"{name}.config.json"), "--out", str(run_dir)])
    rec.gate(f"{name} exit code", rc == 0, rc)
    summary = json.loads((run_dir / "summary.json").read_text())
    for path in sorted(run_dir.iterdir()):
        rec.keep_file(f"{name}/{path.name}", path)
    return summary


def _kernel_gates(rec, est):
    rec.gate("mass drift", est.mass_drift <= MASS_DRIFT_TOL, est.mass_drift)
    rec.gate("min value", est.min_value >= 0.0, est.min_value)


def _steps(t0, t1, dt):
    return int(round((t1 - t0) / dt))


# --------------------------------------------------------------------------
# ensemble: the paper's headline campaign at 128^2


def _criterion11_points():
    xs = np.linspace(-1.6, 1.6, 9)
    vs = np.linspace(-2.6, 2.6, 13)
    pts = [(x, 0.0) for x in xs if x != 0] + [(0.0, v) for v in vs if v != 0]
    return pts + [(x, v) for x in xs[::2] for v in vs[::2]]


def _seeded_fields(rng, n, kind, params, cells):
    """n fields of one kind, each with a seed and a cell origin from rng."""
    fields = []
    for _ in range(n):
        seed = int(rng.integers(0, 2**31))
        origin = [float(rng.uniform(0.0, c)) for c in cells]
        fields.append(
            coefficients.make_field(kind, {**params, "cells": cells, "origin": origin}, seed=seed)
        )
    return fields


def ensemble_setup(seed, out):
    rng = np.random.default_rng([seed, 1])
    return {
        "members": _seeded_fields(rng, 10, "checkerboard", {"values": (0.5, 2.0)}, (0.25, 0.25, 0.25)),
        "grid": solver.Grid(Nx=128, Nv=128, **BOX_A),
        "config": solver.SolverConfig(dt=1.0 / 128, w0_cells=2.0, tail_tol=1.0),
        "points": _criterion11_points(),
    }


def _snapshot_history(est, grid):
    # estimate_kernel keeps record_every snapshots on the estimate itself;
    # the CLI's level-set command and criterion 9 read them the same way
    return nash_g.SpaceTimeField.from_snapshots(est._snapshots, est._snapshot_times, grid)


def ensemble_run(inp, rec):
    grid, cfg = inp["grid"], inp["config"]
    weight = nash_g.GWeight()
    params = chains.NearDiagonalParams(rho0=0.25)
    for i, field in enumerate(inp["members"]):
        with rec.item(f"member-{i}"):
            rec.count("solver.steps", _steps(0.0, 1.0, cfg.dt))
            rec.count("solver.cell_updates", _steps(0.0, 1.0, cfg.dt) * grid.Nx * grid.Nv)
            est = solver.estimate_kernel((0.0, 0.0, 0.0), 1.0, field, grid, cfg, record_every=8)
            _kernel_gates(rec, est)
            rec.keep(f"member-{i}/kernel", est.field.values)

            g, delta = nash_g.g_floor_sensitivity(est.field, weight)
            rec.gate("G finite", np.isfinite(g), g)
            rec.gate("G floor sensitivity", delta <= FLOOR_DELTA_TOL, delta)

            c = nash_g.log_mean_c(est.field, weight)
            level = nash_g.level_set_statistic(_snapshot_history(est, grid), c)
            rec.gate("level-set statistic finite", np.isfinite(level.statistic), level.statistic)

            nd = chains.near_diagonal_kernel_min(est, params)
            rec.gate("near-diagonal minimum positive", nd > 0.0, nd)

            samples = []
            for x, v in inp["points"]:
                gap = phase_geometry.NormalizedGap.from_raw(1.0, x, v)
                if profiles.kinetic_exponent(gap) <= 8.0:
                    samples.append((gap, float(est.density(x, v))))
            fit = profiles.fit_envelope(samples, d=1)
            env = fit.constants
            bracketed = all(
                profiles.lower_profile(env, gap, d=1) <= val * (1.0 + ENVELOPE_SLACK)
                and val <= profiles.upper_profile(env, gap, d=1) * (1.0 + ENVELOPE_SLACK)
                for gap, val in samples
            )
            rec.gate("envelope brackets every sample", bracketed)
            rec.gate("envelope two-sided", env.is_two_sided())
            rec.keep(
                f"member-{i}/scalars",
                [g, delta, c, level.statistic, nd, [env.C0_up, env.C1_up, env.c0_low, env.c1_low]],
            )


# --------------------------------------------------------------------------
# oracle: criterion 1's constant-coefficient ladder through `kolkit simulate`

ORACLE_LADDER = ((192, 160), (256, 400))


def oracle_setup(seed, out):
    # constant coefficient and a fixed source: the seed has nothing to vary
    for n, steps in ORACLE_LADDER:
        _write_config(
            out,
            f"simulate-{n}",
            {
                "grid": {**BOX_A, "Nx": n, "Nv": n},
                "solver": {"dt": 1.0 / steps, "w0_cells": 3.0, "tail_tol": 1.0},
                "field": {"kind": "constant", "params": {"value": 1.0}},
                "source": [0.0, 0.0, 0.0],
                "t_final": 1.0,
                "oracle_tol": ORACLE_L1_TOL,
                "mass_drift_tol": MASS_DRIFT_TOL,
            },
        )
    return {"out": out}


def oracle_run(inp, rec):
    errors = {}
    for n, steps in ORACLE_LADDER:
        with rec.item(f"simulate-{n}"):
            rec.count("solver.steps", steps)
            rec.count("solver.cell_updates", steps * n * n)
            summary = _cli(rec, "simulate", inp["out"], f"simulate-{n}")["summary"]
            kernel = summary["kernel"]
            rec.gate("mass drift", kernel["mass_drift"] <= MASS_DRIFT_TOL, kernel["mass_drift"])
            rec.gate("min value", kernel["min_value"] >= 0.0, kernel["min_value"])
            errors[n] = summary["oracle_l1_error"]
    with rec.item("oracle-ladder"):
        rec.gate("oracle L1 at 192^2", errors[192] <= ORACLE_L1_TOL, errors[192])
        rec.gate("refinement factor", errors[192] / errors[256] >= ORACLE_REFINEMENT, errors)
        rec.facts["oracle_l1_error"] = errors[256]
        rec.facts["oracle_l1_error_192"] = errors[192]


# --------------------------------------------------------------------------
# rough-small: factor rebuilt every half step, and the upwind duality check

ROUGH_GRID = {"Lx": 2.0, "Lv": 4.0, "Nx": 64, "Nv": 64}  # criterion 2
ADJOINT_GRID = {"Lx": 3.0, "Lv": 5.0, "Nx": 64, "Nv": 64}


def rough_setup(seed, out):
    rng = np.random.default_rng([seed, 3])
    cells = (1.0 / 2048, 0.25, 0.25)  # time cells shorter than a half step
    fields = _seeded_fields(rng, 2, "random-piecewise", {"values_range": (0.25, 4.0)}, cells)
    points = [tuple(float(u) for u in rng.uniform(-0.6, 0.6, 2)) for _ in range(4)]
    return {
        "fields": fields,
        "grid": solver.Grid(**ROUGH_GRID),
        "config": solver.SolverConfig(dt=1e-3, w0_cells=2.0),
        "oscillatory": coefficients.make_field("oscillatory", {"freq_t": 1.0}),
        "adjoint_grid": solver.Grid(**ADJOINT_GRID),
        "adjoint_config": solver.SolverConfig(dt=1.0 / 64, transport_order=1, w0_cells=2.0, tail_tol=1.0),
        "points": points,
    }


def rough_run(inp, rec):
    grid, cfg = inp["grid"], inp["config"]
    for i, field in enumerate(inp["fields"]):
        with rec.item(f"random-piecewise-{i}"):
            rec.count("solver.steps", _steps(0.0, 1.0, cfg.dt))
            rec.count("solver.cell_updates", _steps(0.0, 1.0, cfg.dt) * grid.Nx * grid.Nv)
            state = solver.init_delta((0.0, 0.0), (2 * grid.dx, 2 * grid.dv), grid)
            res = solver.evolve(state, field, cfg, 1.0)
            drift = max(abs(res.mass_min - 1.0), abs(res.mass_max - 1.0))
            rec.gate("mass drift", drift <= MASS_DRIFT_TOL, drift)
            rec.gate("min value", res.min_value >= 0.0, res.min_value)
            rec.keep(f"random-piecewise-{i}/field", res.field.values)

    with rec.item("adjoint"):
        agrid, acfg = inp["adjoint_grid"], inp["adjoint_config"]
        runs = len(inp["points"]) + 1  # one forward run per point, one companion run
        rec.count("solver.steps", runs * _steps(1.0, 2.0, acfg.dt))
        rec.count("solver.cell_updates", runs * _steps(1.0, 2.0, acfg.dt) * agrid.Nx * agrid.Nv)
        res = nash_g.adjoint_kernel_residual(inp["oscillatory"], inp["points"], agrid, acfg)
        rec.gate("upwind duality residual", res["residual"] < DUALITY_TOL, res["residual"])
        drift = abs(res["adjoint_mass"] - 1.0)
        rec.gate("companion mass drift", drift <= MASS_DRIFT_TOL, drift)
        rec.facts["duality_residual"] = res["residual"]
        rec.keep("adjoint", [res["forward"], res["adjoint"], res["residual"]])


# --------------------------------------------------------------------------
# geometry: trajectory families and chains through the CLI, no solver


def geometry_setup(seed, out):
    rng = np.random.default_rng([seed, 4])
    _write_config(out, "trajectories-straight", {"family": "straight", "T": 1.0})
    _write_config(
        out,
        "trajectories-log-oscillatory",
        {"family": "log-oscillatory", "T": 1.0, "beta": 2.0, "kappa": 1.0},
    )
    # |z|^2 = 10, 20, ..., 100 at seeded angles: chain length k ~ k0 |z|^2,
    # so the chains' cost and peak memory barely move between seeds
    for i in range(10):
        radius = np.sqrt(10.0 * (i + 1))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        _write_config(
            out, f"chain-{i}", {"Xbar": [radius * np.cos(angle)], "Vbar": [radius * np.sin(angle)]}
        )
    return {"out": out}


def geometry_run(inp, rec):
    for family in ("straight", "log-oscillatory"):
        with rec.item(f"trajectories-{family}"):
            _cli(rec, "trajectories", inp["out"], f"trajectories-{family}")
    for i in range(10):
        with rec.item(f"chain-{i}"):
            summary = _cli(rec, "chain", inp["out"], f"chain-{i}")["summary"]
            rec.gate("perturbation check", summary["perturbation_check"] is True)
            rec.count("chains.nodes", summary["k"] + 1)


WORKLOADS = {
    "ensemble": (ensemble_setup, ensemble_run),
    "oracle": (oracle_setup, oracle_run),
    "rough-small": (rough_setup, rough_run),
    "geometry": (geometry_setup, geometry_run),
}
