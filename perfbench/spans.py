"""Spans around calls into kolkit's public names, installed from outside.

`Tracer.install` replaces every binding of a public module function (the
names in each module's `__all__`) in every kolkit module namespace, so a
call made inside kolkit (`evolve` -> `step`, `nash_g` -> `estimate_kernel`
through its own `from .solver import ...` binding) is seen as well as a
call made by the benchmark.  A few public methods are wrapped on their
class (`METHODS`).  Private helpers are never wrapped, so their time is
self time of the public caller: the factor build inside `step` shows up as
a `CoefficientField.value` child of `step` (one per cache miss) plus step
self time.

Spans are kept in flat lists in memory; `layer_metrics` turns them into the
per-layer numbers at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = (
    "phase_geometry",
    "profiles",
    "coefficients",
    "solver",
    "nash_g",
    "chains",
    "trajectories",
    "cli",
)

# Public methods wrapped on the class.  phase_geometry's work is building and
# validating its value types, so their constructors count as calls into it.
METHODS = {
    "coefficients": {"CoefficientField": ("value",)},
    "chains": {"ChainSpec": ("to_json",)},
    "phase_geometry": {"PhasePoint": ("__init__",), "NormalizedGap": ("__init__", "from_raw")},
}

# Work counts recorded per span, computed from the call's result.
COUNTS = {
    "solver.step": lambda out: out.grid.Nx * out.grid.Nv,
    "chains.build_chain": lambda out: out.k + 1,
}

# Per-layer metrics in report order, with their units.
PER_LAYER = {
    "coefficients.value_s": "s",
    "coefficients.value_calls": "count",
    "coefficients.make_field_s": "s",
    "coefficients.self_s": "s",
    "solver.step_s_p50": "s",
    "solver.step_s_p98": "s",
    "solver.step_self_s": "s",
    "solver.factor_builds": "count",
    "solver.factor_hit_ratio": "ratio",
    "solver.evolve_self_s": "s",
    "solver.estimate_kernel_s_p50": "s",
    "solver.init_delta_s": "s",
    "solver.steps": "count",
    "solver.cell_updates": "count",
    "solver.self_s": "s",
    "nash_g.level_set_statistic_s": "s",
    "nash_g.g_floor_sensitivity_s": "s",
    "nash_g.log_mean_c_s": "s",
    "nash_g.adjoint_kernel_residual_self_s": "s",
    "nash_g.self_s": "s",
    "profiles.fit_envelope_s": "s",
    "profiles.explicit_kernel_mollified_s": "s",
    "profiles.self_s": "s",
    "phase_geometry.calls": "count",
    "phase_geometry.self_s": "s",
    "chains.build_chain_s": "s",
    "chains.perturbation_check_s": "s",
    "chains.chain_to_json_s": "s",
    "chains.nodes": "count",
    "chains.near_diagonal_kernel_min_s": "s",
    "chains.self_s": "s",
    "trajectories.check_properties_s": "s",
    "trajectories.self_s": "s",
    "cli.simulate_s": "s",
    "cli.chain_s": "s",
    "cli.trajectories_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}

# Metrics that must repeat exactly between runs of one seed.
EXACT_COUNTS = (
    "solver.steps",
    "solver.cell_updates",
    "solver.factor_builds",
    "coefficients.value_calls",
    "chains.nodes",
    "phase_geometry.calls",
)


class Tracer:
    """Flat in-memory span store: name, tag, start, end, parent, work count."""

    def __init__(self):
        self.names = []
        self.tags = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = []
        self._stack = []

    def wrap(self, fn, name, count=None, tag=None):
        names, tags, starts, ends = self.names, self.tags, self.starts, self.ends
        parents, counts, stack = self.parents, self.counts, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            tags.append(tag(args) if tag else "")
            parents.append(stack[-1] if stack else -1)
            counts.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                counts[i] = count(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap kolkit's public names in place, for the life of the process."""
        package = importlib.import_module("kolkit")
        modules = {layer: importlib.import_module(f"kolkit.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[fn] = self.wrap(
                        fn, name, count=COUNTS.get(name), tag=_cli_command if name == "cli.main" else None
                    )
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(raw.__func__, name)))
                    else:
                        setattr(cls, meth, self.wrap(raw, name))

    def layer_metrics(self) -> dict:
        """Per-layer metrics of every span recorded so far (overhead excluded)."""
        names = np.array(self.names, dtype=object)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        counts = np.array(self.counts, dtype=np.int64)
        tags = np.array(self.tags, dtype=object)
        layer = np.array([n.split(".", 1)[0] for n in self.names], dtype=object)
        has_parent = parents >= 0
        child_time = np.zeros(dur.size)
        np.add.at(child_time, parents[has_parent], dur[has_parent])
        self_time = dur - child_time
        parent_name = np.where(has_parent, names[np.where(has_parent, parents, 0)], "")
        parent_layer = np.where(has_parent, layer[np.where(has_parent, parents, 0)], "")

        def named(n):
            return names == n

        def total(mask, values=dur):
            return float(values[mask].sum())

        def pct(mask, q):
            return float(np.percentile(dur[mask], q)) if mask.any() else 0.0

        value = named("coefficients.CoefficientField.value")
        outer_value = value & (parent_name != "coefficients.CoefficientField.value")
        step = named("solver.step")
        steps = int(step.sum())
        builds = int((value & (parent_name == "solver.step")).sum())
        entering_pg = (layer == "phase_geometry") & (parent_layer != "phase_geometry")
        cli_main = named("cli.main")
        m = {
            "coefficients.value_s": total(outer_value),
            "coefficients.value_calls": int(outer_value.sum()),
            "coefficients.make_field_s": total(named("coefficients.make_field")),
            "solver.step_s_p50": pct(step, 50),
            "solver.step_s_p98": pct(step, 98),
            "solver.step_self_s": total(step, self_time),
            "solver.factor_builds": builds,
            "solver.factor_hit_ratio": 1.0 - builds / (2.0 * steps) if steps else 0.0,
            "solver.evolve_self_s": total(named("solver.evolve"), self_time),
            "solver.estimate_kernel_s_p50": pct(named("solver.estimate_kernel"), 50),
            "solver.init_delta_s": total(named("solver.init_delta")),
            "solver.steps": steps,
            "solver.cell_updates": int(counts[step].sum()),
            "nash_g.level_set_statistic_s": total(named("nash_g.level_set_statistic")),
            "nash_g.g_floor_sensitivity_s": total(named("nash_g.g_floor_sensitivity")),
            "nash_g.log_mean_c_s": total(named("nash_g.log_mean_c")),
            "nash_g.adjoint_kernel_residual_self_s": total(
                named("nash_g.adjoint_kernel_residual"), self_time
            ),
            "profiles.fit_envelope_s": total(named("profiles.fit_envelope")),
            "profiles.explicit_kernel_mollified_s": total(named("profiles.explicit_kernel_mollified")),
            "phase_geometry.calls": int(entering_pg.sum()),
            "chains.build_chain_s": total(named("chains.build_chain")),
            "chains.perturbation_check_s": total(named("chains.perturbation_check")),
            "chains.chain_to_json_s": total(named("chains.ChainSpec.to_json")),
            "chains.nodes": int(counts[named("chains.build_chain")].sum()),
            "chains.near_diagonal_kernel_min_s": total(named("chains.near_diagonal_kernel_min")),
            "trajectories.check_properties_s": total(named("trajectories.check_properties")),
            "cli.simulate_s": total(cli_main & (tags == "simulate")),
            "cli.chain_s": total(cli_main & (tags == "chain")),
            "cli.trajectories_s": total(cli_main & (tags == "trajectories")),
        }
        for name in LAYERS:
            m[f"{name}.self_s"] = total(layer == name, self_time)
        return m


def _cli_command(args):
    argv = args[0] if args else None
    return str(argv[0]) if argv else ""
