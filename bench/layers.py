"""Per-layer spans of a traced pass and the metrics made from them.

Each entry of ``LAYER_HOOKS`` names a ``dustmix`` module attribute that its
callers look up at call time and the span its calls are counted under.  The
fit attributes are wrapped by the workloads themselves (``vbi.fit`` span),
in traced and untraced passes alike.  Self time is a span's duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from hooks import Call, Hooks

LAYER_HOOKS = (
    ("dustmix.vbi.corpus_elbo", "vbi.corpus_elbo"),
    ("dustmix.vbi.mstep", "vbi.mstep"),
    ("dustmix.vbi.digamma", "numerics.special"),
    ("dustmix.vbi.log_gamma", "numerics.special"),
    ("dustmix.mstep.digamma", "numerics.special"),
    ("dustmix.mstep.log_gamma", "numerics.special"),
    ("dustmix.mstep.maximize_box", "mstep.maximize_box"),
    ("dustmix.cli.build_report", "posterior.build_report"),
    ("dustmix.posterior.build_report", "posterior.build_report"),
    ("dustmix.posterior.beta_hpdi", "numerics.beta_hpdi"),
    ("dustmix.posterior.density_grid", "posterior.density_grid"),
    ("dustmix.cli.ingest_csv", "cli.ingest"),
    ("dustmix.cli.write_report_json", "cli.write"),
    ("dustmix.cli.write_summary_csv", "cli.write"),
    ("dustmix.cli.write_plot_csvs", "cli.write"),
    ("dustmix.cli._write_elbo_trace", "cli.write"),
    ("dustmix.simulator.generate_corpus", "simulator.generate"),
    ("dustmix.simulator._run_cell", "simulator.cell"),
)


@dataclass
class Observed:
    """What the traced pass reports beyond span times."""

    lbfgs_iters: int = 0
    rows_converged: int = 0
    rows_at_upper: int = 0
    cell_s: list[float] = field(default_factory=list)

    def row(self, call: Call) -> None:
        if call.error is not None:
            return
        bounds = call.kwargs.get("bounds", call.args[2] if len(call.args) > 2 else None)
        result = call.result
        self.lbfgs_iters += result.iterations
        self.rows_converged += bool(result.converged)
        if bounds is not None and np.any(np.asarray(result.x) >= bounds.upper):
            self.rows_at_upper += 1

    def cell(self, call: Call) -> None:
        self.cell_s.append(call.seconds)


def install_layer_hooks(hooks: Hooks) -> Observed:
    observed = Observed()
    observers = {"mstep.maximize_box": observed.row, "simulator.cell": observed.cell}
    for target, span in LAYER_HOOKS:
        hooks.wrap(target, span, observers.get(span))
    return observed


def layer_metrics(hooks: Hooks, observed: Observed, traced,
                  scale: float) -> dict[str, tuple[float, str]]:
    """Counts as counted; times multiplied by ``scale``, the traced pass's
    factor to seconds at the reference speed (``speed.py``)."""
    fit = hooks.span("vbi.fit")
    bound = hooks.span("vbi.corpus_elbo")
    mstep = hooks.span("vbi.mstep")
    rows = hooks.span("mstep.maximize_box")
    special = hooks.span("numerics.special")
    hpdi = hooks.span("numerics.beta_hpdi")
    outer = sum(o.iterations for o in traced.outcomes)
    sweeps = bound.calls - outer
    per_sweep = (fit.total_s - mstep.total_s) / sweeps if sweeps > 0 else 0.0
    cell_s = statistics.median(observed.cell_s) if observed.cell_s else 0.0
    converged = observed.rows_converged / rows.calls if rows.calls else 0.0
    return {
        "vbi.outer_iters": (outer, "count"),
        "vbi.sweeps": (sweeps, "count"),
        "vbi.bound_s": (scale * bound.self_s, "s"),
        "vbi.sweep_self_s": (scale * fit.self_s, "s"),
        "vbi.s_per_sweep": (scale * per_sweep, "s"),
        "mstep.s": (scale * mstep.total_s, "s"),
        "mstep.rows": (rows.calls, "count"),
        "mstep.lbfgs_iters": (observed.lbfgs_iters, "count"),
        "mstep.converged_frac": (converged, "ratio"),
        "mstep.rows_at_upper": (observed.rows_at_upper, "count"),
        "numerics.special_calls": (special.calls, "count"),
        "numerics.special_s": (scale * special.total_s, "s"),
        "numerics.hpdi_calls": (hpdi.calls, "count"),
        "numerics.hpdi_s": (scale * hpdi.total_s, "s"),
        "posterior.report_s": (scale * hooks.span("posterior.build_report").total_s, "s"),
        "posterior.density_grid_s": (scale * hooks.span("posterior.density_grid").total_s, "s"),
        "cli.ingest_s": (scale * hooks.span("cli.ingest").total_s, "s"),
        "cli.write_s": (scale * hooks.span("cli.write").total_s, "s"),
        "simulator.generate_s": (scale * hooks.span("simulator.generate").total_s, "s"),
        "simulator.cell_s": (scale * cell_s, "s"),
    }
