"""Metric names, units and their computation from one operation.

End-to-end metrics come from an untraced run; per-layer metrics from a
traced run, whose recorder holds one span per call into a public
function of the program (see ``workloads.program_functions``).
"""

from __future__ import annotations

import statistics

LAYERS = ("constitutive", "discretization", "assembly", "lifting", "certifier", "solver", "counterexample")

# name -> (unit, better)
END_TO_END = {
    "total_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# public function -> reported fields: "calls" (count) and busy "s"
BUSY = (
    ("discretization.build_space", ("s",)),
    ("discretization.estimate_embedding_constants", ("s",)),
    ("discretization.velocity_gradients", ("calls", "s")),
    ("discretization.velocity_values", ("calls", "s")),
    ("discretization.norm_sym_grad_p", ("calls", "s")),
    ("assembly.solve_saddle", ("calls", "s")),
    ("assembly.sym_grad_stiffness", ("s",)),
    ("assembly.transport_matrix", ("s",)),
    ("assembly.stress_load", ("calls", "s")),
    ("assembly.velocity_load", ("s",)),
    ("assembly.grad_seminorm_gradient", ("calls", "s")),
    ("assembly.seminorm_pth_power", ("s",)),
    ("assembly.value_norm_gradient", ("s",)),
    ("assembly.infsup_proxy", ("s",)),
    ("constitutive.estimate_characteristics", ("s",)),
    ("constitutive.eval_stress", ("calls", "s")),
    ("lifting.lift", ("s",)),
    ("certifier.compute_constants", ("s",)),
    ("certifier.check_smallness", ("s",)),
    ("solver.make_instance", ("s",)),
    ("solver.continuation_solve", ("s",)),
    ("solver.solve_regularized", ("calls", "s")),
    ("solver.recover_pressure", ("s",)),
    ("solver.convective_identity_diagnostics", ("s",)),
    ("counterexample.build_family", ("s",)),
    ("counterexample.counterexample_scan", ("s",)),
    ("counterexample.construct_u_n", ("calls", "s")),
)
LEVELS = 7  # continuation levels of the default schedule
LEVEL_FIELDS = (("s", "s"), ("picard_steps", "count"), ("assembly_s", "s"), ("saddle_s", "s"), ("other_s", "s"))
DERIVED = {
    "stage.prepare_s": ("s", "lower"),
    "stage.solve_s": ("s", "lower"),
    "discretization.embedding_converged": ("count", "higher"),
    "solver.picard_steps": ("count", "lower"),
    "solver.saddle_calls": ("count", "lower"),
    "solver.saddle_per_picard": ("ratio", "lower"),
    "solver.picard_contraction": ("ratio", "lower"),
    "solver.mms_u_err_l2": ("norm", "lower"),
    "solver.mms_p_err_l2": ("norm", "lower"),
    "trace.total_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_est_s": ("s", "lower"),
}


def per_layer_spec():
    """Ordered name -> (unit, better) of every per-layer metric."""
    out = {}
    for fn, fields in BUSY:
        for f in fields:
            out[f"{fn}.{f}"] = ("count" if f == "calls" else "s", "lower")
    out.update({f"{layer}.self_s": ("s", "lower") for layer in LAYERS})
    for k in range(LEVELS):
        out.update({f"solver.level{k}.{f}": (unit, "lower") for f, unit in LEVEL_FIELDS})
    out.update(DERIVED)
    return out


def stage_time(rec, stage):
    """Seconds spent in the benchmark's ``stage.<stage>`` spans."""
    return sum(rec.duration(i) for i, n in enumerate(rec.names) if n == f"stage.{stage}")


def _level_split(rec, idx, kids):
    """Split a level's time into assembly calls, saddle solves and the rest."""
    assembly = saddle = 0.0
    stack = list(kids[idx])
    while stack:
        i = stack.pop()
        name = rec.names[i]
        if name == "assembly.solve_saddle":
            saddle += rec.duration(i)
        elif name.startswith("assembly."):
            assembly += rec.duration(i)
        else:
            stack.extend(kids[i])
    return assembly, saddle, rec.duration(idx) - assembly - saddle


def _contraction(records):
    """Median ratio of successive Picard residuals, pooled over levels."""
    ratios = [b / a for r in records for a, b in zip(r.residual_history[:-1], r.residual_history[1:]) if a > 0]
    return statistics.median(ratios) if ratios else 0.0


def per_layer(rec, total_s, records, facts, wrapper_cost):
    """Per-layer metrics of one traced operation.

    ``total_s`` is the operation's traced wall time, ``records`` its solver
    LevelRecords in order, ``facts`` the workload's own per-layer figures
    and ``wrapper_cost`` the seconds one traced call adds.  Metrics a
    workload does not exercise read 0.
    """
    out = dict.fromkeys(per_layer_spec(), 0.0)
    busy = rec.busy()
    for fn, fields in BUSY:
        calls, seconds, _ = busy.get(fn, (0, 0.0, 0.0))
        for f in fields:
            out[f"{fn}.{f}"] = calls if f == "calls" else seconds
    for name, (_, _, own) in busy.items():
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += own

    kids = rec.children()
    levels = [i for i, n in enumerate(rec.names) if n == "solver.solve_regularized"]
    for k, idx in enumerate(levels[:LEVELS]):
        assembly, saddle, other = _level_split(rec, idx, kids)
        out[f"solver.level{k}.s"] = rec.duration(idx)
        out[f"solver.level{k}.assembly_s"] = assembly
        out[f"solver.level{k}.saddle_s"] = saddle
        out[f"solver.level{k}.other_s"] = other
    for k, r in enumerate(records[:LEVELS]):
        out[f"solver.level{k}.picard_steps"] = r.iters

    steps = sum(r.iters for r in records)
    saddles = sum(
        1
        for i, n in enumerate(rec.names)
        if n == "assembly.solve_saddle" and any(rec.names[a].startswith("solver.") for a in rec.ancestors(i))
    )
    out["solver.picard_steps"] = steps
    out["solver.saddle_calls"] = saddles
    out["solver.saddle_per_picard"] = saddles / steps if steps else 0.0
    out["solver.picard_contraction"] = _contraction(records)
    out["stage.prepare_s"] = stage_time(rec, "prepare")
    out["stage.solve_s"] = stage_time(rec, "solve")
    out["trace.total_s"] = total_s
    out["trace.spans"] = len(rec)
    out["trace.overhead_est_s"] = len(rec) * wrapper_cost
    unknown = set(facts) - set(out)
    if unknown:
        raise KeyError(f"facts without a per-layer metric: {sorted(unknown)}")
    out.update(facts)
    return out
