"""Tests of the benchmark's recorder, instrumentation, speed probe and metric names.

    python3 -m pytest perfbench/tests -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

import metrics  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from recorder import NO_PARENT, Recorder, instrument  # noqa: E402
from speed import SpeedProbe  # noqa: E402

from pdeltaflow import cli, solver  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def nested_recorder():
    """a [0, 10] holds b [1, 4] and c [5, 9]; c holds a recursive c [6, 7]."""
    rec = Recorder(clock=fake_clock([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0]))
    with rec.span("a"):
        with rec.span("b"):
            pass
        with rec.span("c"):
            with rec.span("c"):
                pass
    return rec


def test_spans_hold_name_start_end_parent():
    rec = nested_recorder()
    assert rec.names == ["a", "b", "c", "c"]
    assert rec.starts == [0.0, 1.0, 5.0, 6.0]
    assert rec.ends == [10.0, 4.0, 9.0, 7.0]
    assert rec.parents == [NO_PARENT, 0, 0, 2]


def test_self_time_is_duration_minus_children():
    rec = nested_recorder()
    assert rec.self_times() == [10.0 - 3.0 - 4.0, 3.0, 4.0 - 1.0, 1.0]
    assert sum(rec.self_times()) == rec.duration(0)


def test_busy_counts_recursive_calls_once():
    busy = nested_recorder().busy()
    assert busy["a"] == (1, 10.0, 3.0)
    assert busy["b"] == (1, 3.0, 3.0)
    assert busy["c"] == (2, 4.0, 4.0)


def test_close_out_of_order_raises():
    rec = Recorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def snapshot(namespaces, classes):
    return {(id(h), k): v for h in [*namespaces, *classes] for k, v in vars(h).items()}


def test_instrument_restores_every_attribute():
    functions = workloads.program_functions()
    namespaces = workloads.program_namespaces()
    classes = [owner for owner, _ in functions.values() if isinstance(owner, type)]
    before = snapshot(namespaces, classes)
    rec = Recorder()
    with pytest.raises(ZeroDivisionError):
        with instrument(rec, functions, namespaces) as patches:
            assert solver.norm_sym_grad_p is not before[(id(solver), "norm_sym_grad_p")]
            assert any(holder is cli for holder, _, _ in patches)  # from-imports are traced too
            space = cli.build_space(workloads.RectDomain(), 4, 4)
            space.velocity_gradients(np.zeros(space.n_vel))
            1 / 0
    after = snapshot(namespaces, classes)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert "discretization.build_space" in rec.names
    assert "assembly.infsup_proxy" in rec.names
    assert "discretization.velocity_gradients" in rec.names
    n = len(rec)
    cli.build_space(workloads.RectDomain(), 4, 4)
    assert len(rec) == n  # nothing is traced once the block is left


class SmallManufactured(workloads.Manufactured):
    mesh = 4


def traced_metrics(wl, inputs):
    rec = Recorder()
    with instrument(rec, workloads.program_functions(), workloads.program_namespaces()):
        out = wl.run(inputs, rec)
    return out, metrics.per_layer(rec, 0.0, wl.records(out), wl.facts(out), 0.0)


def test_saddle_counts_on_small_manufactured_solve():
    wl = SmallManufactured()
    out, m = traced_metrics(wl, wl.setup(0))
    steps = out["level"].iters
    assert m["solver.picard_steps"] == steps
    assert m["assembly.solve_saddle.calls"] == steps + 1  # Picard steps plus the pressure recovery
    assert m["solver.saddle_calls"] == steps + 1
    assert m["solver.saddle_per_picard"] == (steps + 1) / steps
    assert m["solver.level0.picard_steps"] == steps
    assert m["solver.level1.s"] == 0.0
    assert m["solver.level0.s"] == pytest.approx(
        m["solver.level0.assembly_s"] + m["solver.level0.saddle_s"] + m["solver.level0.other_s"]
    )
    assert m["solver.mms_u_err_l2"] > 0.0


def test_saddle_counts_on_small_certified_solve():
    cfg = cli.RunConfig(
        {
            "domain": {"nx": 8, "ny": 8},
            "characteristics": {"samples": 10000},
            "embedding": {"iters": 10},
            "solver": {"levels": 2},
        }
    )
    wl = workloads.Certified()
    out, m = traced_metrics(wl, cfg)
    assert wl.check(out) == []
    steps = sum(r.iters for r in out["result"].records)
    assert m["solver.picard_steps"] == steps
    assert m["solver.saddle_calls"] == steps + 1
    assert m["assembly.solve_saddle.calls"] == steps + 2  # plus the lift
    assert m["solver.solve_regularized.calls"] == 2
    assert m["lifting.lift.s"] > 0.0
    assert m["counterexample.build_family.s"] == 0.0


class Diverging:
    def run(self, inputs, rec):
        with rec.span("stage.solve"):
            raise ValueError("diverged")

    def check(self, out):
        return []


class Wrong(Diverging):
    def run(self, inputs, rec):
        with rec.span("stage.solve"):
            return {}

    def check(self, out):
        return ["wrong answer"]


def test_failed_operations_are_counted_with_their_timings():
    rec, t0, t1, outcome, failures = run._run_op(Diverging(), None, None)
    assert outcome is None and failures == ["ValueError: diverged"]
    assert t1 > t0 and metrics.stage_time(rec, "solve") > 0.0
    rec, t0, t1, outcome, failures = run._run_op(Wrong(), None, None)
    assert outcome == {} and failures == ["wrong answer"]


def fake_probe(starts, durations):
    probe = SpeedProbe()
    probe.starts, probe.durations = list(starts), list(durations)
    return probe


def test_scaled_time_removes_probes_and_a_uniform_slowdown():
    ref = speed.REF_PROBE_S
    # every probe takes twice the reference: the machine runs at half speed
    probe = fake_probe([0.5 * k for k in range(20)], [2 * ref] * 20)
    assert probe.scaled(1.0, 3.0) == pytest.approx((2.0 - 4 * 2 * ref) / 2)  # probes at 1.0, 1.5, 2.0, 2.5
    # at the reference speed an interval with no probe inside keeps its wall time
    probe = fake_probe([0.5 * k for k in range(20)], [ref] * 20)
    assert probe.scaled(1.1, 1.4) == pytest.approx(0.3)


def test_scaled_time_takes_the_speed_near_the_interval():
    ref = speed.REF_PROBE_S
    starts = [0.1 * k for k in range(100)]
    durations = [ref] * 50 + [3 * ref] * 50  # the machine slows at t = 5
    probe = fake_probe(starts, durations)
    assert probe.scaled(1.0, 2.0) == pytest.approx(1.0 - 10 * ref)
    assert probe.scaled(7.0, 8.0) == pytest.approx((1.0 - 10 * 3 * ref) / 3)
    # a short interval far from every probe takes the speed of the nearest ones
    assert fake_probe(starts[:50], durations[:50]).scaled(20.0, 20.5) == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        fake_probe([], []).scaled(0.0, 1.0)


def test_speed_probe_runs_while_active_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(period=0.005) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
    n = len(probe.durations)
    assert n >= 10 and all(d > 0.0 for d in probe.durations)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    time.sleep(0.02)
    assert len(probe.durations) == n


def test_benchmark_json_matches_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layer == metrics.per_layer_spec()
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
