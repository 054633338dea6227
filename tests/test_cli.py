import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from pdeltaflow.cli import (
    EXIT_CONDITION_FAILED,
    EXIT_INVALID_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    DEFAULT_CONFIG,
    ConfigError,
    RunConfig,
    main,
)


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


QUICK = {
    "seed": 1,
    "domain": {"nx": 8, "ny": 8},
    "characteristics": {"samples": 10000},
    "embedding": {"iters": 30},
    "solver": {"levels": 2, "picard_tol": 1e-8},
}


class TestRunConfig:
    def test_roundtrip(self):
        c = RunConfig({"model": {"p": 1.5}, "seed": 7})
        assert RunConfig.parse(c.serialize()) == c

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig({"nonsense": True})
        with pytest.raises(ConfigError):
            RunConfig({"model": {"viscosity": 1.0}})

    def test_value_validation(self):
        with pytest.raises(ConfigError):
            RunConfig({"model": {"p": 0.5}})
        with pytest.raises(ConfigError):
            RunConfig({"domain": {"nx": 1}})
        with pytest.raises(ConfigError):
            RunConfig({"data": {"g2": ["x", "__import__('os')"]}})
        with pytest.raises(ConfigError):
            RunConfig({"characteristics": {"samples": 10}})

    def test_defaults_valid(self):
        RunConfig()


@pytest.mark.parametrize(
    "bad",
    [
        {"solver": {"levels": 0}},
        {"solver": {"n_schedule": [-10, 0]}},
        {"solver": {"damping": 0}},
        {"model": {"p": "1.8"}},
        {"solver": {"q": "3"}},
        {"solver": {"include_convective": "no"}},
        {"solver": {"penalty": 1}},
        {"domain": {"nx": "8"}},
        {"domain": {"x1": True}},
        {"domain": {"quad_degree": 8.5}},
        {"characteristics": {"samples": "100000"}},
        {"embedding": {"iters": None}},
        {"counterexample": {"R": "1"}},
        {"counterexample": {"n_values": [4, "8"]}},
        {"counterexample": {"n_values": 8}},
        {"model": {"delta": float("nan")}},
        {"counterexample": {"R": float("inf")}},
        {"solver": {"picard_tol": float("inf")}},
        {"counterexample": {"R": -1}},
        {"characteristics": {"dim": 0}},
        {"counterexample": {"levels": 2}},
        {"counterexample": {"levels": 1}},
        {"counterexample": {"base_n": 1}},
        {"counterexample": {"c2": 1.0}},
        {"counterexample": {"width0": 0}},
        {"counterexample": {"F1": 0}},
        {"counterexample": {"n_values": []}},
        {"counterexample": {"n_values": [4, -8]}},
        {"embedding": {"iters": 0}},
        {"solver": {"picard_max": 2.5}},
        {"certify": {"sweep_lambdas": "0.5"}},
        {"seed": "x"},
        {"seed": -1},
    ],
)
def test_bad_solver_and_model_values_exit_4(tmp_path, bad):
    path = _write_cfg(tmp_path, "bad.json", dict(bad, out=str(tmp_path / "t")))
    with pytest.raises(ConfigError):
        RunConfig.load(path)
    assert main(["solve", "--config", path]) == EXIT_INVALID_CONFIG
    assert not (tmp_path / "t").exists()  # rejected before any work


_LEAF = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 0.0, -1, float("nan"), float("inf"), float("-inf")]),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.one_of(st.integers(-1000, 1000), st.floats(allow_nan=True, allow_infinity=True)), max_size=3),
)
_NUMERIC_SECTIONS = ("model", "domain", "characteristics", "embedding", "counterexample", "solver", "certify")


def _numbers(val):
    if isinstance(val, dict):
        return [x for v in val.values() for x in _numbers(v)]
    if isinstance(val, list):
        return [x for v in val for x in _numbers(v)]
    return [val] if isinstance(val, float) else []


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_config_accepts_or_raises_config_error(data):
    raw = {"seed": data.draw(st.one_of(st.just(0), _LEAF))}
    for section in _NUMERIC_SECTIONS:
        keys = data.draw(st.lists(st.sampled_from(sorted(DEFAULT_CONFIG[section])), unique=True, max_size=3))
        raw[section] = {k: data.draw(st.one_of(st.just(DEFAULT_CONFIG[section][k]), _LEAF)) for k in keys}
    try:
        cfg = RunConfig(raw)
    except ConfigError:
        return
    assert all(math.isfinite(x) for x in _numbers(cfg.data))


class TestExitCodes:
    def test_invalid_config_file(self, tmp_path):
        path = _write_cfg(tmp_path, "bad.json", {"model": {"p": 0.5}})
        assert main(["certify", "--config", path]) == EXIT_INVALID_CONFIG

    def test_bad_out_and_seed_override(self, tmp_path):
        path = _write_cfg(tmp_path, "c.json", {"out": 5})
        assert main(["verify-lemmas", "--config", path]) == EXIT_INVALID_CONFIG
        assert main(["verify-lemmas", "--seed", "-1", "--out", str(tmp_path / "t")]) == EXIT_INVALID_CONFIG
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("command", ["certify", "solve", "verify-lemmas"])
    def test_p2_rejected_before_work(self, tmp_path, command):
        cfg = dict(QUICK, out=str(tmp_path / "t"), model={"p": 2.0})
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main([command, "--config", path]) == EXIT_INVALID_CONFIG
        assert not (tmp_path / "t").exists()

    def test_check_tensor_pass(self, tmp_path):
        cfg = dict(QUICK, out=str(tmp_path / "t"), model={"p": 2.0, "delta": 0.0, "mu0": 0.0, "mu": 1.0})
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["check-tensor", "--config", path]) == EXIT_OK
        rep = json.loads((tmp_path / "t" / "tensor_report.json").read_text())
        assert rep["verdict"] == "pass"
        assert abs(rep["characteristics"]["C1"] - 1.0) < 1e-10

    def test_check_tensor_power_law(self, tmp_path):
        cfg = dict(QUICK, out=str(tmp_path / "t"), model={"p": 1.5, "delta": 0.1, "mu0": 0.0, "mu": 1.0})
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["check-tensor", "--config", path]) == EXIT_OK

    def test_certify_small_data(self, tmp_path):
        cfg = dict(QUICK, out=str(tmp_path / "t"))
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["certify", "--config", path]) == EXIT_OK
        rep = json.loads((tmp_path / "t" / "certificate.json").read_text())
        assert rep["satisfied"] and rep["R"] > 0

    def test_certify_zero_data(self, tmp_path):
        # delta = 0 so the offset-weighted shear norm vanishes with the data
        cfg = dict(QUICK, out=str(tmp_path / "t"), model={"p": 1.8, "delta": 0.0, "mu0": 0.0, "mu": 1.0})
        cfg["data"] = {"g1": "0", "g2": ["0", "0"], "f": ["0", "0"]}
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["certify", "--config", path]) == EXIT_OK
        rep = json.loads((tmp_path / "t" / "certificate.json").read_text())
        assert rep["satisfied"] and rep["R"] == 0.0

    def test_certify_large_data_fails(self, tmp_path):
        cfg = dict(QUICK, out=str(tmp_path / "t"))
        cfg["data"] = {
            "g1": "0",
            "g2": ["8 * pi * sin(pi*x) * cos(pi*y)", "-8 * pi * cos(pi*x) * sin(pi*y)"],
            "f": ["0", "0"],
        }
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["certify", "--config", path]) == EXIT_CONDITION_FAILED

    def test_certify_incompatible_data(self, tmp_path):
        cfg = dict(QUICK, out=str(tmp_path / "t"))
        cfg["data"] = {"g1": "1", "g2": ["0", "0"], "f": ["0", "0"]}
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["certify", "--config", path]) == EXIT_NUMERICAL
        rep = json.loads((tmp_path / "t" / "certificate.json").read_text())
        assert "error" in rep

    def test_solve_refused_then_override(self, tmp_path):
        cfg = dict(QUICK, out=str(tmp_path / "t"))
        cfg["data"] = {
            "g1": "0",
            "g2": ["6 * pi * sin(pi*x) * cos(pi*y)", "-6 * pi * cos(pi*x) * sin(pi*y)"],
            "f": ["0", "0"],
        }
        cfg["solver"] = {"levels": 1, "picard_tol": 1e-7, "picard_max": 80}
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["solve", "--config", path]) == EXIT_CONDITION_FAILED
        rep = json.loads((tmp_path / "t" / "solve_report.json").read_text())
        assert "refused" in rep
        assert main(["solve", "--config", path, "--override-certification"]) == EXIT_OK

    def test_solve_certified(self, tmp_path):
        cfg = dict(QUICK, out=str(tmp_path / "t"))
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["solve", "--config", path]) == EXIT_OK
        hist = (tmp_path / "t" / "solve_history.csv").read_text().strip().splitlines()
        assert hist[0] == "n,iters,residual,penalty_norm,norm_Du_p,norm_Du_q"
        assert len(hist) == 3
        rep = json.loads((tmp_path / "t" / "solve_report.json").read_text())
        assert rep["bound_ok"] and rep["penalty_ok"]

    def test_counterexample(self, tmp_path):
        cfg = {
            "seed": 1,
            "out": str(tmp_path / "t"),
            "counterexample": {"levels": 3, "n_values": [4, 12, 16, 24]},
        }
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["counterexample", "--config", path]) == EXIT_OK
        rep = json.loads((tmp_path / "t" / "counterexample.json").read_text())
        assert rep["negativity_exhibited"] and rep["N0"] is not None

    def test_counterexample_shallow_family(self, tmp_path):
        # a valid config whose bumps are too wide for the coarse meshes: the
        # q/p ratios do not increase and the family build fails
        cfg = {"out": str(tmp_path / "t"), "counterexample": {"levels": 3, "base_n": 2, "width0": 2.0}}
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["counterexample", "--config", path]) == EXIT_NUMERICAL

    def test_counterexample_overflow_is_numerical(self, tmp_path):
        # R^(q-1) in the step-1 threshold overflows a Python float: OverflowError
        cfg = {"out": str(tmp_path / "t"), "counterexample": {"levels": 3, "base_n": 4, "R": 1e200}}
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["counterexample", "--config", path]) == EXIT_NUMERICAL

    def test_verify_lemmas(self, tmp_path):
        cfg = dict(QUICK, out=str(tmp_path / "t"))
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["verify-lemmas", "--config", path]) == EXIT_OK
        rep = json.loads((tmp_path / "t" / "lemma_report.json").read_text())
        assert rep["all_pass"]

    def test_lift_command(self, tmp_path):
        cfg = dict(QUICK, out=str(tmp_path / "t"))
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["lift", "--config", path]) == EXIT_OK
        rep = json.loads((tmp_path / "t" / "lift_report.json").read_text())
        assert rep["div_defect"] <= 1e-8
        assert (tmp_path / "t" / "lift_g.txt").exists()


def test_reports_deterministic(tmp_path):
    cfg = dict(QUICK)
    path = _write_cfg(tmp_path, "c.json", cfg)
    for cmd in ("check-tensor", "certify"):
        out_a = str(tmp_path / f"{cmd}-a")
        out_b = str(tmp_path / f"{cmd}-b")
        assert main([cmd, "--config", path, "--out", out_a]) == EXIT_OK
        assert main([cmd, "--config", path, "--out", out_b]) == EXIT_OK
        name = "tensor_report.json" if cmd == "check-tensor" else "certificate.json"
        assert (tmp_path / f"{cmd}-a" / name).read_bytes() == (tmp_path / f"{cmd}-b" / name).read_bytes()


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(max_examples=20, deadline=None)
@given(
    base_n=st.integers(2, 4),
    width0=_log_uniform(1e-3, 1e3),
    R=_log_uniform(1e-3, 1e3),
    F1=_log_uniform(1e-3, 1e3),
    G1=_log_uniform(1e-3, 1e3),
    c2=st.floats(1.0 + 1e-3, 100.0),
    n_values=st.lists(st.floats(1.0, 1e4), min_size=1, max_size=4),
)
def test_counterexample_exit_codes(tmp_path_factory, base_n, width0, R, F1, G1, c2, n_values):
    out = tmp_path_factory.mktemp("ce")
    ce = {"levels": 3, "base_n": base_n, "width0": width0, "R": R, "F1": F1, "G1": G1, "c2": c2, "n_values": n_values}
    path = _write_cfg(out, "c.json", {"out": str(out / "t"), "counterexample": ce})
    assert main(["counterexample", "--config", path]) in (EXIT_OK, EXIT_CONDITION_FAILED, EXIT_NUMERICAL)


def test_certify_near_p_one_is_finite(tmp_path):
    # p = 1.001 gives s = 500.5 and 2p' = 2002; the Sobolev estimate must not come out NaN
    cfg = dict(QUICK, out=str(tmp_path / "t"), domain={"nx": 4, "ny": 4})
    cfg["model"] = {"p": 1.001, "delta": 0.0, "mu0": 0.0, "mu": 1.0}
    cfg["data"] = {"g1": "0", "g2": ["0", "0"], "f": ["0", "0"]}
    path = _write_cfg(tmp_path, "c.json", cfg)
    assert main(["certify", "--config", path]) == EXIT_OK
    emb = json.loads((tmp_path / "t" / "certificate.json").read_text())["provenance"]["embedding"]
    assert all(math.isfinite(emb[k]) for k in ("korn_p", "sob_p_to_pstar", "sob_s_to_2pprime"))


def test_lift_overflow_is_numerical(tmp_path):
    # |Dg|^500.5 overflows unscaled where |Dg| > 1; the norms are taken at the largest modulus' scale
    cfg = dict(QUICK, out=str(tmp_path / "t"), domain={"nx": 4, "ny": 4})
    cfg["model"] = {"p": 1.001, "delta": 0.0, "mu0": 0.0, "mu": 1.0}
    cfg["data"] = {"g1": "0", "g2": ["pi * sin(pi*x) * cos(pi*y)", "-pi * cos(pi*x) * sin(pi*y)"], "f": ["0", "0"]}
    path = _write_cfg(tmp_path, "c.json", cfg)
    assert main(["lift", "--config", path]) == EXIT_OK
    norms = json.loads((tmp_path / "t" / "lift_report.json").read_text())["norms"]
    for key in ("Dg_s", "W1s", "div_s"):
        assert math.isfinite(norms[key]) and norms[key] > 0.0, key


def test_lift_near_p_one_norms_are_nonzero(tmp_path):
    # at s = 500.5 the unscaled |Dg|^s of the default data underflowed, and Dg_s, W1s and div_s read 0.0
    cfg = dict(QUICK, out=str(tmp_path / "t"), model={"p": 1.001})
    path = _write_cfg(tmp_path, "c.json", cfg)
    assert main(["lift", "--config", path]) == EXIT_OK
    norms = json.loads((tmp_path / "t" / "lift_report.json").read_text())["norms"]
    for key in ("Dg_s", "W1s", "div_s"):
        assert math.isfinite(norms[key]) and norms[key] > 0.0, key
    assert norms["Dg_s"] >= norms["Dg_p"]  # ||.||_s grows with s on the unit square


_AMPLITUDE = st.one_of(st.just(0.0), _log_uniform(1e-6, 1e3))


@settings(max_examples=20, deadline=None)
@given(
    command=st.sampled_from(["lift", "certify", "solve"]),
    model=st.fixed_dictionaries(
        {"p": st.floats(1.001, 2.0), "delta": st.floats(0.0, 1.0), "mu0": st.floats(0.0, 1.0), "mu": _log_uniform(1e-3, 1e3)}
    ),
    g1=_AMPLITUDE,
    g2=_AMPLITUDE,
    f=_AMPLITUDE,
    solver=st.fixed_dictionaries(
        {
            "levels": st.integers(1, 3),
            "picard_tol": _log_uniform(1e-12, 1e-3),
            "picard_max": st.integers(1, 40),
            "damping": _log_uniform(1e-3, 1.0),
            "include_convective": st.booleans(),
            "penalty": st.booleans(),
        }
    ),
    override=st.booleans(),
)
def test_pipeline_exit_codes(tmp_path_factory, command, model, g1, g2, f, solver, override):
    # an uncaught exception (a warning included, under the suite's filters) fails the example
    out = tmp_path_factory.mktemp("run")
    data = {
        "g1": f"{g1!r} * sin(2*pi*x) * sin(2*pi*y)",
        "g2": [f"{g2!r} * pi * sin(pi*x) * cos(pi*y)", f"-{g2!r} * pi * cos(pi*x) * sin(pi*y)"],
        "f": [f"{f!r} * sin(pi*y)", f"{f!r} * x"],
    }
    cfg = {
        "out": str(out / "t"),
        "model": model,
        "domain": {"nx": 4, "ny": 4},
        "characteristics": {"samples": 10000},
        "data": data,
        "solver": solver,
    }
    argv = [command, "--config", _write_cfg(out, "c.json", cfg)] + ["--override-certification"] * override
    assert main(argv) in (EXIT_OK, EXIT_CONDITION_FAILED, EXIT_NUMERICAL, EXIT_INVALID_CONFIG)
