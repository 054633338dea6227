import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from pdeltaflow import cli
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
from pdeltaflow.constitutive import PDeltaModel, inequality_sweep
from pdeltaflow.counterexample import FamilyError, build_family, counterexample_scan
from pdeltaflow.discretization import RectDomain, build_space, estimate_embedding_constants
from pdeltaflow.lifting import BoundaryData


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
        {"solver": {"picard_tol": True}},
        {"solver": {"q": True}},
        {"solver": {"levels": True}},
        {"solver": {"n_schedule": [True]}},
        {"solver": {"n_schedule": [10, 40, True]}},
        {"counterexample": {"R": -1}},
        {"characteristics": {"dim": 0}},
        {"counterexample": {"levels": 2}},
        {"counterexample": {"levels": 1}},
        {"counterexample": {"base_n": 1}},
        {"counterexample": {"c2": 1.0}},
        {"counterexample": {"width0": 0}},
        {"counterexample": {"F1": 0}},
        {"counterexample": {"G1": 0}},
        {"counterexample": {"G1": -1}},
        {"counterexample": {"n_values": []}},
        {"counterexample": {"n_values": [4, -8]}},
        {"embedding": {"iters": 0}},
        {"solver": {"picard_max": 2.5}},
        {"certify": {"sweep_lambdas": "0.5"}},
        {"seed": "x"},
        {"seed": -1},
        {"domain": {"quad_degree": -3}},
        {"domain": {"quad_degree": 0}},
        {"domain": {"quad_degree": 1}},
        {"data": {"g1": 5}},
        {"data": {"g2": [1, "0"]}},
        {"data": {"f": [None, "0"]}},
        {"solver": {"levels": 600}},
        {"solver": {"n_schedule": [10, 10**400]}},
    ],
)
def test_bad_solver_and_model_values_exit_4(tmp_path, bad):
    path = _write_cfg(tmp_path, "bad.json", dict(bad, out=str(tmp_path / "t")))
    with pytest.raises(ConfigError):
        RunConfig.load(path)
    assert main(["solve", "--config", path]) == EXIT_INVALID_CONFIG
    assert not (tmp_path / "t").exists()  # rejected before any work


@pytest.mark.parametrize(
    "section, bad, call",
    [
        ("domain", {"nx": 1}, lambda fam: build_space(RectDomain(), 1, 16)),
        ("domain", {"ny": 0}, lambda fam: build_space(RectDomain(), 16, 0)),
        ("domain", {"quad_degree": 1}, lambda fam: build_space(RectDomain(), 16, 16, quad_degree=1)),
        ("characteristics", {"samples": 9999}, lambda fam: inequality_sweep(PDeltaModel(1.8), samples=9999)),
        ("characteristics", {"dim": 4}, lambda fam: inequality_sweep(PDeltaModel(1.8), dim=4)),
        ("characteristics", {"dim": 0}, lambda fam: inequality_sweep(PDeltaModel(1.8), dim=0)),
        ("counterexample", {"levels": 2}, lambda fam: build_family(2)),
        ("counterexample", {"base_n": 1}, lambda fam: build_family(4, base_n=1)),
        ("counterexample", {"width0": 0}, lambda fam: build_family(4, width0=0)),
        ("counterexample", {"q": 1.5}, lambda fam: build_family(4, q=1.5)),
        ("counterexample", {"p": 3.5}, lambda fam: build_family(4, p=3.5)),
        ("counterexample", {"R": 0}, lambda fam: counterexample_scan(fam, [4], R=0)),
        ("counterexample", {"F1": 0}, lambda fam: counterexample_scan(fam, [4], F1=0)),
        ("counterexample", {"G1": -1}, lambda fam: counterexample_scan(fam, [4], G1=-1)),
        ("counterexample", {"c2": 1.0}, lambda fam: counterexample_scan(fam, [4], c2=1.0)),
        ("counterexample", {"n_values": []}, lambda fam: counterexample_scan(fam, [])),
        ("counterexample", {"n_values": [4, -8]}, lambda fam: counterexample_scan(fam, [4, -8])),
        ("embedding", {"iters": 0}, lambda fam: estimate_embedding_constants(build_space(RectDomain(), 4, 4), 1.8, 1.8, iters=0)),
    ],
    ids=lambda v: "call" if callable(v) else str(v),
)
def test_config_range_message_is_the_library_calls(tmp_path, capsys, section, bad, call):
    # each range rule lives in the library call that consumes the section; the config runs it at load
    with pytest.raises((ValueError, FamilyError)) as info:
        call(build_family(3, base_n=4))
    path = _write_cfg(tmp_path, "bad.json", {section: bad, "out": str(tmp_path / "t")})
    assert main(["counterexample", "--config", path]) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err == f"invalid config: bad {section} section: {info.value}\n"
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("key", ["nx", "ny", "quad_degree"])
@pytest.mark.parametrize("value", [10**20, 10**4000], ids=["1e20", "1e4000"])
def test_huge_mesh_is_a_config_error(tmp_path, capsys, key, value):
    # no memory holds such a space: a config error, not a run that fails converting the size to a float
    path = _write_cfg(tmp_path, "c.json", {"domain": {key: value}, "out": str(tmp_path / "t")})
    assert main(["lift", "--config", path]) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err.startswith("invalid config: bad domain section: need ")
    assert not (tmp_path / "t").exists()


def test_mesh_bounds_accept_large_meshes():
    assert RunConfig({"domain": {"nx": 256, "ny": 256, "quad_degree": 10}})["domain"]["nx"] == 256


_HUGE_KEYS = [
    ("model", "p"),
    ("model", "delta"),
    ("domain", "nx"),
    ("domain", "quad_degree"),
    ("characteristics", "samples"),
    ("solver", "picard_max"),
    ("counterexample", "levels"),
    ("counterexample", "R"),
]


@pytest.mark.parametrize(
    "raw",
    [{"seed": "x" * 20000}, {"k" * 20000: 1}, {"model": {"p": "y" * 20000}}, {"out": "o" * 20000}, {"out": "a\0b"}]
    # a 4001-digit integer in a range the library calls check
    + [{section: {key: -(10**4000)}} for section, key in _HUGE_KEYS],
    ids=["value", "key", "nested-value", "long-out", "nul-out"] + [f"huge-{s}.{k}" for s, k in _HUGE_KEYS],
)
def test_invalid_config_message_is_one_short_line(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.chdir(tmp_path)
    assert main(["lift", "--config", _write_cfg(tmp_path, "c.json", raw)]) == EXIT_INVALID_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1 and len(err.encode()) < 300


def test_integer_past_the_digit_limit_exits_4(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"seed": ' + "1" * 5000 + "}")
    assert main(["lift", "--config", str(path), "--out", str(tmp_path / "t")]) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err.startswith("invalid config: ")
    assert not (tmp_path / "t").exists()


# the default config's text; DEFAULT_CONFIG reads most of it from library signatures,
# so a changed library default shows here rather than moving the command line's default
_DEFAULT_TEXT = """{
  "certify": {
    "sweep_lambdas": null
  },
  "characteristics": {
    "dim": 2,
    "samples": 100000
  },
  "counterexample": {
    "F1": 1.0,
    "G1": 1.0,
    "R": 1.0,
    "base_n": 8,
    "c2": 2.0,
    "levels": 4,
    "n_values": [
      2,
      4,
      8,
      12,
      16,
      24,
      32,
      64,
      128,
      256
    ],
    "p": 1.5,
    "q": 3.0,
    "width0": 0.32
  },
  "data": {
    "f": [
      "0",
      "0"
    ],
    "g1": "0",
    "g2": [
      "0.01 * pi * sin(pi*x) * cos(pi*y)",
      "-0.01 * pi * cos(pi*x) * sin(pi*y)"
    ]
  },
  "domain": {
    "nx": 16,
    "ny": 16,
    "quad_degree": 8,
    "x0": 0.0,
    "x1": 1.0,
    "y0": 0.0,
    "y1": 1.0
  },
  "embedding": {
    "iters": 40
  },
  "model": {
    "delta": 0.01,
    "mu": 1.0,
    "mu0": 0.0,
    "p": 1.8
  },
  "out": "runs/out",
  "seed": 0,
  "solver": {
    "include_convective": true,
    "levels": 7,
    "n_schedule": null,
    "penalty": true,
    "picard_max": 50,
    "picard_tol": 1e-09,
    "q": null
  }
}"""


def test_default_config_is_pinned():
    assert RunConfig().serialize() == _DEFAULT_TEXT


_LEAF = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 0.0, -1, float("nan"), float("inf"), float("-inf")]),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.one_of(st.integers(-1000, 1000), st.floats(allow_nan=True, allow_infinity=True)), max_size=3),
)
_EXPRESSION = st.sampled_from(["0", " 0", "x", "sin(pi*x) * y", "1 +", "z", "__import__('os')"])


def _numbers(val):
    if isinstance(val, dict):
        return [x for v in val.values() for x in _numbers(v)]
    if isinstance(val, list):
        return [x for v in val for x in _numbers(v)]
    return [val] if isinstance(val, float) else []


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_config_accepts_or_raises_config_error(data):
    leaf = {"data": st.one_of(_LEAF, _EXPRESSION, st.lists(st.one_of(_EXPRESSION, _LEAF), max_size=3))}
    raw = {}
    # a few root keys and sections at a time, so that one bad value does not hide the others' checks
    for name in data.draw(st.lists(st.sampled_from(sorted(DEFAULT_CONFIG)), unique=True, max_size=3)):
        default = DEFAULT_CONFIG[name]
        if not isinstance(default, dict):
            raw[name] = data.draw(st.one_of(st.just(default), _LEAF))
            continue
        keys = data.draw(st.lists(st.sampled_from(sorted(default)), unique=True, max_size=3))
        raw[name] = {k: data.draw(st.one_of(st.just(default[k]), leaf.get(name, _LEAF))) for k in keys}
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

    def test_out_naming_a_file_exits_4(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(["verify-lemmas", "--out", str(tmp_path / "file")]) == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err.startswith("invalid config: out ")
        assert (tmp_path / "file").read_text() == ""

    def test_empty_out_exits_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["verify-lemmas", "--config", _write_cfg(tmp_path, "c.json", {"out": ""})]) == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err.startswith("invalid config: out ")
        assert not (tmp_path / "config.json").exists()

    def test_config_not_utf8_exits_4(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff\xfe" + json.dumps({"out": str(tmp_path / "t")}).encode("utf-16-le"))
        assert main(["verify-lemmas", "--config", str(path)]) == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err.startswith("invalid config: ")
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("doc", [None, [], 0, False, ""])
    def test_config_not_an_object_exits_4(self, tmp_path, monkeypatch, capsys, doc):
        monkeypatch.chdir(tmp_path)
        path = _write_cfg(tmp_path, "c.json", doc)
        with pytest.raises(ConfigError, match="section <root> must be an object"):
            RunConfig.load(path)
        assert main(["verify-lemmas", "--config", path]) == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err == "invalid config: section <root> must be an object\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["certify", "solve", "verify-lemmas"])
    def test_p2_rejected_before_work(self, tmp_path, command):
        cfg = dict(QUICK, out=str(tmp_path / "t"), model={"p": 2.0})
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main([command, "--config", path]) == EXIT_INVALID_CONFIG
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("command", ["certify", "solve", "check-tensor"])
    def test_mu0_with_p_below_2_rejected_before_work(self, tmp_path, capsys, command):
        # B = 0 gives the C2 ratio mu0 (delta + |A|)**(2-p) + mu, which has no bound
        cfg = {"domain": {"nx": 8, "ny": 8}, "model": {"mu0": 0.5}, "out": str(tmp_path / "t")}
        assert main([command, "--config", _write_cfg(tmp_path, "c.json", cfg)]) == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err.startswith("invalid config: bad model section: mu0 > 0 with p < 2 has no finite")
        assert not (tmp_path / "t").exists()

    def test_mu0_at_p2_checks_the_tensor(self, tmp_path):
        cfg = dict(QUICK, out=str(tmp_path / "t"), model={"p": 2.0, "mu0": 0.5, "mu": 1.0})
        assert main(["check-tensor", "--config", _write_cfg(tmp_path, "c.json", cfg)]) == EXIT_OK
        chars = json.loads((tmp_path / "t" / "tensor_report.json").read_text())["characteristics"]
        assert (chars["C1"], chars["C2"], chars["C3"]) == (1.5, 1.5, 3.0)

    def test_certify_characteristics_are_seed_free(self, tmp_path, monkeypatch):
        from pdeltaflow import constitutive

        calls = []
        monkeypatch.setattr(constitutive, "_sample_pairs", lambda *args: calls.append(args))
        path = _write_cfg(tmp_path, "c.json", QUICK)
        for seed in ("0", "7"):
            assert main(["certify", "--config", path, "--seed", seed, "--out", str(tmp_path / seed)]) == EXIT_OK
        prov = [json.loads((tmp_path / seed / "certificate.json").read_text())["provenance"] for seed in ("0", "7")]
        assert prov[0]["characteristics"] == prov[1]["characteristics"]
        assert calls == []

    def test_check_tensor_pass(self, tmp_path):
        cfg = dict(QUICK, out=str(tmp_path / "t"), model={"p": 2.0, "delta": 0.0, "mu0": 0.0, "mu": 1.0})
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["check-tensor", "--config", path]) == EXIT_OK
        rep = json.loads((tmp_path / "t" / "tensor_report.json").read_text())
        assert rep["verdict"] == "pass"
        assert abs(rep["characteristics"]["C1"] - 1.0) < 1e-10

    def test_check_tensor_draws_one_sample(self, tmp_path, monkeypatch):
        from pdeltaflow import constitutive

        calls = []
        for name in ("_sample_pairs", "_growth_ratios"):
            def counted(*args, _real=getattr(constitutive, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(constitutive, name, counted)
        path = _write_cfg(tmp_path, "c.json", dict(QUICK, out=str(tmp_path / "t")))
        assert main(["check-tensor", "--config", path]) == EXIT_OK
        assert sorted(calls) == ["_growth_ratios", "_sample_pairs"]

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
        # the refusal carries the failed certificate, as certify reports it, and writes no history
        assert main(["certify", "--config", path, "--out", str(tmp_path / "c")]) == EXIT_CONDITION_FAILED
        cert = json.loads((tmp_path / "c" / "certificate.json").read_text())
        want = {"refused": "certification failed; rerun with --override-certification", "certificate": cert}
        got = (tmp_path / "t" / "solve_report.json").read_text()
        assert got == json.dumps(want, sort_keys=True, indent=2) + "\n"
        assert not (tmp_path / "t" / "solve_history.csv").exists()
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

    @pytest.mark.parametrize("reason", ["Unable to allocate 21.8 TiB", ""])
    def test_allocation_failure_is_numerical(self, tmp_path, monkeypatch, capsys, reason):
        # a stage that cannot allocate its arrays ends on exit 3, not on a traceback
        def fail(*args, **kw):
            raise MemoryError(reason)

        monkeypatch.setattr(cli, "inequality_sweep", fail)
        path = _write_cfg(tmp_path, "c.json", dict(QUICK, out=str(tmp_path / "t")))
        assert main(["check-tensor", "--config", path]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"run failed: {reason or 'MemoryError'}\n"

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

    def test_verify_lemmas_checks_s_against_the_branch_table(self, tmp_path, monkeypatch):
        # s = p misses the table's (p*/2)' branch at p <= 3d/(d+2)
        monkeypatch.setattr(cli.certifier, "compute_s", lambda p, d: p)
        assert main(["verify-lemmas", "--out", str(tmp_path / "t")]) == EXIT_CONDITION_FAILED
        rep = json.loads((tmp_path / "t" / "lemma_report.json").read_text())
        assert rep["checks"]["s_branch_table"] == {"pass": False}
        assert not rep["all_pass"]

    def test_lift_command(self, tmp_path):
        cfg = dict(QUICK, out=str(tmp_path / "t"))
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["lift", "--config", path]) == EXIT_OK
        rep = json.loads((tmp_path / "t" / "lift_report.json").read_text())
        assert rep["div_defect"] <= 1e-8
        assert (tmp_path / "t" / "lift_g.txt").exists()

    def test_lift_evaluates_the_data_once(self, tmp_path, monkeypatch):
        calls = {"g1_values": 0, "g2_dof_values": 0}
        for name in calls:
            method = getattr(BoundaryData, name)

            def counted(self, space, name=name, method=method):
                calls[name] += 1
                return method(self, space)

            monkeypatch.setattr(BoundaryData, name, counted)
        cfg = dict(QUICK, out=str(tmp_path / "t"))
        assert main(["lift", "--config", _write_cfg(tmp_path, "c.json", cfg)]) == EXIT_OK
        assert calls == {"g1_values": 1, "g2_dof_values": 1}

    def test_solve_evaluates_the_body_force_once(self, tmp_path, monkeypatch):
        calls = {"make_instance": 0, "_load_vector": 0}
        for name in calls:
            fun = getattr(cli.solver, name)

            def counted(*args, name=name, fun=fun, **kwargs):
                calls[name] += 1
                return fun(*args, **kwargs)

            monkeypatch.setattr(cli.solver, name, counted)
        cfg = dict(QUICK, out=str(tmp_path / "t"), solver={"levels": 1})
        cfg["data"] = {"f": ["0.01 * sin(pi*y)", "0.01 * x"]}
        path = _write_cfg(tmp_path, "c.json", cfg)
        assert main(["solve", "--config", path, "--override-certification"]) == EXIT_OK
        assert calls == {"make_instance": 1, "_load_vector": 1}

    def test_lift_incompatible_data(self, tmp_path):
        cfg = dict(QUICK, out=str(tmp_path / "t"))
        cfg["data"] = {"g1": "1", "g2": ["0", "0"], "f": ["0", "0"]}
        assert main(["lift", "--config", _write_cfg(tmp_path, "c.json", cfg)]) == EXIT_NUMERICAL
        rep = json.loads((tmp_path / "t" / "lift_report.json").read_text())
        assert "incompatible data" in rep["error"]
        assert abs(rep["compat_defect"] - 1.0) < 1e-12


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
        {
            "p": st.floats(1.001, 2.0),
            "delta": st.floats(0.0, 1.0),
            # mu0 > 0 with p < 2 is a config error for certify and solve; mu0 = 0 reaches the run
            "mu0": st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
            "mu": _log_uniform(1e-3, 1e3),
        }
    ),
    g1=_AMPLITUDE,
    g2=_AMPLITUDE,
    f=_AMPLITUDE,
    solver=st.fixed_dictionaries(
        {
            "levels": st.integers(1, 3),
            "picard_tol": _log_uniform(1e-12, 1e-3),
            "picard_max": st.integers(1, 40),
            "include_convective": st.booleans(),
            "penalty": st.booleans(),
        }
    ),
    corner=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    sides=st.tuples(_log_uniform(0.25, 4.0), _log_uniform(0.25, 4.0)),
    cells=st.tuples(st.integers(2, 5), st.integers(2, 5)),
    quad_degree=st.integers(2, 10),
    override=st.booleans(),
)
def test_pipeline_exit_codes(tmp_path_factory, command, model, g1, g2, f, solver, corner, sides, cells, quad_degree, override):
    # an uncaught exception (a warning included, under the suite's filters) fails the example
    out = tmp_path_factory.mktemp("run")
    (x0, y0), (x1, y1) = corner, (corner[0] + sides[0], corner[1] + sides[1])
    # the data in the drawn rectangle's unit coordinates: int g1 = 0 and g2.n = 0 on every domain
    X, Y = f"((x - ({x0!r})) / {x1 - x0!r})", f"((y - ({y0!r})) / {y1 - y0!r})"
    data = {
        "g1": f"{g1!r} * sin(2*pi*{X}) * sin(2*pi*{Y})",
        "g2": [f"{g2!r} * pi * sin(pi*{X}) * cos(pi*{Y})", f"-{g2!r} * pi * cos(pi*{X}) * sin(pi*{Y})"],
        "f": [f"{f!r} * sin(pi*y)", f"{f!r} * x"],
    }
    cfg = {
        "out": str(out / "t"),
        "model": model,
        "domain": {
            "x0": x0,
            "y0": y0,
            "x1": x1,
            "y1": y1,
            "nx": cells[0],
            "ny": cells[1],
            "quad_degree": quad_degree,
        },
        "characteristics": {"samples": 10000},
        "data": data,
        "solver": solver,
    }
    argv = [command, "--config", _write_cfg(out, "c.json", cfg)] + ["--override-certification"] * override
    assert main(argv) in (EXIT_OK, EXIT_CONDITION_FAILED, EXIT_NUMERICAL, EXIT_INVALID_CONFIG)
    # nonzero data must reach the lift solve, not stop at the compatibility check
    errors = [str(json.loads(r.read_text()).get("error", "")) for r in (out / "t").glob("*.json")]
    assert not any("incompatible data" in e for e in errors), errors


def test_report_key_sets(tmp_path):
    """The keys of each report, pinned: a dataclass field added or renamed changes them."""
    path = _write_cfg(tmp_path, "c.json", {"domain": {"nx": 8, "ny": 8}, "certify": {"sweep_lambdas": [1.0, 2.0]}})
    for cmd in ("check-tensor", "lift", "certify"):
        assert main([cmd, "--config", path, "--out", str(tmp_path / cmd)]) == EXIT_OK
    chars = {"C1", "C2", "C3", "witnesses", "dim", "non_rigorous"}
    lift_keys = {"p", "s", "norms", "div_defect", "div_defect_pointwise", "boundary_defect", "compat_defect"}
    cert = json.loads((tmp_path / "certify" / "certificate.json").read_text())
    assert set(cert) == {"p", "d", "s", "G1", "G2", "G3", "lhs", "rhs", "satisfied", "R", "verdict", "provenance"}
    prov = cert["provenance"]
    assert set(prov) == {"characteristics", "embedding", "lift_norms", "f_norm"}
    assert set(prov["characteristics"]) == chars
    assert set(prov["characteristics"]["witnesses"]) == {"C1", "C2", "C3"}
    assert set(prov["embedding"]) == {
        "p", "s", "korn_p", "sob_p_to_pstar", "sob_s_to_2pprime", "targets", "converged", "ascent", "non_rigorous"
    }
    assert set(prov["lift_norms"]) == lift_keys
    assert set(json.loads((tmp_path / "lift" / "lift_report.json").read_text())) == lift_keys
    tensor = json.loads((tmp_path / "check-tensor" / "tensor_report.json").read_text())
    assert set(tensor) == {"inequalities", "characteristics", "verdict"}
    assert set(tensor["characteristics"]) == chars
    assert set(tensor["inequalities"]) == {
        "p", "delta", "mu0", "mu", "dim", "pairs_checked", "C1", "C2", "C3", "violations_monotonicity",
        "violations_C1", "violations_C2", "violations_C3", "min_monotonicity_ratio", "seed", "tolerance",
    }
    header = (tmp_path / "certify" / "sweep.csv").read_text().splitlines()[0]
    assert header == "lambda,G1,G2,G3,lhs,rhs,satisfied,R"
