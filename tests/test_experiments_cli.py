"""Config validation, experiment reports, report files and the CLI."""

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import expkant
from expkant import cli, experiments, moments
from expkant.core import SamplingScheme, ValidationError, make_builtin_profile
from expkant.ratefit import fit_loglog


UNIT = SamplingScheme.uniform()


def base_config(**overrides):
    cfg = {
        "experiment": "converge_uniform",
        "kernel": {"profile": {"name": "bspline", "n": 2}},
        "signal": {"name": "clipped_log"},
        "w_list": [4, 8, 16, 32],
    }
    cfg.update(overrides)
    return cfg


class TestConfigValidation:
    def test_accepts_known_keys(self):
        assert experiments.validate_config(base_config()) == "converge_uniform"

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            experiments.validate_config(base_config(extra=1))

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError, match="unknown experiment"):
            experiments.validate_config(base_config(experiment="nope"))

    def test_missing_required_key(self):
        cfg = base_config()
        del cfg["signal"]
        with pytest.raises(ValidationError, match="missing keys"):
            experiments.validate_config(cfg)

    def test_unknown_nested_key(self):
        cfg = base_config()
        cfg["kernel"]["profile"]["spline"] = 3
        with pytest.raises(ValidationError, match="unknown keys"):
            experiments.run(cfg)

    def test_unknown_output_key(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            experiments.validate_config(base_config(output={"xml": "a.xml"}))

    def test_bad_w_list(self):
        for bad in ([4, 8, 8, 16], [8, 4, 16, 32], [-1, 4, 8, 16], [4, 8]):
            with pytest.raises(ValidationError, match="w_list"):
                experiments.run(base_config(w_list=bad))

    def test_non_dict_config(self):
        with pytest.raises(ValidationError):
            experiments.validate_config([1, 2, 3])

    def test_bad_signal_params(self):
        cfg = base_config(signal={"name": "holder_bump", "sharpness": 2})
        with pytest.raises(ValidationError, match="signal"):
            experiments.run(cfg)


# experiment: (required keys, optional keys), besides the required
# "experiment" and the optional "output" of every config
SCHEMA = {
    "converge_uniform": ({"kernel", "signal", "w_list"}, {"scheme", "grid"}),
    "converge_pointwise": ({"kernel", "signal", "w_list", "x"}, {"scheme"}),
    "quantitative_3_2": ({"kernel", "signal", "w_list", "beta"},
                         {"scheme", "grid", "j"}),
    "voronovskaja": ({"kernel", "signal", "w_list", "x", "r"}, {"scheme"}),
    "modular_convergence": ({"kernel", "signal", "w_list"},
                            {"scheme", "phi", "lambda", "threshold"}),
    "modular_inequality": ({"kernel", "w_list"},
                           {"scheme", "pair", "seeds", "lambda"}),
    "quantitative_5_1": ({"kernel", "signal", "w_list", "gamma"},
                         {"scheme", "pair", "lambda0", "lambda"}),
    "audit_kernel": ({"kernel", "w_list"},
                     {"scheme", "j", "beta", "r", "gamma", "e31_gamma",
                      "pair"}),
    "moments": ({"profile", "betas"}, {"scheme"}),
}


def test_schema_names_every_experiment():
    with pytest.raises(ValidationError) as info:
        experiments.validate_config({"experiment": "nope"})
    assert f"(one of {sorted(SCHEMA)})" in str(info.value)


@pytest.mark.parametrize("name", sorted(SCHEMA))
def test_config_schema(name):
    # key checks only: validate_config reads no value but "experiment"
    required, optional = SCHEMA[name]
    minimal = {"experiment": name, **dict.fromkeys(required)}
    assert experiments.validate_config(minimal) == name
    full = {**minimal, **dict.fromkeys(optional), "output": {}}
    assert experiments.validate_config(full) == name
    for key in sorted(required):
        cfg = {k: v for k, v in full.items() if k != key}
        with pytest.raises(ValidationError,
                           match=rf"missing keys in config: \['{key}'\]"):
            experiments.validate_config(cfg)
    with pytest.raises(ValidationError, match="unknown keys in config"):
        experiments.validate_config({**full, "extra": 1})


# (experiment, key): the verdict slacks, the modular resolution and the
# grid spacing are module constants, not config keys
FIXED_SETTINGS = [
    ("quantitative_3_2", "slack"), ("voronovskaja", "slack"),
    ("quantitative_5_1", "slack"), ("modular_convergence", "n_points"),
    ("quantitative_5_1", "n_points"), ("converge_uniform", "grid.log"),
    ("quantitative_3_2", "grid.log"),
]


@pytest.mark.parametrize("name, key", FIXED_SETTINGS)
def test_fixed_settings_exit_3(name, key, tmp_path, capsys):
    required, optional = SCHEMA[name]
    cfg = {k: v for k, v in base_config(
        experiment=name, signal={"name": "cc_bump"}, x=1.0, r=1.0, beta=1.0,
        gamma=0.5).items() if k in required | optional | {"experiment"}}
    if key == "grid.log":
        cfg["grid"] = {"lo": 0.5, "hi": 2.0, "log": True}
        message = "unknown keys in grid: ['log']"
    else:
        cfg[key] = 1024
        message = f"unknown keys in config: ['{key}']"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)]) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


class TestRateFit:
    def test_exact_power_law(self):
        w = np.array([4.0, 8.0, 16.0, 32.0])
        fit = fit_loglog(w, 3.0 * w ** -2)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-10)

    def test_all_zero_is_none(self):
        assert fit_loglog([4.0, 8.0], [0.0, 0.0]) is None


class TestReports:
    def test_converge_uniform_log_rate(self):
        report = experiments.run(base_config(
            grid={"lo": 0.5, "hi": 2.0, "points": 9}))
        assert report["passed"]
        assert report["columns"] == ["w", "error"]
        # sup error of the log signal is exactly 1/(2w)
        for row in report["rows"]:
            assert row["error"] == pytest.approx(0.5 / row["w"], rel=1e-9)
        assert report["fit"]["slope"] == pytest.approx(-1.0, abs=1e-9)

    def test_converge_uniform_exact_marker(self):
        report = experiments.run(base_config(
            signal={"name": "constant", "c": 2.0}))
        assert report["fit"] == "exact"
        assert report["passed"]

    def test_converge_pointwise(self):
        report = experiments.run(base_config(
            experiment="converge_pointwise", x=2.0))
        assert report["passed"]
        assert report["x"] == 2.0
        for row in report["rows"]:
            assert row["error"] == pytest.approx(0.5 / row["w"], rel=1e-9)

    def test_fejer_unit_audit_partition_and_l1(self):
        # m0 == 1 exactly at unit step, so the chi4 functionals of the
        # identity response vanish, and the L1 quadrature closes its tail
        # beyond |v| = 400 in closed form
        report = experiments.run({
            "experiment": "audit_kernel",
            "kernel": {"profile": {"name": "mellin_fejer"}},
            "w_list": [4, 8, 16, 32]})
        checks = report["checks"]
        assert checks["chi1"]["m0"] == 1.0
        for name in ("chi1", "chi4_S", "chi4_T", "chi4_star", "L1", "L2",
                     "e3_1"):
            assert checks[name]["passed"], name
        assert checks["chi4_S"]["extra"]["m0_range"] == [1.0, 1.0]
        assert 0.0 <= checks["L1"]["quadrature"] - 1.0 < 1e-7
        assert checks["L1"]["declared"] == 1.0
        assert checks["L1"]["tail_bound"] == moments.integral_tail(
            make_builtin_profile("mellin_fejer"), 400.0)

    def test_bspline_audit_l1_records_quadrature_error(self):
        # panels that end on every knot integrate each polynomial piece
        # exactly: the norm reads 1 with no error left to record
        for n in (2, 4):
            checks = experiments.run({
                "experiment": "audit_kernel",
                "kernel": {"profile": {"name": "bspline", "n": n}},
                "w_list": [4, 8, 16, 32]})["checks"]
            assert checks["L1"]["quadrature"] == 1.0
            assert checks["L1"]["declared"] == 1.0
            assert checks["L1"]["tail_bound"] == 0.0
            assert checks["L1"]["passed"]

    def test_audit_l1_fails_off_the_declared_norm(self, monkeypatch):
        monkeypatch.setattr(moments, "_log_tail_integral",
                            lambda *a: 1.0 + 2e-6)
        checks = experiments.run({
            "experiment": "audit_kernel",
            "kernel": {"profile": {"name": "bspline", "n": 2}},
            "w_list": [4, 8, 16, 32]})["checks"]
        assert checks["L1"]["quadrature"] == 1.0 + 2e-6
        assert not checks["L1"]["passed"]

    def test_fejer_runs_import_no_scipy(self):
        # scipy is a test extra only; importing scipy.special costs tens
        # of MB of resident memory
        code = """if True:
            import sys
            from expkant import experiments
            fejer = {"profile": {"name": "mellin_fejer"}}
            experiments.run({"experiment": "audit_kernel", "kernel": fejer,
                             "w_list": [4, 8, 16, 32]})
            experiments.run({"experiment": "moments", "profile": fejer["profile"],
                             "scheme": {"step": 4.3}, "betas": [0.0, 0.5]})
            experiments.run({"experiment": "quantitative_3_2", "kernel": fejer,
                             "signal": {"name": "holder_bump", "nu": 0.5},
                             "w_list": [4, 8, 16, 32], "beta": 0.5,
                             "grid": {"lo": 0.5, "hi": 2.0, "points": 3}})
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
        src = str(Path(expkant.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_quantitative_5_1_on_a_zero_tail_suffix(self, monkeypatch):
        # the e3_1 tail mass is positive at w = 8 and exactly 0 from w = 16
        # on: no rate fit, yet (e3_1) holds, and term 2 of the bound takes
        # each w's measured mass
        cfg = {"experiment": "quantitative_5_1",
               "kernel": {"profile": {"name": "bspline", "n": 4},
                          "response": {"name": "soft", "alpha": 1.1752}},
               "signal": {"name": "holder_bump", "nu": 1.0, "radius": 1.5},
               "w_list": [8.0, 16.0, 32.0, 64.0], "gamma": 0.6013}
        report = experiments.run(cfg)
        tail = report["tail_condition"]
        assert tail["passed"] and tail["extra"]["zero_from_w"] == 16.0
        assert tail["sup_values"][0] > 0.0
        assert tail["sup_values"][1:] == [0.0] * 3
        assert math.isinf(report["constants"]["gamma0"])
        assert report["passed"]
        # doubling the masses adds term 2 once more at w = 8 only
        single = moments._log_tail_integral
        monkeypatch.setattr(moments, "_log_tail_integral",
                            lambda *a: 2.0 * single(*a))
        doubled = experiments.run(cfg)
        rhs = [r["rhs"] for r in report["rows"]]
        rhs2 = [r["rhs"] for r in doubled["rows"]]
        assert rhs2[0] > rhs[0] and rhs2[1:] == rhs[1:]

    @pytest.mark.parametrize("nu, converged", [(0.5, False), (1.0, True)],
                             ids=["holder_half", "tent"])
    def test_quantitative_5_1_records_modular_convergence(self, nu,
                                                          converged):
        # the modulars of a Holder-1/2 bump stop unconverged at the panel
        # cap (0.66666665 against the exact 2/3 for phi = u^2); the report
        # says so next to an unchanged verdict, and the tent's converge
        report = experiments.run({
            "experiment": "quantitative_5_1",
            "kernel": {"profile": {"name": "bspline", "n": 2}},
            "signal": {"name": "holder_bump", "nu": nu, "radius": 2.0},
            "w_list": [4, 8, 16, 32], "gamma": 0.5})
        assert report["constants"]["modulars_converged"] is converged
        assert report["passed"]

    def test_m0_tau_counts_the_nodes_of_a_unit_window(self):
        # tau, the indicator of [1, e]: its zero moment is the most nodes
        # of the unit scheme in [y - 1, y] over 2048 phases of a period
        t = UNIT.nodes(-3, 3)
        y = np.linspace(0.0, 1.0, 2048, endpoint=False)[:, None]
        count = np.max(np.sum((y - 1.0 <= t) & (t <= y), axis=1))
        report = experiments.run({
            "experiment": "quantitative_5_1",
            "kernel": {"profile": {"name": "bspline", "n": 2}},
            "signal": {"name": "cc_bump"}, "w_list": [4, 8, 16, 32],
            "gamma": 0.5})
        assert report["constants"]["m0_tau"] == count == 2.0

    def test_report_echoes_config_without_output(self):
        cfg = base_config()
        report = experiments.run(cfg)
        assert report["experiment"] == "converge_uniform"
        assert "output" not in report["config"]
        assert report["config"]["w_list"] == [4, 8, 16, 32]


class TestReportFiles:
    def test_csv_roundtrip_17_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [{"w": 4.0, "error": 1.0 / 3.0},
                {"w": 8.0, "error": 1e-17}]
        experiments.write_csv(str(path), ["w", "error"], rows)
        with open(path) as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["w", "error"]
        # 17 significant digits round-trip to the same float
        assert float(got[1][1]) == 1.0 / 3.0
        assert float(got[2][1]) == 1e-17
        assert "," not in got[1][1]  # '.' decimal separator

    def test_run_writes_requested_outputs(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        cfg = base_config(output={"csv": str(csv_path),
                                  "json": str(json_path)})
        experiments.run(cfg)
        with open(csv_path) as fh:
            header = fh.readline().strip()
        assert header == "w,error"
        with open(json_path) as fh:
            doc = json.load(fh)
        assert doc["experiment"] == "converge_uniform"
        assert len(doc["rows"]) == 4
        assert doc["passed"] is True

    def test_written_report_is_strict_json(self, tmp_path):
        # the divergent Fejer moment is null in the file, its flag says
        # why, and the report in memory keeps the float
        json_path = tmp_path / "moments.json"
        report = experiments.run({
            "experiment": "moments", "profile": {"name": "mellin_fejer"},
            "betas": [0, 1], "output": {"json": str(json_path)}})
        assert math.isinf(report["rows"][1]["value"])
        doc = json.loads(json_path.read_text(),
                         parse_constant=reject_constant)
        assert doc["rows"] == [
            {"beta": 0.0, "value": report["rows"][0]["value"],
             "diverged": False},
            {"beta": 1.0, "value": None, "diverged": True}]


def reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def _pool_configs(seed):
    """Every pool config of the four benchmark workloads at the seed, from
    perfbench/workloads.py loaded by path (it imports only numpy)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return [(name, i, cfg) for name in workloads.WORKLOADS
            for i, cfg in enumerate(workloads.make_plan(name, seed).pool)]


def test_pool_reports_are_json():
    # every verdict a Python bool, every report serializable as it stands
    for name, i, cfg in _pool_configs(1):
        report = experiments.run(cfg)
        json.dumps(report)
        assert isinstance(report["passed"], bool), (name, i)


def run_cli(args, **kw):
    # the child imports the same expkant as this process, installed or not
    src = str(Path(expkant.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "expkant.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kw)


class TestCli:
    def test_run_pass_exit_0(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        csv_path = tmp_path / "out.csv"
        cfg = base_config(output={"csv": str(csv_path)})
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli(["run", str(cfg_path)])
        assert proc.returncode == cli.EXIT_PASS, proc.stderr
        assert "PASS" in proc.stdout
        assert csv_path.read_text().splitlines()[0] == "w,error"

    def test_run_theorem_failure_exit_2(self, tmp_path):
        # an unreachable threshold turns the verdict into a theorem failure
        cfg = base_config(experiment="modular_convergence",
                          signal={"name": "cc_bump"}, threshold=1e-300)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli(["run", str(cfg_path)])
        assert proc.returncode == cli.EXIT_THEOREM_FAIL
        assert "FAIL" in proc.stdout

    def test_run_validation_exit_3(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(bogus=1)))
        proc = run_cli(["run", str(cfg_path)])
        assert proc.returncode == cli.EXIT_VALIDATION
        assert "error:" in proc.stderr

    def test_run_bad_json_exit_3(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        proc = run_cli(["run", str(cfg_path)])
        assert proc.returncode == cli.EXIT_VALIDATION

    def test_fejer_modular_convergence_exit_3(self, tmp_path):
        # the log grid of a heavy-tailed profile does not resolve K_w f
        cfg = base_config(experiment="modular_convergence",
                          kernel={"profile": {"name": "mellin_fejer"}},
                          signal={"name": "cc_bump", "radius": 1.75},
                          w_list=[8, 16, 32, 64])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli(["run", str(cfg_path)])
        assert proc.returncode == cli.EXIT_VALIDATION, proc.stderr
        assert "compact profile" in proc.stderr

    def test_run_missing_file_exit_3(self):
        assert run_cli(["run", "/no/such/file.json"]).returncode == \
            cli.EXIT_VALIDATION

    def test_audit_prints_condition_lines(self, tmp_path):
        cfg = {"kernel": {"profile": {"name": "bspline", "n": 2},
                          "response": {"name": "soft", "alpha": 1.0}},
               "w_list": [4, 8, 16, 32]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli(["audit", str(cfg_path)])
        assert proc.returncode == cli.EXIT_PASS, proc.stderr
        lines = proc.stdout.strip().splitlines()
        for name in ("chi1", "chi2", "chi3", "chi4_S", "chi4_T", "chi4_star",
                     "L1", "L2", "L3", "e3_1"):
            assert any(line.startswith(f"{name}:") for line in lines)
        assert all(line.endswith("pass") for line in lines)

    def test_audit_rejects_other_experiment(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config()))
        assert run_cli(["audit", str(cfg_path)]).returncode == \
            cli.EXIT_VALIDATION

    def test_moments_subcommand(self):
        proc = run_cli(["moments", "--profile", "bspline:2", "--beta", "0",
                        "--scheme", "uniform:1"])
        assert proc.returncode == cli.EXIT_PASS
        doc = json.loads(proc.stdout)
        assert doc["value"] == pytest.approx(1.0, abs=1e-10)
        assert doc["diverged"] is False

    def test_moments_divergent_value_is_null(self):
        proc = run_cli(["moments", "--profile", "mellin_fejer", "--beta",
                        "1"])
        assert proc.returncode == cli.EXIT_PASS, proc.stderr
        doc = json.loads(proc.stdout, parse_constant=reject_constant)
        assert doc["value"] is None
        assert doc["diverged"] is True

    @pytest.mark.parametrize("cfg, message", [
        # value null, diverged false, passed true and exit 0 before
        ({"experiment": "moments", "profile": {"name": "bspline", "n": 3},
          "betas": [0.0, 1e6]}, "overflows"),
        # value NaN, passed true and exit 0 before
        ({"experiment": "moments", "profile": {"name": "mellin_fejer"},
          "betas": [math.nan]}, "betas[0] must be finite"),
        # numpy's ValueError and exit 1 before
        ({"experiment": "modular_inequality",
          "kernel": {"profile": {"name": "bspline", "n": 2}},
          "w_list": [4, 8, 16, 32], "seeds": [-229, 323]}, "seed >= 0"),
        # exit 1 with a traceback before
        (base_config(grid={"lo": 0.5, "hi": math.inf}), "grid.hi"),
        (base_config(experiment="converge_pointwise", x=math.inf), "x must"),
        (base_config(experiment="converge_pointwise", x=1.5,
                     w_list=[4, 8, 16, math.inf]), "w_list[3]"),
        (base_config(experiment="modular_convergence",
                     signal={"name": "cc_bump"}, **{"lambda": math.inf}),
         "lambda"),
        # PASS and exit 0 before
        (base_config(experiment="modular_convergence",
                     signal={"name": "cc_bump"},
                     phi={"name": "power", "p": math.inf}), "phi.p"),
        (base_config(experiment="quantitative_3_2",
                     signal={"name": "cc_bump"}, beta=math.inf), "beta"),
        # an OverflowError from float() or math.exp before
        (base_config(experiment="converge_pointwise", x=1.5,
                     w_list=[4, 8, 16, 10**400]), "w_list[3]"),
        (base_config(experiment="converge_pointwise", x=1.5,
                     signal={"name": "cc_bump", "radius": 710}),
         "radius=710"),
    ], ids=["moment-overflow", "moment-nan", "negative-seed", "grid-hi",
            "x", "w-list", "lambda", "phi-p", "beta", "w-list-int",
            "cc-bump-radius"])
    def test_run_out_of_range_exit_3(self, tmp_path, cfg, message):
        cfg_path = tmp_path / "cfg.json"
        # JSON text 1e400 reads as inf, as Infinity does
        cfg_path.write_text(json.dumps(cfg).replace("Infinity", "1e400"))
        proc = run_cli(["run", str(cfg_path)])
        assert proc.returncode == cli.EXIT_VALIDATION, proc.stderr
        assert proc.stderr.startswith("error:") and message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("cfg", [
        base_config(experiment="converge_pointwise", x=1.5,
                    signal={"name": "clipped_log", "clip": 800}),
        base_config(experiment="voronovskaja", x=1.5, r=0.5,
                    signal={"name": "clipped_log", "clip": 800}),
    ], ids=["converge_pointwise", "voronovskaja"])
    def test_clip_beyond_the_exp_range_warns_nothing(self, cfg):
        # an overflow warning on every point inside the clip before
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = experiments.run(cfg)
        assert report["passed"]

    def test_run_bad_bspline_order_exit_3(self, tmp_path):
        cfg = base_config(kernel={"profile": {"name": "bspline", "n": "x"}})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli(["run", str(cfg_path)])
        assert proc.returncode == cli.EXIT_VALIDATION
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("overrides", [
        {"experiment": "moments", "profile": {"name": "bspline"},
         "betas": 5},
        {"w_list": ["a", 2, 3, 4]},
        {"grid": {"lo": "x", "hi": 2}},
        {"signal": {"name": "constant", "c": "q"}},
        {"kernel": {"profile": {"name": "bspline", "n": 2},
                    "response": {"name": "soft", "alpha": "z"}}},
        {"scheme": {"step": "1"}},
        {"experiment": "modular_inequality", "seeds": [1.5, "a"]},
        {"experiment": "modular_inequality", "seeds": [1.5]},
        {"experiment": "converge_pointwise", "x": True},
    ], ids=["betas", "w_list", "grid", "signal", "response", "scheme",
            "seeds", "seed-fraction", "x-bool"])
    def test_run_wrong_value_type_exit_3(self, tmp_path, overrides):
        cfg = base_config(**overrides)
        if cfg["experiment"] == "moments":
            cfg = {k: cfg[k] for k in ("experiment", "profile", "betas")}
        elif cfg["experiment"] == "modular_inequality":
            del cfg["signal"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli(["run", str(cfg_path)])
        assert proc.returncode == cli.EXIT_VALIDATION, proc.stderr
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("cfg, r, key", [
        ({"experiment": "quantitative_3_2", "signal": {"name": "cc_bump"},
          "beta": 1.0}, None, "w_list"),
        ({"experiment": "modular_inequality", "seeds": [0]}, None, "w_list"),
        ({"experiment": "quantitative_5_1", "signal": {"name": "cc_bump"},
          "gamma": 0.5}, None, "w_list"),
        ({"experiment": "quantitative_3_2",
          "signal": {"name": "cc_bump", "height": 2.0}, "beta": 1.0}, 0.5,
         "kernel.response"),
        ({"experiment": "modular_inequality", "seeds": [0]}, 0.5,
         "kernel.response"),
        ({"experiment": "quantitative_5_1", "signal": {"name": "cc_bump"},
          "gamma": 0.5}, 0.5, "kernel.response"),
        # ||f|| = 1 and omega <= 1, but the values +-1 are 2 apart: at
        # w = sqrt 2, |g_w(1) - g_w(-1)| = 3.414 > psi(2) = 2.828
        ({"experiment": "quantitative_3_2", "signal": {"name": "sin_log"},
          "beta": 0.5}, 0.5, "gaps up to 2"),
    ], ids=["3_2-w", "inequality-w", "5_1-w", "3_2-norm", "inequality-gap",
            "5_1-gap", "3_2-spread"])
    def test_psi_runner_outside_the_slope_range_exit_3(self, tmp_path, cfg,
                                                        r, key):
        # soft(1) (r None) holds from w = 1 on: the ladder starts just below
        # it; soft_power(1, r = 1/2) holds from w = sqrt 2 for gaps up to 1:
        # the ladder starts there, and the run takes psi at a wider gap
        response = ({"name": "soft", "alpha": 1.0} if r is None else
                    {"name": "soft_power", "alpha": 1.0, "r": r})
        w0 = 1.0 - 1e-9 if r is None else math.sqrt(2.0)
        cfg = {**cfg, "kernel": {"profile": {"name": "bspline", "n": 2},
                                 "response": response},
               "w_list": [w0, 4.0, 8.0, 16.0]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = run_cli(["run", str(cfg_path)])
        assert proc.returncode == cli.EXIT_VALIDATION, proc.stderr
        assert key in proc.stderr and "psi" in proc.stderr

    def test_soft_power_runs_inside_its_range(self):
        # holder_bump: ||f|| = 1 and omega <= 1, from the least w on
        report = experiments.run({
            "experiment": "quantitative_3_2",
            "kernel": {"profile": {"name": "bspline", "n": 2},
                       "response": {"name": "soft_power", "alpha": 1.0,
                                    "r": 0.5}},
            "signal": {"name": "holder_bump", "nu": 0.5},
            "w_list": [math.sqrt(2.0), 4.0, 8.0, 16.0], "beta": 0.5,
            "grid": {"lo": 0.5, "hi": 2.0, "points": 5}})
        assert report["rows"][0]["w"] == math.sqrt(2.0)
        with pytest.raises(ValidationError, match="w_list"):
            experiments.run({**report["config"],
                             "w_list": [1.414, 4.0, 8.0, 16.0]})

    def test_moments_bad_profile_exit_3(self):
        assert run_cli(["moments", "--profile", "nope", "--beta",
                        "1"]).returncode == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("option", [["--profile", "bspline:x"],
                                        ["--profile", "bspline:2",
                                         "--scheme", "uniform:abc"],
                                        ["--profile", "bspline:2",
                                         "--scheme", "uniform:nan"]],
                             ids=["profile-order", "scheme-step",
                                  "scheme-nan"])
    def test_moments_bad_number_exit_3(self, option):
        proc = run_cli(["moments", "--beta", "1", *option])
        assert proc.returncode == cli.EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_main_in_process(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config()))
        assert cli.main(["run", str(cfg_path)]) == cli.EXIT_PASS
        assert "PASS" in capsys.readouterr().out
