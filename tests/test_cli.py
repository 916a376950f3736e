import json
import math

import numpy as np
import pytest

from nhfermi import figure as fg
from nhfermi import make_params
from nhfermi import selfcheck as sc
from nhfermi.cli import main


def test_spectrum_command(capsys):
    assert main(["spectrum", "--gamma", "0.6", "--truncation", "60",
                 "--count", "4"]) == 0
    out = capsys.readouterr().out
    assert "0.3278719" in out
    assert out.count("\n") >= 5


def test_metric_check_command(capsys):
    # gamma = 0.9 lies past the point where a 2M intermediate sum fails
    for gamma in ("0.6", "0.9"):
        assert main(["metric-check", "--gamma", gamma, "--truncation", "40"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(out.splitlines()) == 7


def test_metric_check_fails_at_impossible_tol(capsys):
    assert main(["metric-check", "--gamma", "0.6", "--truncation", "40",
                 "--tol", "1e-30"]) == 1


def test_fock_check_command(capsys):
    assert main(["fock-check", "--gamma", "0.6", "--modes", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_thermo_command_both_methods(capsys):
    assert main(["thermo", "--gamma", "0.6", "--beta", "0.01", "--mu", "0.0",
                 "--method", "both"]) == 0
    out = capsys.readouterr().out
    assert "method=exact" in out and "method=euler_maclaurin" in out
    exact_n = [l for l in out.splitlines() if "number" in l][0]
    assert float(exact_n.split("=")[1]) > 0


def test_thermo_command_tiny_beta(capsys):
    # beta Lambda log Z = pi^2/12 + (beta Lambda/4) log 2 + O((beta Lambda)^2)
    assert main(["thermo", "--beta", "1e-9", "--mu", "0"]) == 0
    out = capsys.readouterr().out
    log_z = float([l for l in out.splitlines() if "log Z" in l][0].split("=")[1])
    bl = 1e-9 * make_params(0.6).lambda_scale
    assert abs(bl * log_z - (math.pi**2 / 12 + bl * math.log(2) / 4)) <= 1e-12
    assert "modes summed directly: 9" in out


def test_figure_command_csv(tmp_path, capsys):
    cfg = {
        "gamma": 0.6,
        "beta_list": [0.05],
        "mu_list": [0.0],
        "mu_sweep": {"min": -2.0, "max": 2.0, "count": 5},
        "n_max": 40,
        "method": "exact",
    }
    cfg_path = tmp_path / "fig.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "fig.csv"
    assert main(["figure", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("method,gamma,beta,mu,zeta_prime,log_z,energy,number,entropy")
    # 5 fixed-beta points plus the degenerate single-beta fixed-mu curve
    assert len(text.splitlines()) == 1 + 5 + 1
    assert "containment" in capsys.readouterr().out


def test_figure_command_json(tmp_path):
    cfg = {
        "gamma": 0.6,
        "beta_list": [0.05],
        "mu_list": [],
        "mu_sweep": {"min": -1.0, "max": 1.0, "count": 3},
        "n_max": 40,
        "method": "em",
    }
    # "em" is not a figure method; euler_maclaurin spelled out
    cfg["method"] = "euler_maclaurin"
    cfg_path = tmp_path / "fig.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "fig.json.out"
    assert main(["figure", "--config", str(cfg_path), "--out", str(out_path),
                 "--format", "json"]) == 0
    payload = json.loads(out_path.read_text())
    assert len(payload) == 3
    assert payload[0]["method"] == "euler_maclaurin"


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def _small_figure_config(tmp_path, **overrides):
    cfg = {"gamma": 0.6, "beta_list": [0.05], "mu_list": [],
           "mu_sweep": {"min": -1.0, "max": 1.0, "count": 3},
           "n_max": 40, "method": "exact", **overrides}
    path = tmp_path / "fig.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("case", ["n_max", "beta", "gamma", "modes", "metric",
                                  "missing", "malformed", "no_gamma", "not_object",
                                  "count", "tiny_beta", "tiny_beta_em",
                                  "beta_list_int", "sweep_no_min", "count_zero",
                                  "count_negative", "metric_tol_nan",
                                  "metric_tol_negative", "fock_tol_nan",
                                  "fock_tol_negative", "tail_tol_inf",
                                  "sweep_count_infinity", "sweep_count_1e12",
                                  "sweep_count_fraction", "spectrum_huge_truncation",
                                  "metric_huge_truncation"])
def test_bad_input_exits_2(case, tmp_path, capsys):
    out = tmp_path / "out.csv"
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "no_gamma.json").write_text(json.dumps(
        {"beta_list": [0.05], "mu_list": [], "n_max": 40,
         "mu_sweep": {"min": -1.0, "max": 1.0, "count": 3}}))
    figure = ["figure", "--out", str(out), "--config"]
    argv = {
        "n_max": figure + [_small_figure_config(tmp_path, n_max=3)],
        "beta": ["thermo", "--beta", "-1", "--mu", "0"],
        "gamma": ["spectrum", "--gamma", "nan"],
        "modes": ["fock-check", "--modes", "20"],
        "metric": ["metric-check", "--gamma", "2"],
        "missing": figure + [str(tmp_path / "missing.json")],
        "malformed": figure + [str(tmp_path / "bad.json")],
        "no_gamma": figure + [str(tmp_path / "no_gamma.json")],
        "not_object": figure + [str(tmp_path / "list.json")],
        "count": ["spectrum", "--truncation", "10", "--count", "200"],
        "tiny_beta": ["thermo", "--beta", "1e-300", "--mu", "0"],
        "tiny_beta_em": ["thermo", "--beta", "1e-170", "--mu", "0", "--method", "em"],
        "beta_list_int": figure + [_small_figure_config(tmp_path, beta_list=5)],
        "sweep_no_min": figure + [_small_figure_config(
            tmp_path, mu_sweep={"max": 1.0, "count": 3})],
        "count_zero": ["spectrum", "--truncation", "24", "--count", "0"],
        "count_negative": ["spectrum", "--truncation", "24", "--count", "-1"],
        "metric_tol_nan": ["metric-check", "--truncation", "20", "--tol", "nan"],
        "metric_tol_negative": ["metric-check", "--truncation", "20", "--tol", "-1"],
        "fock_tol_nan": ["fock-check", "--modes", "3", "--tol", "nan"],
        "fock_tol_negative": ["fock-check", "--modes", "3", "--tol", "-1"],
        "tail_tol_inf": ["thermo", "--beta", "0.01", "--mu", "0", "--tail-tol", "inf"],
        "sweep_count_infinity": figure + [_small_figure_config(
            tmp_path, mu_sweep={"min": -1.0, "max": 1.0, "count": math.inf})],
        "sweep_count_1e12": figure + [_small_figure_config(
            tmp_path, mu_sweep={"min": -1.0, "max": 1.0, "count": 1e12})],
        "sweep_count_fraction": figure + [_small_figure_config(
            tmp_path, mu_sweep={"min": -1.0, "max": 1.0, "count": 201.7})],
        # about 728 TiB: more than any 48-bit address space, so it fails at once
        "spectrum_huge_truncation": ["spectrum", "--truncation", "10000000"],
        "metric_huge_truncation": ["metric-check", "--truncation", "10000000"],
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("nhfermi: error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_figure_violation_exits_1_without_writing(tmp_path, monkeypatch, capsys):
    def violating(points, boundary, tol=1e-9):
        return fg.ContainmentReport(margins=[-1.0] * len(points),
                                    violations=[(0.05, 0.0, -1.0)])

    monkeypatch.setattr(fg, "containment_check", violating)
    out = tmp_path / "out.csv"
    assert main(["figure", "--config", _small_figure_config(tmp_path),
                 "--out", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert not out.exists()


def _fake_criteria(fail_9):
    return {
        "1": lambda: sc._result("1", "counts and floats", [
            ("count", np.int64(0), 0), ("residual", np.float64(2.5e-16), 1e-8)]),
        "5b": lambda: sc._result("5b", "known gap", [
            ("gap", float("nan"), 1e-9), ("spread", 3.0, float("inf"))],
            expected_failure=True),
        "9": lambda: sc._result("9", "bytes", [("off", int(fail_9), 0)]),
    }


@pytest.mark.parametrize("fail_9", [False, True])
def test_selfcheck_json(monkeypatch, capsys, fail_9):
    monkeypatch.setattr(sc, "CRITERIA", _fake_criteria(fail_9))
    assert main(["selfcheck", "--json"]) == int(fail_9)
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["passed"] is not fail_9
    c1, c5b, c9 = report["criteria"]
    assert [c["cid"] for c in report["criteria"]] == ["1", "5b", "9"]
    assert c1["checks"] == [
        {"name": "count", "value": 0, "bound": 0, "passed": True},
        {"name": "residual", "value": 2.5e-16, "bound": 1e-8, "passed": True}]
    assert (c5b["passed"], c5b["expected_failure"]) == (False, True)
    assert [(c["value"], c["bound"]) for c in c5b["checks"]] == [(None, 1e-9), (3.0, None)]
    assert c9["passed"] is not fail_9
    assert all(c["wall_s"] >= 0.0 for c in report["criteria"])
    # text mode keeps the same exit code
    assert main(["selfcheck"]) == int(fail_9)
    assert capsys.readouterr().out.splitlines()[-1] == \
        ("selfcheck: FAIL" if fail_9 else "selfcheck: PASS")
