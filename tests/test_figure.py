import json

import numpy as np
import pytest

from nhfermi import (
    CurveSpec,
    containment_check,
    default_figure_config,
    figure_records,
    generate_curve,
    hull_boundary,
    make_params,
)
from nhfermi.figure import CSV_COLUMNS, records_to_csv, records_to_json

P35 = make_params(0.6)


class TestCurveSpec:
    def test_valid(self):
        CurveSpec(gamma=0.6, mode="fixed_beta", fixed_value=0.1, sweep=(0.0, 1.0))

    @pytest.mark.parametrize("kwargs", [
        dict(mode="bad", fixed_value=0.1, sweep=(0.0, 1.0)),
        dict(mode="fixed_beta", fixed_value=0.1, sweep=()),
        dict(mode="fixed_beta", fixed_value=0.1, sweep=(0.0, 2.0, 1.0)),
        dict(mode="fixed_beta", fixed_value=-0.1, sweep=(0.0, 1.0)),
        dict(mode="fixed_mu", fixed_value=0.0, sweep=(0.1, -0.2)),
        dict(mode="fixed_beta", fixed_value=float("nan"), sweep=(0.0, 1.0)),
        dict(mode="fixed_beta", fixed_value=0.1, sweep=(0.0, 1.0), method="mc"),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CurveSpec(gamma=0.6, **kwargs)


class TestGenerateCurve:
    def test_fixed_beta_number_increases_with_mu(self):
        lam = P35.lambda_scale
        mus = tuple(lam * x for x in (-14.75, -9.75, -4.75, 0.25, 5.25, 10.25, 15.25))
        spec = CurveSpec(gamma=0.6, mode="fixed_beta", fixed_value=0.2, sweep=mus)
        pts = generate_curve(spec)
        assert len(pts) == 7
        ns = [p.number for p in pts]
        assert all(a < b for a, b in zip(ns, ns[1:]))

    def test_fixed_mu_energy_decreases_with_beta(self):
        spec = CurveSpec(gamma=0.6, mode="fixed_mu", fixed_value=0.0,
                         sweep=(0.001, 0.01, 0.05, 0.2))
        pts = generate_curve(spec)
        es = [p.energy for p in pts]
        assert all(a > b for a, b in zip(es, es[1:]))

    def test_empty_limit(self):
        spec = CurveSpec(gamma=0.6, mode="fixed_beta", fixed_value=1.0,
                         sweep=(-3000.0, -2000.0), method="exact")
        pts = generate_curve(spec)
        assert pts[-1].number < 1e-100 and pts[-1].energy < 1e-100

    def test_both_methods(self):
        spec = CurveSpec(gamma=0.6, mode="fixed_beta", fixed_value=0.01,
                         sweep=(0.0, 1.0), method="both")
        pts = generate_curve(spec)
        assert [p.method for p in pts] == ["exact", "euler_maclaurin"] * 2


class TestHullBoundary:
    def test_vacuum_vertex(self):
        b = hull_boundary(P35, 3)
        assert b.vertices[0] == (0, 0.0)

    def test_filled_three(self):
        b = hull_boundary(P35, 3)
        assert b.vertices[3][1] == pytest.approx(4.9180788932265005, abs=1e-12)

    def test_gamma_zero_vertices(self):
        b = hull_boundary(make_params(0.0), 4)
        assert [v[1] for v in b.vertices[1:]] == pytest.approx([0.25, 1.5, 3.75, 7.0])

    def test_convexity(self):
        b = hull_boundary(P35, 10)
        e = b.energies
        second_diff = np.diff(e, 2)
        assert np.all(second_diff > 0)

    def test_bad_n_max(self):
        with pytest.raises(ValueError):
            hull_boundary(P35, 0)


class TestContainment:
    def test_exact_points_above_hull(self):
        spec = CurveSpec(gamma=0.6, mode="fixed_beta", fixed_value=0.2,
                         sweep=tuple(np.linspace(-10, 10, 21)))
        pts = generate_curve(spec)
        b = hull_boundary(P35, 40)
        report = containment_check(pts, b)
        assert not report.violations
        assert min(report.margins) > -1e-9

    def test_low_beta_points_near_vertical_edge(self):
        # the very-low-beta, strongly negative-mu family hugs the vertical
        # (small-N) edge of the joint range while staying inside it
        spec = CurveSpec(gamma=0.6, mode="fixed_beta", fixed_value=0.001,
                         sweep=tuple(np.linspace(-6000, -4500, 16)))
        pts = generate_curve(spec)
        b = hull_boundary(P35, 40)
        report = containment_check(pts, b)
        assert not report.violations
        assert min(report.margins) >= -1e-9
        assert max(p.number for p in pts) < 10.0

    def test_vacuum_margin_zero(self):
        spec = CurveSpec(gamma=0.6, mode="fixed_beta", fixed_value=2.0,
                         sweep=(-5000.0,))
        pts = generate_curve(spec)
        report = containment_check(pts, hull_boundary(P35, 5))
        assert abs(report.margins[0]) < 1e-9

    def test_uncovered_range_rejected(self):
        spec = CurveSpec(gamma=0.6, mode="fixed_beta", fixed_value=0.01,
                         sweep=(10.0,))
        pts = generate_curve(spec)
        with pytest.raises(ValueError):
            containment_check(pts, hull_boundary(P35, 2))


@pytest.fixture(scope="module")
def small_config():
    cfg = default_figure_config()
    cfg["beta_list"] = [0.01, 0.2]
    cfg["mu_list"] = [0.0]
    cfg["mu_sweep"]["count"] = 9
    cfg.pop("low_beta_mu_sweep")
    cfg["n_max"] = 80
    return cfg


class TestFigureRecords:

    def test_counts_and_order(self, small_config):
        records = figure_records(small_config)
        assert len(records) == (2 + 1) * 9
        assert records[0].beta == 0.01
        assert records[9].beta == 0.2

    def test_low_beta_sweep_replaces_default(self):
        cfg = default_figure_config()
        cfg["beta_list"] = [0.001, 0.2]
        cfg["mu_list"] = []
        cfg["mu_sweep"]["count"] = 5
        cfg["low_beta_mu_sweep"]["count"] = 5
        records = figure_records(cfg)
        low = [r for r in records if r.beta == 0.001]
        assert len(low) == 5
        assert low[0].mu == -6000.0 and low[-1].mu == -4500.0

    def test_csv_layout(self, small_config):
        records = figure_records(small_config)
        text = records_to_csv(records)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(records) + 1
        first = lines[1].split(",")
        assert first[0] == "exact"
        assert float(first[1]) == 0.6
        # shortest round-trip formatting survives parsing
        assert float(first[5]) == records[0].log_z

    def test_byte_determinism(self, small_config):
        a = records_to_csv(figure_records(small_config))
        b = records_to_csv(figure_records(small_config))
        assert a == b

    def test_json_output(self, small_config):
        records = figure_records(small_config)
        payload = json.loads(records_to_json(records))
        assert len(payload) == len(records)
        assert payload[0]["method"] == "exact"
        assert payload[0]["number"] == records[0].number
