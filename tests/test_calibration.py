import numpy as np
import pytest

from conftest import make_synthetic_records
from streampcq.calibration import (
    FitDiagnostics,
    TrainingRecord,
    fit_line,
    fit_quadratic,
    stage_a_mos_vs_tqs,
    stage_b_tc_model,
    stage_c_alpha_tc,
    stage_d_beta_pqs,
    train_full,
)
from streampcq.errors import DegenerateDesign
from streampcq.evaluation import plcc
from streampcq.model import ModelParams, predict, tqs_from_qp


def params_tuple(p):
    return (p.a1, p.a2, p.a3, p.b1, p.b2, p.c, p.d, p.f1, p.f2)


# ---------------------------------------------------------------------------
# Elementary fits


def test_fit_line_exact():
    assert fit_line([0, 1], [1, 3]) == pytest.approx((2.0, 1.0))


def test_fit_line_constant_y():
    slope, intercept = fit_line([1, 2, 3], [5, 5, 5])
    assert slope == 0.0
    assert intercept == 5.0


def test_fit_line_hand_computed():
    slope, intercept = fit_line([1, 2, 3], [1, 2, 4])
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert intercept == pytest.approx(-2.0 / 3.0, abs=1e-12)


def test_fit_line_degenerate():
    with pytest.raises(DegenerateDesign):
        fit_line([2, 2, 2], [1, 2, 3])
    with pytest.raises(DegenerateDesign):
        fit_line([1], [1])


def test_fit_quadratic_exact_parabola():
    xs = np.linspace(-3, 3, 11)
    a, b, c = fit_quadratic(xs, xs**2)
    assert (a, b, c) == pytest.approx((1.0, 0.0, 0.0), abs=1e-9)


def test_fit_quadratic_interpolates_three_points():
    a, b, c = fit_quadratic([0, 1, 2], [1, 0, 3])
    for x, y in [(0, 1), (1, 0), (2, 3)]:
        assert a * x * x + b * x + c == pytest.approx(y, abs=1e-10)


def test_fit_quadratic_recovers_h_polynomial():
    p = ModelParams()
    qps = [22, 28, 34, 40, 46]
    ys = [p.a1 * q * q + p.a2 * q + p.a3 for q in qps]
    assert fit_quadratic(qps, ys) == pytest.approx((p.a1, p.a2, p.a3), abs=1e-6)


def test_fit_quadratic_degenerate():
    with pytest.raises(DegenerateDesign):
        fit_quadratic([1, 1, 2], [1, 2, 3])


def test_residual_orthogonality():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0, 10, 50)
    ys = 3 * xs - 2 + rng.normal(0, 1, 50)
    slope, intercept = fit_line(xs, ys)
    r = ys - (slope * xs + intercept)
    scale = float(np.abs(ys).sum())
    assert abs(r.sum()) / scale < 1e-8
    assert abs((r * xs).sum()) / (scale * 10) < 1e-8
    a, b, c = fit_quadratic(xs, ys)
    r2 = ys - (a * xs * xs + b * xs + c)
    assert abs(r2.sum()) / scale < 1e-8
    assert abs((r2 * xs).sum()) / (scale * 10) < 1e-8
    assert abs((r2 * xs * xs).sum()) / (scale * 100) < 1e-8


# ---------------------------------------------------------------------------
# Stages


def test_stage_a_exact_linear_group():
    rows = [TrainingRecord("c0", 1.0, qp, 0.5, 30.0,
                           mos=-0.1 * tqs_from_qp(qp) + 80.0)
            for qp in (22, 28, 34, 40, 46)]
    out = stage_a_mos_vs_tqs(rows)
    assert out[("c0", 1.0)] == pytest.approx((-0.1, 80.0), abs=1e-12)


def test_stage_a_single_qp_group_skipped():
    rows = [TrainingRecord("c0", 1.0, 22, 0.5, 30.0, 50.0),
            TrainingRecord("c0", 1.0, 22, 0.6, 30.0, 55.0),
            TrainingRecord("c1", 1.0, 22, 0.5, 40.0, 60.0),
            TrainingRecord("c1", 1.0, 28, 0.5, 40.0, 58.0)]
    diag = FitDiagnostics()
    out = stage_a_mos_vs_tqs(rows, diag)
    assert ("c0", 1.0) not in out
    assert ("c1", 1.0) in out
    assert any(g[1] == ("c0", 1.0) for g in diag.skipped_groups)


def test_stage_a_full_grid_recovery(synthetic_records, table_params):
    out = stage_a_mos_vs_tqs(synthetic_records)
    assert len(out) == 80
    for (content, pqs), (alpha_obs, beta_obs) in out.items():
        tc = next(r.tc for r in synthetic_records if r.content == content)
        assert alpha_obs == pytest.approx(table_params.c * tc + table_params.d, abs=1e-9)
        assert beta_obs == pytest.approx(
            table_params.f1 / pqs + table_params.f2, abs=1e-9)


def test_stage_b_recovery(synthetic_records, table_params):
    got = stage_b_tc_model(synthetic_records)
    assert got == pytest.approx(
        (table_params.a1, table_params.a2, table_params.a3,
         table_params.b1, table_params.b2), abs=1e-6)


def test_stage_b_constant_tbpp_cell_skipped():
    rows = [TrainingRecord(f"c{i}", 1.0, qp, 0.5 if qp == 22 else 0.1 * i, 10.0 + i, 50.0)
            for i in range(4) for qp in (22, 28, 34)]
    diag = FitDiagnostics()
    with pytest.raises(DegenerateDesign):
        # only 2 usable qp cells remain after the constant-tbpp cell is skipped
        stage_b_tc_model(rows, diag)
    assert any(g[1] == (1.0, 22) for g in diag.skipped_groups)


def test_stage_c_exact():
    alpha_by_group = {("a", 1.0): (0.05, 80.0), ("b", 1.0): (0.11, 81.0)}
    tc = {"a": 10.0, "b": 40.0}
    c, d = stage_c_alpha_tc(alpha_by_group, tc)
    assert c == pytest.approx(0.002, abs=1e-12)
    assert d == pytest.approx(0.03, abs=1e-12)


def test_stage_d_table_values():
    betas = {85.4838: 1.0, 82.7833: 0.5, 77.3823: 0.25, 66.5803: 0.125}
    alpha_by_group = {(f"c{i}", pqs): (0.0, beta)
                      for i, (beta, pqs) in enumerate(betas.items())}
    f1, f2 = stage_d_beta_pqs(alpha_by_group)
    assert (f1, f2) == pytest.approx((-2.7005, 88.1843), abs=1e-4)


def test_stage_d_constant_beta():
    alpha_by_group = {("a", 1.0): (0.0, 70.0), ("b", 0.5): (0.0, 70.0)}
    assert stage_d_beta_pqs(alpha_by_group) == pytest.approx((0.0, 70.0))


def test_stage_d_single_pqs_level():
    alpha_by_group = {("a", 1.0): (0.0, 70.0), ("b", 1.0): (0.0, 75.0)}
    with pytest.raises(DegenerateDesign):
        stage_d_beta_pqs(alpha_by_group)


# ---------------------------------------------------------------------------
# Full pipeline


def test_train_full_generate_and_recover(synthetic_records, table_params):
    params, diag = train_full(synthetic_records)
    assert params_tuple(params) == pytest.approx(
        params_tuple(table_params), abs=1e-6)
    assert all(rss >= 0 for rss in diag.stage_rss.values())


def test_train_full_other_generator_params():
    gen = ModelParams(a1=0.1, a2=-3.0, a3=60.0, b1=0.4, b2=-1.0,
                      c=0.004, d=-0.5, f1=-5.0, f2=75.0)
    records = make_synthetic_records(gen, tc_values=[20.0, 60.0, 110.0, 140.0])
    params, _ = train_full(records)
    assert params_tuple(params) == pytest.approx(params_tuple(gen), abs=1e-6)


def test_train_full_single_pqs_fails():
    rows = [r for r in make_synthetic_records() if r.pqs == 1.0]
    with pytest.raises(DegenerateDesign):
        train_full(rows)


def test_train_full_noisy_recovery():
    rng = np.random.default_rng(42)
    noisy = make_synthetic_records(noise_sigma=0.5, rng=rng)
    params, _ = train_full(noisy, variant="alpha-times-tqs")
    preds = [predict(params, r).pmos for r in noisy]
    assert plcc(preds, [r.mos for r in noisy]) > 0.99


def test_record_order_invariance(synthetic_records):
    p1, _ = train_full(synthetic_records)
    rng = np.random.default_rng(5)
    shuffled = list(synthetic_records)
    rng.shuffle(shuffled)
    p2, _ = train_full(shuffled)
    assert params_tuple(p1) == params_tuple(p2)


def test_train_full_diagnostics_per_stage(synthetic_records):
    _params, diag = train_full(synthetic_records)
    # 20 contents x 4 pqs x 5 qp stimuli; 80 (content, pqs) alphas; 4 pqs levels
    assert diag.stage_samples == {"A": 400, "B": 400, "C": 80, "D": 4}
    assert set(diag.stage_rss) == {"A", "B", "C", "D"}
    assert all(0.0 <= rss < 1e-12 for rss in diag.stage_rss.values())
    assert diag.skipped_groups == []


def test_train_full_defaults_to_the_variant_stage_a_fits(synthetic_records):
    params, _ = train_full(synthetic_records)
    assert params.variant == "alpha-times-tqs"
