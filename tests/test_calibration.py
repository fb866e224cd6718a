import dataclasses

import numpy as np
import pytest

from conftest import make_synthetic_records
from streampcq import calibration as cal
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
    assert type(slope) is float and type(intercept) is float


def test_fit_line_degenerate():
    with pytest.raises(DegenerateDesign):
        fit_line([2, 2, 2], [1, 2, 3])
    with pytest.raises(DegenerateDesign):
        fit_line([1], [1])
    # the mean of three 0.1s is not 0.1, so the centred x are tiny, not zero
    with pytest.raises(DegenerateDesign, match="all x values identical"):
        fit_line([0.1, 0.1, 0.1], [1.0, 2.0, 4.0])


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


def test_first_tc_per_content_does_not_depend_on_record_order(synthetic_records):
    rng = np.random.default_rng(8)
    jittered = [dataclasses.replace(r, tc=r.tc + rng.normal(0.0, 1.0)) for r in synthetic_records]
    p1, _ = train_full(jittered)
    rng.shuffle(jittered)
    p2, _ = train_full(jittered)
    assert params_tuple(p1) == params_tuple(p2)


# ---------------------------------------------------------------------------
# The grouped fit against one fit_line call per group


def random_panel(rng):
    """Records over a few contents, pqs and qp levels, with singleton groups,
    groups of one qp (constant tqs), cells of one tbpp and repeated rows."""
    records = []
    for ci in range(int(rng.integers(1, 5))):
        for pqs in rng.choice([0.125, 0.25, 0.5, 1.0], size=int(rng.integers(1, 4)), replace=False):
            qps = rng.choice([22, 28, 34, 40, 46], size=int(rng.integers(1, 6)), replace=False)
            for qp in qps[: int(rng.integers(1, len(qps) + 1))]:
                tbpp = 0.1 if rng.random() < 0.3 else float(rng.uniform(0.05, 3.0))
                for _ in range(int(rng.integers(1, 3))):
                    records.append(TrainingRecord(f"c{ci}", float(pqs), int(qp), tbpp,
                                                  float(rng.uniform(5, 150)),
                                                  float(rng.uniform(10, 90))))
    return records


def per_group_fit_line(stage, records, group_of, x_of, y_of):
    """The reference: records grouped in Python, fit_line once per group."""
    groups = {}
    for r in sorted(records, key=lambda r: (r.content, r.pqs, r.qp, r.tbpp, r.mos)):
        groups.setdefault(group_of(r), []).append(r)
    fits, diag = {}, FitDiagnostics()
    rss = n = 0
    for key in sorted(groups):
        xs = np.array([x_of(r) for r in groups[key]])
        ys = np.array([y_of(r) for r in groups[key]])
        try:
            fits[key] = fit_line(xs, ys)
        except DegenerateDesign as exc:
            diag.skipped_groups.append((stage, key, str(exc)))
            continue
        rss += float(np.sum((ys - (fits[key][0] * xs + fits[key][1])) ** 2))
        n += len(xs)
    diag.stage_rss[stage], diag.stage_samples[stage] = rss, n
    return fits, diag


def grouped(stage, records):
    cols = cal._canonical(records)
    diag = FitDiagnostics()
    if stage == "A":
        fits = cal._fit_groups("A", [cols.content, cols.pqs], tqs_from_qp(cols.qp), cols.mos, diag)
    else:
        fits = cal._fit_groups("B", [cols.pqs, cols.qp], cols.tbpp, cols.tc, diag)
    return fits, diag


STAGE_GROUPS = {
    "A": (lambda r: (r.content, r.pqs), lambda r: tqs_from_qp(r.qp), lambda r: r.mos),
    "B": (lambda r: (r.pqs, r.qp), lambda r: r.tbpp, lambda r: r.tc),
}


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("stage", ["A", "B"])
def test_grouped_fit_matches_fit_line_per_group(stage, seed):
    rng = np.random.default_rng(seed)
    records = random_panel(rng)
    want, want_diag = per_group_fit_line(stage, records, *STAGE_GROUPS[stage])
    got, diag = grouped(stage, records)

    assert list(got) == list(want)
    for key, (slope, intercept) in want.items():
        assert got[key][0] == pytest.approx(slope, rel=1e-12, abs=1e-12 * abs(intercept))
        assert got[key][1] == pytest.approx(intercept, rel=1e-12)
    assert diag.skipped_groups == want_diag.skipped_groups
    assert diag.stage_samples == want_diag.stage_samples
    assert diag.stage_rss[stage] == pytest.approx(want_diag.stage_rss[stage], rel=1e-9, abs=1e-20)
    # skipped keys are plain Python values, so `train` prints them as it always did
    for _stage, key, _reason in diag.skipped_groups:
        assert [type(v) for v in key] == ([str, float] if stage == "A" else [float, int])

    shuffled = list(records)
    rng.shuffle(shuffled)
    again, again_diag = grouped(stage, shuffled)
    assert again == got and again_diag == diag

