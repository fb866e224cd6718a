from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sps

from conftest import make_synthetic_records
from streampcq import evaluation
from streampcq.calibration import record_columns, train_full
from streampcq.errors import DegenerateDesign, InvalidInput, StreamPcqError, ZeroVariance
from streampcq.evaluation import (
    ScorePairSet,
    average_ranks,
    evaluate,
    f_quantile,
    f_test,
    fit_logistic,
    loocv,
    plcc,
    random_split_eval,
    rmse,
    srcc,
)
from streampcq.model import predict


# ---------------------------------------------------------------------------
# Basic metrics


def test_identity_pairs():
    x = np.array([1.0, 2.0, 5.0, 9.0])
    assert plcc(x, x) == pytest.approx(1.0)
    assert srcc(x, x) == pytest.approx(1.0)
    assert rmse(x, x) == 0.0


def test_exact_negative_linear():
    x = [1.0, 2.0, 3.0]
    y = [6.0, 4.0, 2.0]
    assert plcc(x, y) == pytest.approx(-1.0)
    assert srcc(x, y) == pytest.approx(-1.0)


def test_srcc_with_ties_matches_scipy():
    x = [1.0, 2.0, 2.0, 3.0]
    y = [1.0, 3.0, 2.0, 4.0]
    assert average_ranks(x).tolist() == [1.0, 2.5, 2.5, 4.0]
    expected = sps.spearmanr(x, y).statistic
    assert srcc(x, y) == pytest.approx(expected, abs=1e-12)


def average_ranks_loop(x):
    """Tie run by tie run over the sorted order, the reference for the array form."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x), dtype=float)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_average_ranks_match_tie_loop_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(0, 200))
        x = rng.integers(-5, 6, size=n) * rng.choice([0.5, 1.0, 1e6])
        if rng.random() < 0.3:
            x = np.where(rng.random(n) < 0.5, x, rng.normal(size=n))
        x[rng.random(n) < 0.2] = 0.0
        x[rng.random(n) < 0.2] = -0.0
        assert average_ranks(x).tobytes() == average_ranks_loop(x).tobytes()


def test_metrics_against_scipy_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.normal(size=400)
        y = 0.5 * x + rng.normal(size=400)
        # inject ties
        x[:40] = np.round(x[:40], 1)
        assert plcc(x, y) == pytest.approx(sps.pearsonr(x, y).statistic, abs=1e-9)
        assert srcc(x, y) == pytest.approx(sps.spearmanr(x, y).statistic, abs=1e-9)
        assert rmse(x, y) == pytest.approx(
            float(np.sqrt(np.mean((x - y) ** 2))), abs=1e-12)


def test_zero_variance():
    with pytest.raises(ZeroVariance):
        plcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_plcc_affine_invariance():
    rng = np.random.default_rng(10)
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    assert plcc(3.0 * x + 7.0, y) == pytest.approx(plcc(x, y), abs=1e-12)


def test_srcc_monotone_transform_invariance():
    rng = np.random.default_rng(11)
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    assert srcc(np.exp(x), y) == pytest.approx(srcc(x, y), abs=1e-12)


def test_rmse_symmetry():
    rng = np.random.default_rng(12)
    x, y = rng.normal(size=30), rng.normal(size=30)
    assert rmse(x, y) == rmse(y, x)


# ---------------------------------------------------------------------------
# Logistic fit


def logistic(params, s):
    b1, b2, b3, b4 = params
    return b2 + (b1 - b2) / (1.0 + np.exp(-(s - b3) / abs(b4)))


def test_logistic_generate_and_recover():
    truth = (95.0, 10.0, 50.0, 12.0)
    s = np.linspace(0, 100, 60)
    y = logistic(truth, s)
    fit = fit_logistic(s, y)
    assert fit.rss < 1e-10
    assert fit.mapped == pytest.approx(y, abs=1e-5)


def test_logistic_nests_linear():
    s = np.linspace(0, 100, 41)
    y = 0.8 * s + 5.0
    fit = fit_logistic(s, y)
    slope, intercept = np.polyfit(s, y, 1)
    linear_rmse = float(np.sqrt(np.mean((slope * s + intercept - y) ** 2)))
    assert rmse(fit.mapped, y) <= linear_rmse + 1e-9


def test_logistic_constant_objective():
    with pytest.raises(ZeroVariance):
        fit_logistic(np.full(10, 3.0), np.arange(10.0))


def test_logistic_too_few_points():
    with pytest.raises(DegenerateDesign):
        fit_logistic(np.arange(4.0), np.arange(4.0))


def test_score_pair_set_needs_five_equal_length_pairs():
    with pytest.raises(DegenerateDesign, match="need at least five score pairs, got 4"):
        ScorePairSet(np.arange(4.0), np.arange(4.0))
    with pytest.raises(ValueError, match="equal-length"):
        ScorePairSet(np.arange(5.0), np.arange(6.0))
    assert len(ScorePairSet(np.arange(5.0), np.arange(5.0)).mos) == 5


def test_logistic_decreasing_data():
    s = np.linspace(0, 10, 30)
    y = logistic((10.0, 90.0, 5.0, 2.0), s)  # decreasing: b1 < b2
    fit = fit_logistic(s, y)
    assert fit.rss < 1e-8


SHAPES = ("increasing", "decreasing", "near-linear", "step-like", "noisy")


def make_panel(shape, n, seed, noise):
    """An (objective, mos) panel of `n` points in one of SHAPES."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 100.0, n)
    s[:2] = 0.0, 100.0  # never constant
    lo, hi = np.sort(rng.uniform(0.0, 100.0, 2))
    centre = rng.uniform(-50.0, 150.0)
    if shape in ("increasing", "decreasing"):
        b1, b2 = (hi, lo) if shape == "increasing" else (lo, hi)
        y = logistic((b1, b2, centre, rng.uniform(2.0, 60.0)), s)
    elif shape == "near-linear":
        y = rng.normal(0.0, 1.0) * s + rng.uniform(-5e-4, 5e-4) * (s - 50.0) ** 2
    elif shape == "step-like":
        y = np.where(s > rng.uniform(10.0, 90.0), hi, lo)
    else:
        y = rng.uniform(0.0, 100.0, n)
    return s, y + rng.normal(0.0, noise, n)


panels = st.builds(make_panel, st.sampled_from(SHAPES), st.integers(min_value=5, max_value=80),
                   st.integers(min_value=0, max_value=2**32 - 1),
                   st.sampled_from((1e-3, 0.3, 3.0, 15.0)))


def grid_rss(s, y):
    """Least RSS of the logistics on a dense (b3, b4) grid, b1 and b2 in closed form.

    b3 runs to two score ranges beyond the data and b4 from a tenth of the
    range to 1000 ranges.  Points where |b1 - b2| passes 1e7 times the MOS
    range, which fit_logistic refuses, are left out.  Sharper steps are not
    covered: on noisy panels one can hold a lower RSS than the fit's starts
    find (README, Notes).
    """
    span = np.ptp(s)
    b3 = np.linspace(s.min() - 2.0 * span, s.max() + 2.0 * span, 120)[:, None, None]
    b4 = span / np.geomspace(1e-3, 10.0, 41)[None, :, None]
    th = np.tanh(0.5 * (s - b3) / b4)
    tc = th - th.mean(axis=-1, keepdims=True)
    half = (tc @ y) / (tc * tc).sum(axis=-1)
    mid = y.mean() - half * th.mean(axis=-1)
    mapped = logistic_tanh_form(((mid + half)[..., None], (mid - half)[..., None], b3, b4), s)
    rss = np.square(mapped - y).sum(axis=-1)
    return float(rss[np.abs(2.0 * half) <= 1e7 * np.ptp(y)].min())


def logistic_tanh_form(params, s):
    b1, b2, b3, b4 = params
    return 0.5 * (b1 + b2) + 0.5 * (b1 - b2) * np.tanh(0.5 * (s - b3) / abs(b4))


def predicted_reduction(params, s, y):
    """RSS reduction a full Gauss-Newton step over (b3, 1/b4) predicts at `params`,
    the level and gain at their least-squares values for every (b3, 1/b4).

    That is the part of the residual in span(1, tanh, J) beyond span(1, tanh).
    It is computed by Gram-Schmidt in exact rationals on the float64 columns:
    when the step sits past the data, J can be too ill-conditioned (cond above
    1e13) for a float64 least-squares solve.
    """
    b1, b2, b3, b4 = params
    th = np.tanh(0.5 * (s - b3) / b4)
    slope = 0.5 * (b1 - b2) * (1.0 - th * th)
    columns = (np.ones_like(s), th, 0.5 * slope / b4, -0.5 * (s - b3) * slope)
    r = [Fraction(float(v)) for v in y - logistic_tanh_form(params, s)]
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    basis, parts = [], []
    for column in columns:
        v = [Fraction(float(x)) for x in column]
        for q, qq in basis:
            f = dot(q, v) / qq
            v = [a - f * b for a, b in zip(v, q)]
        vv = dot(v, v)
        if vv:  # a column in the span of those before it adds nothing
            basis.append((v, vv))
        parts.append(dot(v, r) ** 2 / vv if vv else 0)
    return float(sum(parts[2:]))


@settings(max_examples=150, deadline=None)
@given(panels)
@example(make_panel("noisy", 5, 1, 0.3))  # J with cond 1e14: a float64 solve reads 2e-9
@example(make_panel("near-linear", 5, 5, 3.0))  # the near-linear start, |b1 - b2| ~ 1e6 ranges
def test_logistic_fit_reaches_the_grid_minimum(panel):
    s, y = panel
    fit = fit_logistic(s, y)
    assert fit.rss <= grid_rss(s, y) * (1.0 + 1e-9)
    assert all(np.isfinite(fit.params)) and fit.params[3] > 0.0
    assert np.array_equal(fit.mapped, logistic_tanh_form(fit.params, s))
    assert fit.rss == pytest.approx(float(np.square(fit.mapped - y).sum()), rel=1e-12)
    if fit.converged:
        floor = 1e-20 * len(y) * (float(np.var(y)) + 1.0)
        # the fit's own test, recomputed here with 10 % slack for its rounding
        assert fit.rss <= floor or predicted_reduction(fit.params, s, y) <= (
            1.1 * evaluation._GTOL) ** 2 * fit.rss


def noisy_panel():
    rng = np.random.default_rng(3)
    s = rng.uniform(0.0, 100.0, 60)
    return s, logistic((90.0, 10.0, 40.0, 12.0), s) + rng.normal(0.0, 5.0, 60)


def test_logistic_unconverged_at_the_trial_cap(monkeypatch):
    s, y = noisy_panel()
    assert fit_logistic(s, y).converged
    monkeypatch.setattr(evaluation, "_MAX_TRIALS", 1)
    assert not fit_logistic(s, y).converged


def test_logistic_unconverged_when_stalled(monkeypatch):
    s, y = noisy_panel()
    reference = fit_logistic(s, y)
    # with no tolerance only a stall ends the search: no lower RSS at any damping
    monkeypatch.setattr(evaluation, "_GTOL", 0.0)
    monkeypatch.setattr(evaluation, "_MAX_TRIALS", 10**5)
    fit = fit_logistic(s, y)
    assert not fit.converged
    assert fit.rss <= reference.rss * (1.0 + 1e-9)


def held_out_panel(cols, train):
    """The (objective, mos) panel of the held-out fold that trains on the
    records of the mask `train`."""
    params, _diag = train_full(cols[train])
    test = cols[~train]
    return predict(params, test).pmos, test.mos


def split_panel(cols, seed, i):
    """The panel of split `i` of random_split_eval(cols, seed=seed)."""
    contents, rng = np.unique(cols.content), np.random.default_rng(seed)
    for _ in range(i + 1):
        train = np.isin(cols.content, contents[rng.choice(len(contents), size=10, replace=False)])
    return held_out_panel(cols, train)


def counted_fit(monkeypatch, s, y):
    """fit_logistic(s, y) and its number of _project calls: one, then one per
    trial the search does not end on."""
    calls, project = [], evaluation._project
    monkeypatch.setattr(evaluation, "_project", lambda *a: calls.append(1) or project(*a))
    fit = fit_logistic(s, y)
    monkeypatch.setattr(evaluation, "_project", project)
    return fit, len(calls)


def tail_records():
    return make_synthetic_records(noise_sigma=2.0, rng=np.random.default_rng(2))


# the folds of tail_records whose fit ends unconverged with b3 tens to
# hundreds of score ranges out, on the exponential-tail path
TAIL_FOLDS = ("content02", "content03", "content04", "content06", "content07",
              "content12", "content14", "content17")


@pytest.mark.parametrize("held", TAIL_FOLDS)
def test_a_settled_tail_fit_ends_without_the_trial_cap(monkeypatch, held):
    cols = record_columns(tail_records())
    s, y = held_out_panel(cols, cols.content != held)
    monkeypatch.setattr(evaluation, "_MAX_TRIALS", 10**5)
    fit, calls = counted_fit(monkeypatch, s, y)
    assert calls <= 60 and not fit.converged
    assert abs(fit.params[2] - s.mean()) >= evaluation._TAIL_SPANS * np.ptp(s)
    # without the end rule the search runs past the default cap of 100 trials
    monkeypatch.setattr(evaluation, "_TAIL_SPANS", np.inf)
    uncut, uncut_calls = counted_fit(monkeypatch, s, y)
    assert uncut_calls > 101 and not uncut.converged
    assert fit.rss <= uncut.rss * (1.0 + 1e-7)


def test_a_run_of_rejected_steps_does_not_end_a_tail_fit(monkeypatch):
    # split 134 of the sigma-5 records' seed-1 splits: its lowest-RSS start is
    # on the tail path but rejects the steps of trials 4-8, and then a slide
    # cuts its RSS by 8e-5 of itself
    cols = record_columns(make_synthetic_records(noise_sigma=5.0, rng=np.random.default_rng(5)))
    s, y = split_panel(cols, 1, 134)
    fit = fit_logistic(s, y)
    assert abs(fit.params[2] - s.mean()) >= evaluation._TAIL_SPANS * np.ptp(s)
    monkeypatch.setattr(evaluation, "_TAIL_SPANS", np.inf)
    uncut = fit_logistic(s, y)
    assert not fit.converged and fit.rss <= uncut.rss * (1.0 + 1e-7)


def test_the_end_rule_never_cuts_a_fit_at_the_data(monkeypatch):
    cols = record_columns(tail_records())
    panels = [held_out_panel(cols, cols.content != held)
              for held in np.unique(cols.content).tolist() if held not in TAIL_FOLDS]
    panels += [noisy_panel()] + [make_panel(shape, 60, seed, 3.0)
                                 for shape in ("increasing", "decreasing", "step-like")
                                 for seed in range(5)]

    def fits(**patches):
        for name, value in patches.items():
            monkeypatch.setattr(evaluation, name, value)
        return [counted_fit(monkeypatch, s, y) for s, y in panels]

    def bits(fit, calls):
        return fit.params, fit.mapped.tobytes(), fit.rss, fit.converged, calls

    uncut = fits(_TAIL_SPANS=np.inf)
    panels = [p for p, (f, _) in zip(panels, uncut) if abs(f.params[2] - p[0].mean()) < np.ptp(p[0])]
    assert len(panels) >= 20
    monkeypatch.undo()
    assert [bits(*r) for r in fits()] == [bits(*r) for r in fits(_TAIL_SPANS=np.inf)]
    # with no tolerance only a stall ends a search, long after its RSS settles
    monkeypatch.undo()
    stalled = fits(_GTOL=0.0, _MAX_TRIALS=10**5)
    assert [bits(*r) for r in stalled] == [bits(*r) for r in fits(_TAIL_SPANS=np.inf)]
    assert all(not f.converged for f, _ in stalled) and max(c for _, c in stalled) > 60


@st.composite
def panel_batches(draw):
    """Panels of one or two lengths from 5 to 200 with one constant-objective
    panel among them, and a batch size in panels of the longest length."""
    lengths = draw(st.lists(st.integers(min_value=5, max_value=200), min_size=1, max_size=2))
    panels = [make_panel(shape, draw(st.sampled_from(lengths)), seed, noise)
              for shape, seed, noise in draw(st.lists(
                  st.tuples(st.sampled_from(SHAPES), st.integers(min_value=0, max_value=2**32 - 1),
                            st.sampled_from((1e-3, 0.3, 3.0, 15.0))), min_size=1, max_size=8))]
    constant = draw(st.integers(min_value=0, max_value=len(panels)))
    panels.insert(constant, (np.full(lengths[0], 3.0), np.arange(float(lengths[0]))))
    return panels, constant, draw(st.integers(min_value=1, max_value=3)) * max(lengths)


def report_bits(rep):
    return (rep.plcc, rep.srcc, rep.rmse, rep.logistic_params, rep.mapped.tobytes(), rep.converged)


@settings(max_examples=20, deadline=None)
@given(panel_batches())
def test_batched_fits_equal_lone_fits_bitwise(batches):
    panels, constant, budget = batches
    # a budget of 1-3 panels of the longest length: batches fill and are cut
    with mock.patch.object(evaluation, "_BATCH_ELEMENTS", evaluation._STARTS * budget):
        got = dict(evaluation._evaluate_each(
            (i, ScorePairSet(s, y)) for i, (s, y) in enumerate(panels)))
    assert sorted(got) == list(range(len(panels)))
    assert isinstance(got.pop(constant), ZeroVariance)
    for i, rep in got.items():
        assert report_bits(rep) == report_bits(evaluate(ScorePairSet(*panels[i])))
    # the LogisticFit of each panel, rss too, from one search over one length
    fitted = [p for i, p in enumerate(panels) if i != constant]
    group = [p for p in fitted if len(p[0]) == len(fitted[-1][0])]
    batched = evaluation._fit_panels(*(np.stack(c) for c in zip(*group)))
    for (s, y), fit in zip(group, batched, strict=True):
        lone = fit_logistic(s, y)
        assert (fit.params, fit.mapped.tobytes(), fit.rss, fit.converged) == (
            lone.params, lone.mapped.tobytes(), lone.rss, lone.converged)


def test_a_constant_mapping_fails_only_its_panel():
    # two objective levels with equal MOS means: every start maps to the mean
    flat = ScorePairSet([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 3.0, 2.0, 1.0])
    other = ScorePairSet(*make_panel("noisy", 6, 1, 0.3))
    with pytest.raises(ZeroVariance):
        evaluate(flat)
    got = dict(evaluation._evaluate_each([("flat", flat), ("other", other)]))
    assert isinstance(got["flat"], ZeroVariance)
    assert report_bits(got["other"]) == report_bits(evaluate(other))


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_identity():
    x = np.linspace(0, 100, 40)
    rep = evaluate(ScorePairSet(x, x))
    assert rep.plcc == pytest.approx(1.0, abs=1e-9)
    assert rep.srcc == pytest.approx(1.0)
    assert rep.rmse == pytest.approx(0.0, abs=1e-6)


def test_evaluate_negated_scores():
    rng = np.random.default_rng(13)
    mos = np.sort(rng.uniform(0, 100, 50))
    rep = evaluate(ScorePairSet(-mos, mos))
    assert rep.srcc == pytest.approx(-1.0)
    assert rep.plcc == pytest.approx(1.0, abs=1e-6)  # mapping absorbs the sign


def test_evaluate_matches_definitions():
    rng = np.random.default_rng(14)
    obj = rng.uniform(0, 10, 100)
    mos = 60.0 - 4.0 * obj + rng.normal(0, 3, 100)
    rep = evaluate(ScorePairSet(obj, mos))
    # brute-force definitional recomputation on the mapped scores
    m = rep.mapped
    assert rep.plcc == pytest.approx(
        float(np.corrcoef(m, mos)[0, 1]), abs=1e-9)
    assert rep.rmse == pytest.approx(
        float(np.sqrt(np.mean((m - mos) ** 2))), abs=1e-9)
    assert rep.srcc == pytest.approx(sps.spearmanr(obj, mos).statistic, abs=1e-9)


# ---------------------------------------------------------------------------
# LOOCV and splits


def test_loocv_structure(synthetic_records):
    folds, summary = loocv(synthetic_records, variant="alpha-times-tqs")
    assert len(folds) == 20
    assert not summary["failed_folds"]
    for rep in folds.values():
        assert rep.plcc == pytest.approx(1.0, abs=1e-9)


def test_loocv_single_content_fails():
    rows = [r for r in make_synthetic_records() if r.content == "content00"]
    with pytest.raises(DegenerateDesign):
        loocv(rows)


def test_random_splits_deterministic(synthetic_records):
    r1, s1 = random_split_eval(synthetic_records, n_splits=5, seed=123,
                               variant="alpha-times-tqs")
    r2, s2 = random_split_eval(synthetic_records, n_splits=5, seed=123,
                               variant="alpha-times-tqs")
    assert r1 == r2
    assert s1["mean"] == s2["mean"]
    for p, _s, _r in r1:
        assert p == pytest.approx(1.0, abs=1e-9)


def test_random_splits_zero_is_empty(synthetic_records):
    results, summary = random_split_eval(synthetic_records, n_splits=0, seed=1)
    assert results == []
    assert summary["mean"] is None


@pytest.mark.parametrize("n_splits, n_train, says", [
    (-1, 10, "n_splits must be >= 0, got -1"),
    (5, 0, "n_train must be >= 1, got 0"),
    (5, -1, "n_train must be >= 1, got -1"),
])
def test_random_splits_reject_bad_counts(synthetic_records, n_splits, n_train, says):
    with pytest.raises(InvalidInput, match=says):
        random_split_eval(synthetic_records, n_splits=n_splits, n_train=n_train, seed=1)


def test_random_splits_require_seed(synthetic_records):
    with pytest.raises(ValueError):
        random_split_eval(synthetic_records, n_splits=1, seed=None)


def test_random_splits_refuse_a_negative_seed(synthetic_records):
    with pytest.raises(InvalidInput, match="seed must be >= 0, got -1"):
        random_split_eval(synthetic_records, n_splits=1, seed=-1)


def test_random_splits_default_variant_fits_noise_free_grid():
    _results, summary = random_split_eval(make_synthetic_records(), n_splits=20, seed=1)
    assert summary["mean"]["plcc"] > 0.999


def test_loocv_reports_small_held_out_contents_as_failed_folds():
    records = make_synthetic_records(tc_values=[10.0, 30.0, 50.0, 70.0, 90.0])
    # content03 keeps 4 stimuli and content04 keeps 3: too few for a score pair set
    keep = {"content03": 4, "content04": 3}
    seen = {}
    rows = []
    for r in records:
        seen[r.content] = seen.get(r.content, 0) + 1
        if seen[r.content] <= keep.get(r.content, 20):
            rows.append(r)
    folds, summary = loocv(rows)
    assert summary["failed_folds"] == {"content03": "need at least five score pairs, got 4",
                                       "content04": "need at least five score pairs, got 3"}
    assert sorted(folds) == ["content00", "content01", "content02"]


def test_loocv_lets_programming_errors_through(synthetic_records, monkeypatch):
    def broken(*_args, **_kwargs):
        raise TypeError("not a fold failure")

    monkeypatch.setattr(evaluation, "train_full", broken)
    with pytest.raises(TypeError):
        loocv(synthetic_records)


def held_out_reference(records, train_contents):
    """One fold as evaluate gives it: train on `train_contents`, score the rest."""
    params, _diag = train_full([r for r in records if r.content in train_contents])
    test = record_columns([r for r in records if r.content not in train_contents])
    return evaluate(ScorePairSet(predict(params, test).pmos, test.mos))


def test_loocv_on_ragged_contents_equals_per_fold_evaluate():
    noisy = make_synthetic_records(noise_sigma=0.5, rng=np.random.default_rng(3))
    rows = [r for r in noisy if r.content != "content05"]
    rows[100:100] = [r for r in noisy if r.content == "content05"][:12]
    contents = sorted({r.content for r in rows})
    folds, summary = loocv(rows)
    assert list(folds) == contents and not summary["failed_folds"]
    want = {held: held_out_reference(rows, set(contents) - {held}) for held in contents}
    assert any(not rep.converged for rep in want.values())
    for held in contents:
        assert report_bits(folds[held]) == report_bits(want[held])
    for k, column in zip(("plcc", "srcc", "rmse"),
                         zip(*[(w.plcc, w.srcc, w.rmse) for w in want.values()])):
        assert summary["mean"][k] == np.mean(column)


def params_bits(params):
    return np.array(list(params.to_dict().values())[:-1], dtype=float).tobytes(), params.variant


def trained_folds(monkeypatch, run):
    """(train columns, ModelParams) of each fold that trains while `run()` runs."""
    seen, train = [], evaluation.train_full

    def spy(cols, **kwargs):
        params, diag = train(cols, **kwargs)
        seen.append((cols, params))
        return params, diag

    monkeypatch.setattr(evaluation, "train_full", spy)
    run()
    monkeypatch.setattr(evaluation, "train_full", train)
    return seen


@pytest.mark.parametrize("records, skipped", [
    (tail_records(), []),
    # (content03, 0.5) keeps one row: stage A skips it
    ([r for r in tail_records()
      if not (r.content == "content03" and r.pqs == 0.5 and r.qp != 22)],
     [("A", ("content03", 0.5), "need at least two points")]),
], ids=["noisy", "skipped-group"])
def test_folds_share_one_stage_a_bit_for_bit(monkeypatch, records, skipped):
    cols = record_columns(records)
    assert [g for g in train_full(cols)[1].skipped_groups if g[0] == "A"] == skipped
    folds = trained_folds(monkeypatch, lambda: (loocv(cols),
                                                random_split_eval(cols, n_splits=50, seed=3)))
    assert len(folds) == 70
    for train, params in folds:
        assert params_bits(params) == params_bits(train_full(train)[0])


def reference_fold(cols, train):
    """What _fold_pairs yields for one fold, from train_full on the fold alone."""
    try:
        return ScorePairSet(*held_out_panel(cols, train))
    except (StreamPcqError, ValueError) as exc:
        return exc


def fold_bits(fold):
    if isinstance(fold, Exception):
        return type(fold), str(fold)
    return fold.objective.tobytes(), fold.mos.tobytes()


@pytest.mark.parametrize("fitted", [True, False], ids=["one-content-fits", "none-fits"])
def test_a_fold_with_no_group_to_fit_fails_as_alone(fitted):
    # content01..03 keep one qp each, so each of their (content, pqs) groups
    # has one row; content00 keeps its grid if `fitted`, and one qp if not
    one_qp = {"content00": None if fitted else 22, "content01": 22, "content02": 28,
              "content03": 34}
    cols = record_columns([r for r in make_synthetic_records(tc_values=[10.0, 30.0, 50.0, 70.0])
                           if one_qp[r.content] in (None, r.qp)])
    masks = [(held, cols.content != held) for held in np.unique(cols.content).tolist()]
    got = dict(evaluation._fold_pairs(cols, masks, "alpha-times-tqs"))
    want = {held: reference_fold(cols, train) for held, train in masks}
    assert {k: fold_bits(v) for k, v in got.items()} == {k: fold_bits(v) for k, v in want.items()}
    none_fitted = (DegenerateDesign, "no (content, pqs) group could be fitted")
    assert fold_bits(got["content00"] if fitted else got["content01"]) == none_fitted


def test_random_splits_across_two_batches_equal_per_split_evaluate():
    noisy = make_synthetic_records(noise_sigma=0.5, rng=np.random.default_rng(4))
    # 10 held-out contents of 20 stimuli: 200 scores per split, 14 splits a batch
    assert evaluation._BATCH_ELEMENTS // (evaluation._STARTS * 200) < 20
    results, summary = random_split_eval(noisy, n_splits=20, seed=5)
    assert (results, summary) == random_split_eval(noisy, n_splits=20, seed=5)
    contents = sorted({r.content for r in noisy})
    rng = np.random.default_rng(5)
    want = [held_out_reference(noisy, {contents[i] for i in rng.choice(20, size=10, replace=False)})
            for _ in range(20)]
    assert results == [(w.plcc, w.srcc, w.rmse) for w in want]
    assert summary["unconverged"] == sum(not w.converged for w in want) > 0


def test_summaries_are_column_mean_and_sample_std():
    noisy = make_synthetic_records(noise_sigma=0.5, rng=np.random.default_rng(3))
    folds, summary = loocv(noisy)
    results, split_summary = random_split_eval(noisy, n_splits=4, seed=2)
    for rows, summ in (([(f.plcc, f.srcc, f.rmse) for f in folds.values()], summary),
                       (results, split_summary)):
        for k, column in zip(("plcc", "srcc", "rmse"), zip(*rows)):
            assert summ["mean"][k] == np.mean(column)
            assert summ["std"][k] == np.std(column, ddof=1)
    _, single = random_split_eval(noisy, n_splits=1, seed=2)
    assert single["std"] is None
    assert single["n_splits"] == 1


def test_results_do_not_depend_on_row_order():
    noisy = make_synthetic_records(noise_sigma=0.5, rng=np.random.default_rng(3))
    shuffled = list(noisy)
    np.random.default_rng(9).shuffle(shuffled)
    folds, summary = loocv(noisy)
    again, again_summary = loocv(shuffled)
    assert list(again) == list(folds) and again_summary == summary
    assert all(report_bits(again[k]) == report_bits(rep) for k, rep in folds.items())
    splits = random_split_eval(noisy, n_splits=8, seed=2)
    assert random_split_eval(shuffled, n_splits=8, seed=2) == splits


def test_records_are_sorted_once_per_conversion(monkeypatch):
    noisy = make_synthetic_records(noise_sigma=0.5, rng=np.random.default_rng(3))
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(keys) or lexsort(keys))

    def sorts(run):
        calls.clear()
        run()
        return len(calls)

    assert sorts(lambda: loocv(noisy)) == 1
    assert sorts(lambda: random_split_eval(noisy, n_splits=8, seed=2)) == 1
    assert sorts(lambda: train_full(noisy)) == 1
    cols = record_columns(noisy)
    assert sorts(lambda: train_full(cols)) == 0


# ---------------------------------------------------------------------------
# F-test


def test_f_test_identical():
    r = np.array([0.5, -1.0, 2.0, -0.5, 1.0])
    verdict = f_test(r, r)
    assert verdict.f_statistic == pytest.approx(1.0)
    assert verdict.decision == "equivalent"


def test_f_test_doubled_residuals():
    rng = np.random.default_rng(15)
    b = rng.normal(0, 5, 400)
    verdict = f_test(2.0 * b, b)
    assert verdict.f_statistic == pytest.approx(4.0)
    assert verdict.decision == "column-better"
    assert f_quantile(0.975, 399, 399) == pytest.approx(1.22, abs=0.01)


def test_f_test_tiny_samples_equivalent():
    a = np.array([0.0, 4.0])
    b = np.array([0.0, 2.0])
    assert f_test(a, b).decision == "equivalent"  # critical value huge at 1 dof


def test_f_test_mirrored():
    rng = np.random.default_rng(16)
    a = rng.normal(0, 3, 200)
    b = rng.normal(0, 1, 200)
    va, vb = f_test(a, b), f_test(b, a)
    assert va.f_statistic == pytest.approx(1.0 / vb.f_statistic)
    assert {va.decision, vb.decision} == {"row-better", "column-better"}


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -1.0, float("nan")])
def test_f_test_level_must_lie_between_0_and_1(level):
    with pytest.raises(InvalidInput, match=f"level must be between 0 and 1, got {level}"):
        f_test([1.0, 2.0, 4.0], [1.0, 3.0, 2.0], level=level)


def test_f_quantile_matches_scipy():
    for p, d1, d2 in [(0.975, 10, 10), (0.025, 10, 10), (0.9, 5, 30), (0.5, 399, 399)]:
        assert f_quantile(p, d1, d2) == pytest.approx(
            sps.f.ppf(p, d1, d2), rel=1e-10)
