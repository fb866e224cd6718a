import numpy as np
import pytest

from streampcq.errors import DegenerateRange, InvalidInput, ZeroVarianceSubject
from streampcq.evaluation import plcc
from streampcq.subjective import (
    SubjectiveMatrix,
    compute_mos,
    rescale_to_range,
    screen_outliers,
    zscore,
)


def test_zscore_simple_subject():
    ratings = np.array([[50.0, 50.0], [70.0, 70.0], [90.0, 90.0]])
    z = zscore(ratings)
    assert z[:, 0] == pytest.approx([-1.0, 0.0, 1.0])


def test_zscore_constant_subject():
    ratings = np.array([[50.0, 10.0], [50.0, 20.0], [50.0, 30.0]])
    with pytest.raises(ZeroVarianceSubject):
        zscore(ratings)


def test_zscore_names_first_constant_subject():
    ratings = np.array([[10.0, 50.0, 1.0, 7.0],
                        [20.0, 50.0, 2.0, 7.0],
                        [30.0, np.nan, 3.0, 7.0]])
    with pytest.raises(ZeroVarianceSubject, match="subject 'b' "):
        zscore(ratings, ["a", "b", "c", "d"])
    with pytest.raises(ZeroVarianceSubject, match="subject 1 "):
        zscore(ratings)


def zscore_loop(ratings):
    """Subject by subject over the non-missing ratings, the reference for the array form."""
    out = np.full_like(ratings, np.nan)
    for i in range(ratings.shape[1]):
        col = ratings[:, i]
        mask = ~np.isnan(col)
        out[mask, i] = (col[mask] - col[mask].mean()) / col[mask].std(ddof=1)
    return out


def test_zscore_matches_subject_loop():
    rng = np.random.default_rng(12)
    for _ in range(100):
        ns, nj = rng.integers(3, 60), rng.integers(2, 30)
        ratings = rng.normal(50, 15, size=(ns, nj)) * rng.uniform(0.5, 2.0, size=nj)
        gaps = rng.random((ns, nj)) < 0.25
        gaps[:2] = False  # every subject keeps two ratings
        ratings[gaps] = np.nan
        # each column of z has unit sample std, so atol is relative to its scale
        np.testing.assert_allclose(zscore(ratings), zscore_loop(ratings),
                                   rtol=1e-12, atol=1e-12)


def test_zscore_columns_standardized():
    rng = np.random.default_rng(1)
    ratings = rng.uniform(0, 100, size=(400, 30))
    z = zscore(ratings)
    assert np.abs(z.mean(axis=0)).max() < 1e-10
    assert np.abs(z.std(axis=0, ddof=1) - 1.0).max() < 1e-10


def test_zscore_affine_invariance():
    rng = np.random.default_rng(2)
    ratings = rng.uniform(0, 100, size=(50, 4))
    biased = ratings.copy()
    biased[:, 2] = 1.7 * biased[:, 2] + 12.0
    assert zscore(biased)[:, 2] == pytest.approx(zscore(ratings)[:, 2], abs=1e-10)


def test_rescale_endpoints():
    z = np.array([[-1.0, 0.0], [1.0, 0.5]])
    out = rescale_to_range(z)
    assert out.min() == 0.0
    assert out.max() == 100.0
    assert out[0, 1] == pytest.approx(50.0)


def test_rescale_degenerate():
    with pytest.raises(DegenerateRange):
        rescale_to_range(np.full((3, 3), 7.0))


def test_rescale_order_preserving():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(30, 5))
    out = rescale_to_range(z)
    assert np.array_equal(np.argsort(z, axis=0), np.argsort(out, axis=0))


def test_screen_no_rejection_for_identical_panel():
    ratings = np.tile(np.linspace(10, 90, 40)[:, None], (1, 6))
    assert screen_outliers(ratings) == set()


def test_screen_one_sided_deviation_not_rejected():
    rng = np.random.default_rng(4)
    n_stim, n_subj = 100, 20
    ratings = 50.0 + rng.normal(0, 1.0, size=(n_stim, n_subj))
    ratings[:, 0] += np.where(np.arange(n_stim) < 20, 50.0, 0.0)  # always above
    rejected = screen_outliers(ratings)
    assert 0 not in rejected


def test_screen_alternating_outlier_rejected():
    rng = np.random.default_rng(5)
    n_stim, n_subj = 100, 30
    ratings = 50.0 + rng.normal(0, 1.0, size=(n_stim, n_subj))
    # alternate far above/below consensus on 20% of stimuli
    for k, m in enumerate(range(0, 20)):
        ratings[m, 0] = 50.0 + (50.0 if k % 2 == 0 else -50.0)
    rejected = screen_outliers(ratings)
    assert 0 in rejected


def test_screen_hand_computed_panel_with_gaps():
    # 41 stimuli x 10 subjects; every other row is unanimous (m2 == 0, beta2 = 0)
    ratings = np.repeat(10.0 + 2.0 * np.arange(41)[:, None], 10, axis=1)
    # ratings - 50 = [2, 1, 1, 1, 0 x 6]: mu 0.5, sd sqrt(0.5), beta2 = 2.78,
    # so k = 2 and hi = 1.914 < 2; subject 0 is above (P), row 1 mirrors it (Q)
    ratings[0] = [52, 51, 51, 51, 50, 50, 50, 50, 50, 50]
    ratings[1] = [48, 49, 49, 49, 50, 50, 50, 50, 50, 50]
    # subject 1 is above twice, never below: one-sided, so kept
    ratings[2] = [50, 52, 51, 51, 51, 50, 50, 50, 50, 50]
    ratings[3] = [50, 52, 51, 51, 51, 50, 50, 50, 50, 50]
    ratings[20:, 1] = np.nan
    ratings[39, 0] = np.nan
    # a single rating is not screened, so subject 0 has rated 39 stimuli:
    # 2/39 > 5% and |P - Q| = 0, rejected
    ratings[40, 1:] = np.nan
    assert screen_outliers(ratings) == {0}
    # with a second rating, stimulus 40 counts and 2/40 is not above 5%
    ratings[40, 1] = ratings[40, 0]
    assert screen_outliers(ratings) == set()
    assert screen_outliers(ratings[:, :2]) == set()


def screen_outliers_loop(ratings):
    """Stimulus-by-stimulus BT.500 screening, the reference for the array form."""
    n_stim, n_subj = ratings.shape
    p, q, rated = np.zeros(n_subj), np.zeros(n_subj), np.zeros(n_subj)
    for row in ratings:
        vals = row[~np.isnan(row)]
        if n_subj < 3 or len(vals) < 2:
            continue
        mu, sd = vals.mean(), vals.std(ddof=1)
        m2 = np.mean((vals - mu) ** 2)
        beta2 = np.mean((vals - mu) ** 4) / (m2 * m2) if m2 > 0 else 0.0
        k = 2.0 if 2.0 <= beta2 <= 4.0 else np.sqrt(20.0)
        for i in np.nonzero(~np.isnan(row))[0]:
            rated[i] += 1
            p[i] += row[i] > mu + k * sd
            q[i] += row[i] < mu - k * sd
    return {i for i in range(n_subj) if p[i] + q[i] and rated[i]
            and (p[i] + q[i]) / rated[i] > 0.05 and abs(p[i] - q[i]) / (p[i] + q[i]) < 0.3}


def test_screen_matches_stimulus_loop():
    rng = np.random.default_rng(11)
    for _ in range(100):
        ns, nj = rng.integers(2, 40), rng.integers(2, 25)
        ratings = rng.normal(50, 10, size=(ns, nj))
        far = rng.random((ns, nj)) < 0.15
        ratings[far] += rng.choice([-60.0, 60.0], size=far.sum())
        ratings[rng.random((ns, nj)) < 0.2] = np.nan
        if rng.random() < 0.3:
            ratings = np.round(ratings / 20) * 20  # ties and m2 == 0 rows
        assert screen_outliers(ratings) == screen_outliers_loop(ratings)


def test_compute_mos_identical_subjects():
    base = np.linspace(5, 95, 10)
    m = SubjectiveMatrix(np.stack([base, base], axis=1))
    table = compute_mos(m)
    assert table.std == pytest.approx(np.zeros(10), abs=1e-12)
    assert table.mos == pytest.approx(rescale_to_range(zscore(m.ratings))[:, 0])
    assert table.mos.min() == 0.0 and table.mos.max() == 100.0


def test_compute_mos_cancels_affine_bias():
    rng = np.random.default_rng(6)
    n_stim, n_subj = 400, 30
    truth = rng.uniform(0, 100, n_stim)
    gains = rng.uniform(0.5, 1.5, n_subj)
    offsets = rng.uniform(-20, 20, n_subj)
    ratings = truth[:, None] * gains[None, :] + offsets[None, :] \
        + rng.normal(0, 1.0, (n_stim, n_subj))
    table = compute_mos(SubjectiveMatrix(ratings))
    assert plcc(table.mos, truth) > 0.999
    assert table.mos.min() >= 0.0 and table.mos.max() <= 100.0


def test_compute_mos_permutation_equivariance():
    rng = np.random.default_rng(7)
    ratings = rng.uniform(0, 100, size=(20, 8))
    base = compute_mos(SubjectiveMatrix(ratings)).mos
    perm_subj = rng.permutation(8)
    assert compute_mos(SubjectiveMatrix(ratings[:, perm_subj])).mos == pytest.approx(
        base, abs=1e-10)
    perm_stim = rng.permutation(20)
    assert compute_mos(SubjectiveMatrix(ratings[perm_stim])).mos == pytest.approx(
        base[perm_stim], abs=1e-10)


def test_missing_values_handled():
    rng = np.random.default_rng(8)
    ratings = rng.uniform(0, 100, size=(10, 4))
    ratings[3, 1] = np.nan
    table = compute_mos(SubjectiveMatrix(ratings))
    assert table.n_valid[3] == 3
    assert np.isfinite(table.mos).all()


def test_matrix_csv_roundtrip(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("stimulus,obsA,obsB\ns1,10,20\ns2,30,\ns3,50,60\n")
    m = SubjectiveMatrix.read_csv(path)
    assert m.subject_ids == ("obsA", "obsB")
    assert np.isnan(m.ratings[1, 1])
    assert m.ratings[2, 0] == 50.0


def test_matrix_csv_short_row_is_missing_ratings(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("stimulus,obsA,obsB,obsC\ns1,10,20,30\ns2,30\ns3,50,60,70\ns4,1,2,3\n")
    m = SubjectiveMatrix.read_csv(path)
    assert m.stimulus_ids == ("s1", "s2", "s3", "s4")
    assert np.isnan(m.ratings[1, 1:]).all() and m.ratings[1, 0] == 30.0


@pytest.mark.parametrize("data, says", [
    (b"stimulus,obsA,obsB\ns1,10,20\ns2,x,40\ns3,50,60\n",
     "line 3: column 'obsA': 'x' is not blank or a finite float"),
    (b"stimulus,obsA,obsB\ns1,10,20\ns2,30,inf\ns3,50,60\n",
     "line 3: column 'obsB': 'inf' is not blank or a finite float"),
    (b"stimulus,obsA,obsB\ns1,10,20\ns2,30,4\xff\ns3,50,60\n",
     "line 3: column 'obsB': byte 0xff is not UTF-8"),
    (b"stimulus,obsA,obsA\ns1,10,20\ns2,30,40\n", "line 1: column 'obsA' repeats"),
    (b"stimulus,obsA\ns1,10\ns2,30\n", "need at least 2 stimuli and 2 subjects"),
    (b"", "need at least 2 stimuli and 2 subjects"),
], ids=["word", "inf", "not-utf8", "repeated-subject", "one-subject", "empty"])
def test_matrix_csv_bad_input_is_invalid_input(tmp_path, data, says):
    path = tmp_path / "ratings.csv"
    path.write_bytes(data)
    with pytest.raises(InvalidInput) as ei:
        SubjectiveMatrix.read_csv(path)
    assert str(ei.value) == f"{path}: {says}"
