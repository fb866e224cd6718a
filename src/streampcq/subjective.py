"""Raw subjective ratings to MOS.

Pipeline: BT.500-style observer screening on raw scores, per-subject
Z-scoring, a single global rescale to [0, 100], then per-stimulus
averaging.  Z-scoring cancels per-subject affine rating biases before
scores are pooled.
"""

from __future__ import annotations

import math

from ._lazy import np
from ._record import Record, set_field

from .errors import DegenerateRange, InvalidInput, ZeroVarianceSubject
from .table import rating, read_table

__all__ = [
    "SubjectiveMatrix",
    "MosTable",
    "zscore",
    "rescale_to_range",
    "screen_outliers",
    "compute_mos",
]


class SubjectiveMatrix(Record):
    """Raw scores, stimuli in rows, subjects in columns; NaN marks missing."""

    __slots__ = ("ratings", "stimulus_ids", "subject_ids")

    def __init__(self, ratings: np.ndarray, stimulus_ids: tuple = (), subject_ids: tuple = ()):
        r = np.asarray(ratings, dtype=float)
        if r.ndim != 2 or r.shape[0] < 2 or r.shape[1] < 2:
            raise ValueError("need at least 2 stimuli and 2 subjects")
        if np.any(np.sum(~np.isnan(r), axis=0) < 2):
            raise ValueError("every subject needs at least two ratings")
        if np.any(np.all(np.isnan(r), axis=1)):
            raise ValueError("every stimulus needs at least one rating")
        set_field(self, "ratings", r)
        set_field(self, "stimulus_ids", stimulus_ids or tuple(f"s{i}" for i in range(r.shape[0])))
        set_field(self, "subject_ids", subject_ids or tuple(f"obs{i}" for i in range(r.shape[1])))

    @classmethod
    def read_csv(cls, path) -> "SubjectiveMatrix":
        """The ratings CSV at `path`: a stimulus id, then one column per
        subject, in which a blank or missing cell is a missing rating."""
        table = read_table(path, lambda header: dict.fromkeys(header, rating)
                           | dict.fromkeys(header[:1], str))
        rows = [row.values for row in table]
        try:
            return cls(np.array([r[1:] for r in rows]), tuple(r[0] for r in rows),
                       tuple(table[0].header[1:]) if table else ())
        except ValueError as exc:
            raise InvalidInput(f"{path}: {exc}") from None


class MosTable(Record):
    __slots__ = ("mos", "std", "n_valid", "stimulus_ids", "rejected_subjects")

    def __init__(self, mos: np.ndarray, std: np.ndarray, n_valid: np.ndarray,
                 stimulus_ids: tuple, rejected_subjects: tuple = ()):
        set_field(self, "mos", mos)
        set_field(self, "std", std)
        set_field(self, "n_valid", n_valid)
        set_field(self, "stimulus_ids", stimulus_ids)
        set_field(self, "rejected_subjects", rejected_subjects)


def zscore(ratings: np.ndarray, subject_ids=None) -> np.ndarray:
    """Per-subject Z over that subject's non-missing ratings (sample std)."""
    ratings = np.asarray(ratings, dtype=float)
    sd = np.nanstd(ratings, axis=0, ddof=1)
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        i = int(zero[0])
        raise ZeroVarianceSubject(subject_ids[i] if subject_ids else i)
    return (ratings - np.nanmean(ratings, axis=0)) / sd


def rescale_to_range(z: np.ndarray, lo: float = 0.0, hi: float = 100.0) -> np.ndarray:
    """One global affine map sending min(z) -> lo and max(z) -> hi."""
    z = np.asarray(z, dtype=float)
    zmin, zmax = np.nanmin(z), np.nanmax(z)
    if zmax == zmin:
        raise DegenerateRange("all scores identical; cannot rescale")
    return lo + (z - zmin) * (hi - lo) / (zmax - zmin)


def screen_outliers(ratings: np.ndarray) -> set:
    """BT.500 Annex 2 observer screening on raw scores.

    Per stimulus: kurtosis decides Gaussian (2sigma) vs non-Gaussian
    (sqrt(20)*sigma) thresholds.  A subject is rejected when more than 5%
    of their ratings fall outside the thresholds AND the excursions are not
    one-sided (|P-Q|/(P+Q) < 0.3).  Returns the rejected column indices.
    """
    ratings = np.asarray(ratings, dtype=float)
    if ratings.shape[1] < 3:
        return set()
    rated = ~np.isnan(ratings)
    n = rated.sum(axis=1)
    rated &= (n >= 2)[:, None]  # a stimulus needs two ratings to be screened
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.nansum(ratings, axis=1) / n
        dev = ratings - mu[:, None]
        ss = np.nansum(dev ** 2, axis=1)
        m2 = ss / n
        sd = np.sqrt(ss / (n - 1))
        beta2 = np.where(m2 > 0, np.nansum(dev ** 4, axis=1) / n / (m2 * m2), 0.0)
        k = np.where((2.0 <= beta2) & (beta2 <= 4.0), 2.0, math.sqrt(20.0))
        p = (rated & (ratings > (mu + k * sd)[:, None])).sum(axis=0)
        q = (rated & (ratings < (mu - k * sd)[:, None])).sum(axis=0)
        total = p + q
        reject = (total / rated.sum(axis=0) > 0.05) & (np.abs(p - q) / total < 0.3)
    return set(np.nonzero(reject)[0].tolist())


def compute_mos(matrix: SubjectiveMatrix) -> MosTable:
    """Screen, Z-score survivors, rescale to [0,100], average per stimulus."""
    rejected_idx = screen_outliers(matrix.ratings)
    keep = [i for i in range(matrix.ratings.shape[1]) if i not in rejected_idx]
    if len(keep) < 2:
        raise DegenerateRange("screening left fewer than two subjects")
    kept = matrix.ratings[:, keep]
    unrated = np.flatnonzero(np.all(np.isnan(kept), axis=1))
    if unrated.size:
        raise DegenerateRange("screening rejected every subject who rated stimulus "
                              f"{matrix.stimulus_ids[unrated[0]]!r}")
    scaled = rescale_to_range(zscore(kept, [matrix.subject_ids[i] for i in keep]))
    mos = np.clip(np.nanmean(scaled, axis=1), 0.0, 100.0)  # guard round-off
    std = np.nanstd(scaled, axis=1, ddof=0)
    n_valid = np.sum(~np.isnan(scaled), axis=1)
    return MosTable(
        mos=mos,
        std=std,
        n_valid=n_valid,
        stimulus_ids=matrix.stimulus_ids,
        rejected_subjects=tuple(matrix.subject_ids[i] for i in sorted(rejected_idx)),
    )
