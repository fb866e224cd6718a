"""Raw subjective ratings to MOS.

Pipeline: BT.500-style observer screening on raw scores, per-subject
Z-scoring, a single global rescale to [0, 100], then per-stimulus
averaging.  Z-scoring cancels per-subject affine rating biases before
scores are pooled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class SubjectiveMatrix:
    """Raw scores, stimuli in rows, subjects in columns; NaN marks missing."""

    ratings: np.ndarray
    stimulus_ids: tuple = ()
    subject_ids: tuple = ()

    def __post_init__(self):
        r = np.asarray(self.ratings, dtype=float)
        object.__setattr__(self, "ratings", r)
        if r.ndim != 2 or r.shape[0] < 2 or r.shape[1] < 2:
            raise ValueError("need at least 2 stimuli and 2 subjects")
        if np.any(np.sum(~np.isnan(r), axis=0) < 2):
            raise ValueError("every subject needs at least two ratings")
        if not self.stimulus_ids:
            object.__setattr__(self, "stimulus_ids",
                               tuple(f"s{i}" for i in range(r.shape[0])))
        if not self.subject_ids:
            object.__setattr__(self, "subject_ids",
                               tuple(f"obs{i}" for i in range(r.shape[1])))

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


@dataclass(frozen=True)
class MosTable:
    mos: np.ndarray
    std: np.ndarray
    n_valid: np.ndarray
    stimulus_ids: tuple
    rejected_subjects: tuple = ()


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
    scaled = rescale_to_range(zscore(kept, [matrix.subject_ids[i] for i in keep]))
    with np.errstate(invalid="ignore"):
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
