"""Staged least-squares re-derivation of the nine model coefficients.

Stage A fits MOS against TQS within each (content, pqs) group, yielding an
observed slope (alpha) and intercept (beta) per group.  Stage B fits the
texture-complexity chain: TC on TBPP per (pqs, qp) cell, then the cell
slopes quadratically on QP and the intercepts linearly on QP.  Stage C
fits the stage-A alphas on ground-truth TC.  Stage D averages the stage-A
betas per pqs level and fits them on 1/pqs.
"""

from __future__ import annotations

import math

from ._lazy import np
from ._record import Record, set_field

from .errors import DegenerateDesign
from .model import ModelParams, tqs_from_qp
from .table import finite_float, read_table

__all__ = [
    "TRAINING_VARIANT",
    "TrainingRecord",
    "FitDiagnostics",
    "record_columns",
    "fit_line",
    "fit_quadratic",
    "stage_a_mos_vs_tqs",
    "stage_b_tc_model",
    "stage_c_alpha_tc",
    "stage_d_beta_pqs",
    "train_full",
    "read_training_csv",
]

# Default model variant of everything that trains: stage A fits
# mos = alpha*tqs + beta, which is the alpha-times-tqs prediction.
TRAINING_VARIANT = "alpha-times-tqs"

_FIELDS = ("content", "pqs", "qp", "tbpp", "tc", "mos")


class TrainingRecord(Record):
    __slots__ = _FIELDS

    def __init__(self, content: str, pqs: float, qp: int, tbpp: float, tc: float, mos: float):
        set_field(self, "content", content)
        set_field(self, "pqs", pqs)
        set_field(self, "qp", qp)
        set_field(self, "tbpp", tbpp)
        set_field(self, "tc", tc)
        set_field(self, "mos", mos)


class FitDiagnostics(Record):
    """What the stages of `train_full` report as they run, so it is mutable:
    per stage name its RSS, sample count and coefficients, and a (stage,
    group key, reason) for each group skipped."""

    __slots__ = ("stage_rss", "stage_samples", "skipped_groups", "coefficients")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, stage_rss: dict | None = None, stage_samples: dict | None = None,
                 skipped_groups: list | None = None, coefficients: dict | None = None):
        self.stage_rss = {} if stage_rss is None else stage_rss
        self.stage_samples = {} if stage_samples is None else stage_samples
        self.skipped_groups = [] if skipped_groups is None else skipped_groups
        self.coefficients = {} if coefficients is None else coefficients


class _Columns(Record):
    """Read-only plain arrays of equal length, one per name in `__slots__`;
    `cols[mask]` holds the rows a boolean mask selects."""

    __slots__ = ()

    def __init__(self, *cols):
        for name, col in zip(self._fields, cols, strict=True):
            set_field(self, name, col)

    def __len__(self):
        return len(getattr(self, self._fields[0]))

    def __getitem__(self, mask):
        return type(self)(*(getattr(self, name)[mask] for name in self._fields))


class TrainingColumns(_Columns):
    """Training records as columns: one ndarray per field, one row per record,
    sorted by (content, pqs, qp, tbpp, mos); get one from `record_columns`, or
    as a boolean-mask subset of one."""

    __slots__ = _FIELDS


class StageAFits(_Columns):
    """Stage A's fitted (content, pqs) groups: one ndarray per field."""

    __slots__ = ("content", "pqs", "alpha", "beta")


def read_training_csv(path) -> list:
    """The training records of a CSV file with the columns content, pqs, qp,
    tbpp, tc and mos, in file order; see table.read_table for bad input."""
    kinds = dict(zip(_FIELDS, (str, finite_float, int, finite_float, finite_float, finite_float)))
    return [TrainingRecord(*row.values) for row in read_table(path, kinds)]


# ---------------------------------------------------------------------------
# Elementary fits


def fit_line(xs, ys):
    """Ordinary least squares line; returns (slope, intercept)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or len(xs) < 2:
        raise DegenerateDesign("need at least two points")
    xm, ym = xs.mean(), ys.mean()
    sxx = float(np.dot(xs - xm, xs - xm))
    if sxx == 0.0 or np.all(xs == xs[0]):  # rounding can leave sxx > 0 on equal x
        raise DegenerateDesign("all x values identical")
    slope = float(np.dot(xs - xm, ys - ym)) / sxx
    return slope, float(ym - slope * xm)


def fit_quadratic(xs, ys):
    """Least-squares quadratic a*x^2 + b*x + c; returns (a, b, c)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or len(np.unique(xs)) < 3:
        raise DegenerateDesign("need at least three distinct x values")
    design = np.stack([xs * xs, xs, np.ones_like(xs)], axis=1)
    # normal equations; 3x3 solve (LAPACK partial-pivot LU)
    ata = design.T @ design
    atb = design.T @ ys
    try:
        coef = np.linalg.solve(ata, atb)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDesign(str(exc)) from exc
    return float(coef[0]), float(coef[1]), float(coef[2])


def record_columns(records):
    """The fields of any iterable of records as one TrainingColumns, sorted by
    (content, pqs, qp, tbpp, mos) so that no sum over a group's rows depends
    on record order.  A TrainingColumns is taken to be one this returned, or a
    boolean-mask subset of one, and is returned as is."""
    if isinstance(records, TrainingColumns):
        return records
    records = list(records)
    cols = [np.array([getattr(r, k) for r in records]) for k in _FIELDS]
    content, pqs, qp, tbpp, _tc, mos = cols
    order = np.lexsort((mos, tbpp, qp, pqs, content))
    return TrainingColumns(*(c[order] for c in cols))


def _fit_groups(stage, keys, x, y, diagnostics):
    """fit_line within each group of equal `keys` (a list of columns), all at
    once from per-group sums; returns the first row index, slope and intercept
    of each fitted group, as arrays in key order.  Groups fit_line would refuse
    go to `diagnostics` with its reason; so do the stage's RSS and sample count
    over the fitted groups."""
    code = 0  # one int64 per row, ordered as its keys are
    for k in keys:
        levels, inverse = np.unique(k, return_inverse=True)
        code = code * len(levels) + inverse
    # every group id in 0..len(first)-1 occurs in g, so each bincount has one sum per group
    _, first, g = np.unique(code, return_index=True, return_inverse=True)
    n = np.bincount(g)
    xm, ym = np.bincount(g, x) / n, np.bincount(g, y) / n
    dx = x - xm[g]
    sxx, sxy = np.bincount(g, dx * dx), np.bincount(g, dx * (y - ym[g]))
    varies = np.bincount(g, x != x[first][g]) > 0
    fitted = (n >= 2) & varies & (sxx != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # the skipped groups' NaN
        slope = sxy / sxx
        intercept = ym - slope * xm
        r = y - (slope[g] * x + intercept[g])
    diagnostics.stage_rss[stage] = float(np.bincount(g, r * r)[fitted].sum())
    diagnostics.stage_samples[stage] = int(n[fitted].sum())
    reasons = np.where(n < 2, "need at least two points", "all x values identical")[~fitted]
    skipped = zip(*(k[first[~fitted]].tolist() for k in keys))
    diagnostics.skipped_groups += zip([stage] * len(reasons), skipped, reasons.tolist())
    return first[fitted], slope[fitted], intercept[fitted]


def _fit_pooled(stage, xs, ys, diagnostics):
    """fit_line over all of xs -> ys; its RSS, sample count and coefficients go
    to `diagnostics`."""
    slope, intercept = fit_line(xs, ys)
    r = ys - (slope * xs + intercept)
    diagnostics.stage_rss[stage] = float(r @ r)
    diagnostics.stage_samples[stage] = len(xs)
    diagnostics.coefficients[stage] = (slope, intercept)
    return slope, intercept


# ---------------------------------------------------------------------------
# Stages


def stage_a_mos_vs_tqs(records, diagnostics: FitDiagnostics | None = None):
    """Per (content, pqs) group, fit mos = alpha*tqs + beta.

    Returns one StageAFits of the fitted groups in (content, pqs) order, with
    the arrays `.content`, `.pqs`, `.alpha` and `.beta`; degenerate groups are
    skipped and reported in diagnostics.
    """
    cols = record_columns(records)
    first, alpha, beta = _fit_groups("A", [cols.content, cols.pqs], tqs_from_qp(cols.qp),
                                     cols.mos, diagnostics or FitDiagnostics())
    if not len(first):
        raise DegenerateDesign("no (content, pqs) group could be fitted")
    return StageAFits(cols.content[first], cols.pqs[first], alpha, beta)


def stage_b_tc_model(records, diagnostics: FitDiagnostics | None = None):
    """Fit the tc ~ H(qp)*tbpp + J(qp) chain; returns (a1, a2, a3, b1, b2)."""
    diagnostics = diagnostics or FitDiagnostics()
    # (H_obs, J_obs) per (pqs, qp) cell, pooled across pqs below
    cols = record_columns(records)
    first, h, j = _fit_groups("B", [cols.pqs, cols.qp], cols.tbpp, cols.tc, diagnostics)
    qps = cols.qp[first]
    if len(np.unique(qps)) < 3:
        raise DegenerateDesign("need cells at three or more distinct qp values")
    a1, a2, a3 = fit_quadratic(qps, h)
    b1, b2 = fit_line(qps, j)
    diagnostics.coefficients["B"] = (a1, a2, a3, b1, b2)
    return a1, a2, a3, b1, b2


def stage_c_alpha_tc(tc, alpha, diagnostics: FitDiagnostics | None = None):
    """Fit alpha_obs = c*tc + d, pooled over every pqs level; `tc` and `alpha`
    are arrays of one value per stage-A group."""
    return _fit_pooled("C", tc, alpha, diagnostics or FitDiagnostics())


def stage_d_beta_pqs(pqs, beta, diagnostics: FitDiagnostics | None = None):
    """Average the stage-A intercepts `beta` per `pqs` level, then fit on 1/pqs;
    `pqs` and `beta` are arrays of one value per stage-A group."""
    levels = np.unique(pqs)
    if len(levels) < 2:
        raise DegenerateDesign("need two or more distinct pqs levels")
    # exact means: a bincount mean would move the coefficients in the last bit
    means = [math.fsum(b) / len(b) for b in (beta[pqs == p] for p in levels)]
    return _fit_pooled("D", 1.0 / levels, np.array(means), diagnostics or FitDiagnostics())


def train_full(records, variant: str = TRAINING_VARIANT, *, _groups=None):
    """Run stages A through D; returns (ModelParams, FitDiagnostics).

    Held-out folds pass `_groups`, stage A's fits of `records` taken from one
    stage A over all folds (a group's fit depends on its own rows alone); stage
    A then does not run, and the diagnostics hold no stage A entries.  With no
    group in `_groups`, stage A runs and fails as it would alone.
    """
    cols = record_columns(records)
    if len(np.unique(cols.pqs)) < 2 or len(np.unique(cols.qp)) < 2:
        raise DegenerateDesign("training data must span two pqs and two qp levels")
    diag = FitDiagnostics()
    groups = stage_a_mos_vs_tqs(cols, diag) if _groups is None or not len(_groups) else _groups
    a1, a2, a3, b1, b2 = stage_b_tc_model(cols, diag)
    # each content's tc is that of its first row: the columns are sorted by content
    c, d = stage_c_alpha_tc(cols.tc[np.searchsorted(cols.content, groups.content)],
                            groups.alpha, diag)
    f1, f2 = stage_d_beta_pqs(groups.pqs, groups.beta, diag)
    params = ModelParams(a1=a1, a2=a2, a3=a3, b1=b1, b2=b2,
                         c=c, d=d, f1=f1, f2=f2, variant=variant)
    return params, diag
