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
from dataclasses import dataclass, field

from ._lazy import np

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


@dataclass(frozen=True)
class TrainingRecord:
    content: str
    pqs: float
    qp: int
    tbpp: float
    tc: float
    mos: float


@dataclass
class FitDiagnostics:
    stage_rss: dict = field(default_factory=dict)       # stage name -> RSS
    stage_samples: dict = field(default_factory=dict)   # stage name -> n
    skipped_groups: list = field(default_factory=list)  # (stage, group key, reason)
    coefficients: dict = field(default_factory=dict)    # stage name -> tuple


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


def _rss_line(xs, ys, slope, intercept):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    r = ys - (slope * xs + intercept)
    return float(r @ r)


def record_columns(records):
    """The fields of any iterable of records as the columns (`.content`, `.pqs`,
    ...) of one record array, sorted by (content, pqs, qp, tbpp, mos) so that no
    sum over a group's rows depends on record order.  A record array is taken to
    be one this returned, or a boolean-mask subset of one, and is returned as is."""
    if isinstance(records, np.recarray):
        return records
    records = list(records)
    cols = np.rec.fromarrays([np.array([getattr(r, k) for r in records]) for k in _FIELDS],
                             names=_FIELDS)
    return cols[np.lexsort((cols.mos, cols.tbpp, cols.qp, cols.pqs, cols.content))]


def _fit_groups(stage, keys, x, y, diagnostics):
    """fit_line within each group of equal `keys` (a list of columns), all at
    once from per-group sums; returns {key tuple: (slope, intercept)} in key
    order.  Groups fit_line would refuse go to `diagnostics` with its reason;
    so do the stage's RSS and sample count over the fitted groups."""
    # every group id in 0..len(uniq)-1 occurs in g, so each bincount has one sum per group
    uniq, first, g = np.unique(np.rec.fromarrays(keys), return_index=True, return_inverse=True)
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
    keys, fits = uniq.tolist(), list(zip(slope.tolist(), intercept.tolist()))
    diagnostics.skipped_groups += [
        (stage, keys[i], "need at least two points" if n[i] < 2 else "all x values identical")
        for i in np.flatnonzero(~fitted)]
    return {keys[i]: fits[i] for i in np.flatnonzero(fitted)}


# ---------------------------------------------------------------------------
# Stages


def stage_a_mos_vs_tqs(records, diagnostics: FitDiagnostics | None = None):
    """Per (content, pqs) group, fit mos = alpha*tqs + beta.

    Returns {(content, pqs): (alpha_obs, beta_obs)}; degenerate groups are
    skipped and reported in diagnostics.
    """
    cols = record_columns(records)
    out = _fit_groups("A", [cols.content, cols.pqs], tqs_from_qp(cols.qp), cols.mos,
                      diagnostics or FitDiagnostics())
    if not out:
        raise DegenerateDesign("no (content, pqs) group could be fitted")
    return out


def stage_b_tc_model(records, diagnostics: FitDiagnostics | None = None):
    """Fit the tc ~ H(qp)*tbpp + J(qp) chain; returns (a1, a2, a3, b1, b2)."""
    diagnostics = diagnostics or FitDiagnostics()
    # (H_obs, J_obs) per (pqs, qp) cell, pooled across pqs below
    cols = record_columns(records)
    cells = _fit_groups("B", [cols.pqs, cols.qp], cols.tbpp, cols.tc, diagnostics)
    qps = [qp for _pqs, qp in cells]
    if len(set(qps)) < 3:
        raise DegenerateDesign("need cells at three or more distinct qp values")
    a1, a2, a3 = fit_quadratic(qps, [h for h, _j in cells.values()])
    b1, b2 = fit_line(qps, [j for _h, j in cells.values()])
    diagnostics.coefficients["B"] = (a1, a2, a3, b1, b2)
    return a1, a2, a3, b1, b2


def stage_c_alpha_tc(alpha_by_group, tc_by_content, diagnostics: FitDiagnostics | None = None):
    """Fit alpha_obs = c*tc + d, pooled over every pqs level."""
    diagnostics = diagnostics or FitDiagnostics()
    groups = [k for k in sorted(alpha_by_group) if k[0] in tc_by_content]
    xs = [tc_by_content[content] for content, _pqs in groups]
    ys = [alpha_by_group[k][0] for k in groups]
    c, d = fit_line(xs, ys)
    diagnostics.stage_rss["C"] = _rss_line(xs, ys, c, d)
    diagnostics.stage_samples["C"] = len(xs)
    diagnostics.coefficients["C"] = (c, d)
    return c, d


def stage_d_beta_pqs(alpha_by_group, diagnostics: FitDiagnostics | None = None):
    """Average stage-A intercepts per pqs level, then fit on 1/pqs."""
    diagnostics = diagnostics or FitDiagnostics()
    by_pqs: dict = {}
    for (_content, pqs), (_alpha, beta_obs) in sorted(alpha_by_group.items()):
        by_pqs.setdefault(pqs, []).append(beta_obs)
    if len(by_pqs) < 2:
        raise DegenerateDesign("need two or more distinct pqs levels")
    levels = sorted(by_pqs)
    xs = [1.0 / p for p in levels]
    ys = [math.fsum(by_pqs[p]) / len(by_pqs[p]) for p in levels]
    f1, f2 = fit_line(xs, ys)
    diagnostics.stage_rss["D"] = _rss_line(xs, ys, f1, f2)
    diagnostics.stage_samples["D"] = len(xs)
    diagnostics.coefficients["D"] = (f1, f2)
    return f1, f2


def train_full(records, variant: str = TRAINING_VARIANT):
    """Run stages A through D; returns (ModelParams, FitDiagnostics)."""
    cols = record_columns(records)
    if len(np.unique(cols.pqs)) < 2 or len(np.unique(cols.qp)) < 2:
        raise DegenerateDesign("training data must span two pqs and two qp levels")
    diag = FitDiagnostics()
    alpha_by_group = stage_a_mos_vs_tqs(cols, diag)
    a1, a2, a3, b1, b2 = stage_b_tc_model(cols, diag)
    contents, first = np.unique(cols.content, return_index=True)
    tc_by_content = dict(zip(contents.tolist(), cols.tc[first].tolist()))
    c, d = stage_c_alpha_tc(alpha_by_group, tc_by_content, diag)
    f1, f2 = stage_d_beta_pqs(alpha_by_group, diag)
    params = ModelParams(a1=a1, a2=a2, a3=a3, b1=b1, b2=b2,
                         c=c, d=d, f1=f1, f2=f2, variant=variant)
    return params, diag
