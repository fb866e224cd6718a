"""Staged least-squares re-derivation of the nine model coefficients.

Stage A fits MOS against TQS within each (content, pqs) group, yielding an
observed slope (alpha) and intercept (beta) per group.  Stage B fits the
texture-complexity chain: TC on TBPP per (pqs, qp) cell, then the cell
slopes quadratically on QP and the intercepts linearly on QP.  Stage C
fits the stage-A alphas on ground-truth TC.  Stage D averages the stage-A
betas per pqs level and fits them on 1/pqs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDesign
from .model import ModelParams, tqs_from_qp

__all__ = [
    "TRAINING_VARIANT",
    "TrainingRecord",
    "FitDiagnostics",
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
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(TrainingRecord(
                content=row["content"], pqs=float(row["pqs"]), qp=int(row["qp"]),
                tbpp=float(row["tbpp"]), tc=float(row["tc"]), mos=float(row["mos"]),
            ))
    return out


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
    if sxx == 0.0:
        raise DegenerateDesign("all x values identical")
    slope = float(np.dot(xs - xm, ys - ym)) / sxx
    return slope, ym - slope * xm


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


def _fit_groups(stage, records, group_of, x_of, y_of, diagnostics):
    """fit_line per group of `records`; returns {group: (slope, intercept)}.

    Records are sorted once by a canonical key, so every group's rows come
    in the same order whatever the input order and the fits are
    permutation-invariant.  Groups are fitted in sorted key order;
    degenerate ones are skipped and reported in `diagnostics`, which also
    gets the stage's RSS and sample count over the fitted groups.
    """
    groups: dict = {}
    for r in sorted(records, key=lambda r: (r.content, r.pqs, r.qp, r.tbpp, r.mos)):
        groups.setdefault(group_of(r), []).append(r)
    out = {}
    rss = 0.0
    n = 0
    for key in sorted(groups):
        xs = [x_of(r) for r in groups[key]]
        ys = [y_of(r) for r in groups[key]]
        try:
            slope, intercept = fit_line(xs, ys)
        except DegenerateDesign as exc:
            diagnostics.skipped_groups.append((stage, key, str(exc)))
            continue
        out[key] = (slope, intercept)
        rss += _rss_line(xs, ys, slope, intercept)
        n += len(xs)
    diagnostics.stage_rss[stage] = rss
    diagnostics.stage_samples[stage] = n
    return out


# ---------------------------------------------------------------------------
# Stages


def stage_a_mos_vs_tqs(records, diagnostics: FitDiagnostics | None = None):
    """Per (content, pqs) group, fit mos = alpha*tqs + beta.

    Returns {(content, pqs): (alpha_obs, beta_obs)}; degenerate groups are
    skipped and reported in diagnostics.
    """
    out = _fit_groups("A", records, lambda r: (r.content, r.pqs),
                      lambda r: tqs_from_qp(r.qp), lambda r: r.mos,
                      diagnostics or FitDiagnostics())
    if not out:
        raise DegenerateDesign("no (content, pqs) group could be fitted")
    return out


def stage_b_tc_model(records, diagnostics: FitDiagnostics | None = None):
    """Fit the tc ~ H(qp)*tbpp + J(qp) chain; returns (a1, a2, a3, b1, b2)."""
    diagnostics = diagnostics or FitDiagnostics()
    # (H_obs, J_obs) per (pqs, qp) cell, pooled across pqs below
    cells = _fit_groups("B", records, lambda r: (r.pqs, r.qp),
                        lambda r: r.tbpp, lambda r: r.tc, diagnostics)
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
    xs, ys = [], []
    for (content, _pqs), (alpha_obs, _beta) in sorted(alpha_by_group.items()):
        if content in tc_by_content:
            xs.append(tc_by_content[content])
            ys.append(alpha_obs)
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
    records = list(records)
    if len({r.pqs for r in records}) < 2 or len({r.qp for r in records}) < 2:
        raise DegenerateDesign("training data must span two pqs and two qp levels")
    diag = FitDiagnostics()
    alpha_by_group = stage_a_mos_vs_tqs(records, diag)
    a1, a2, a3, b1, b2 = stage_b_tc_model(records, diag)
    tc_by_content = {}
    for r in records:
        tc_by_content.setdefault(r.content, r.tc)
    c, d = stage_c_alpha_tc(alpha_by_group, tc_by_content, diag)
    f1, f2 = stage_d_beta_pqs(alpha_by_group, diag)
    params = ModelParams(a1=a1, a2=a2, a3=a3, b1=b1, b2=b2,
                         c=c, d=d, f1=f1, f2=f2, variant=variant)
    return params, diag
