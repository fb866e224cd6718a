"""Statistical evaluation harness.

Correlation metrics, the four-parameter logistic mapping used before
PLCC/RMSE, content-level leave-one-out cross-validation, seeded random
train/validation splits and an F-test for pairwise model significance.
Convention: SRCC on raw scores, PLCC and RMSE after logistic mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.special import betaincinv

from .errors import DegenerateDesign, StreamPcqError, ZeroVariance
from .calibration import TRAINING_VARIANT, train_full
from .model import predict as model_predict

__all__ = [
    "ScorePairSet",
    "EvalReport",
    "LogisticFit",
    "SignificanceVerdict",
    "plcc",
    "srcc",
    "rmse",
    "average_ranks",
    "fit_logistic",
    "evaluate",
    "loocv",
    "random_split_eval",
    "f_test",
    "f_quantile",
]


@dataclass(frozen=True)
class ScorePairSet:
    objective: np.ndarray
    mos: np.ndarray
    labels: tuple = ()
    contents: tuple = ()

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        mos = np.asarray(self.mos, dtype=float)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "mos", mos)
        if len(obj) != len(mos) or len(obj) < 4:
            raise ValueError("need equal-length score vectors of length >= 4")
        if not (np.all(np.isfinite(obj)) and np.all(np.isfinite(mos))):
            raise ValueError("scores must be finite")


@dataclass(frozen=True)
class EvalReport:
    plcc: float
    srcc: float
    rmse: float
    logistic_params: tuple           # (beta1, beta2, beta3, beta4)
    mapped: np.ndarray
    converged: bool = True


@dataclass(frozen=True)
class LogisticFit:
    params: tuple
    mapped: np.ndarray
    rss: float
    converged: bool


@dataclass(frozen=True)
class SignificanceVerdict:
    f_statistic: float
    decision: str          # 'row-better' | 'column-better' | 'equivalent'
    confidence: float = 0.95


# ---------------------------------------------------------------------------
# Basic metrics


def plcc(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc, yc = x - x.mean(), y - y.mean()
    den = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if den == 0.0:
        raise ZeroVariance("constant input to correlation")
    return float(xc @ yc) / den


def average_ranks(x) -> np.ndarray:
    """Ranks 1..n with ties replaced by the mean of the tied ranks."""
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


def srcc(x, y) -> float:
    return plcc(average_ranks(x), average_ranks(y))


def rmse(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    return math.sqrt(float(d @ d) / len(d))


# ---------------------------------------------------------------------------
# Logistic mapping


# Levenberg-Marquardt stopping rule: iteration cap and relative RSS gain
_MAX_ITER = 2000
_TOL = 1e-10


def _logistic(params, s):
    b1, b2, b3, b4 = params
    u = (s - b3) / abs(b4)
    # tanh form: b2 + (b1-b2)*sigmoid(u), computed without the large
    # (b1-b2)*sigmoid cancellation so near-linear fits stay accurate
    t = np.tanh(0.5 * u)
    sig = 0.5 * (1.0 + t)
    pred = 0.5 * (b1 + b2) + 0.5 * (b1 - b2) * t
    return pred, sig, u


def _lm_minimize(params, s, y, rss_floor):
    """Damped Gauss-Newton on the 4-parameter logistic RSS."""
    params = np.array(params, dtype=float)
    pred, _, _ = _logistic(params, s)
    r = pred - y
    rss = float(r @ r)
    lam = 1e-3
    converged = False
    for _ in range(_MAX_ITER):
        if rss <= rss_floor:
            converged = True
            break
        b1, b2, b3, b4 = params
        pred, sig, u = _logistic(params, s)
        r = pred - y
        dsig = sig * (1.0 - sig)
        jac = np.stack([
            sig,
            1.0 - sig,
            -(b1 - b2) * dsig / abs(b4),
            -(b1 - b2) * dsig * u / abs(b4) * math.copysign(1.0, b4),
        ], axis=1)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        improved = False
        diag = np.diagonal(jtj).copy()
        diag[diag == 0.0] = 1e-300
        for _try in range(60):
            damped = jtj + lam * np.diag(diag)
            try:
                step = np.linalg.solve(damped, -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = params + step
            if cand[3] == 0.0:
                lam *= 10.0
                continue
            cand_pred, _, _ = _logistic(cand, s)
            cand_r = cand_pred - y
            cand_rss = float(cand_r @ cand_r)
            if np.isfinite(cand_rss) and cand_rss <= rss:
                rel = (rss - cand_rss) / rss if rss > 0 else 0.0
                params, rss = cand, cand_rss
                lam = max(lam / 3.0, 1e-12)
                improved = True
                if rel < _TOL:
                    converged = True
                break
            lam *= 3.0
        if not improved:
            converged = True  # stalled at a (local) minimum
        if converged:
            break
    return params, rss, converged


def fit_logistic(objective, mos) -> LogisticFit:
    """Fit the monotone 4-parameter logistic mapping objective -> mos.

    Runs from the standard initialization and, additionally, from a
    near-linear initialization (large slope parameter) so exactly-linear
    data converges to the nested linear solution.
    """
    s = np.asarray(objective, dtype=float)
    y = np.asarray(mos, dtype=float)
    if len(s) != len(y) or len(s) < 5:
        raise DegenerateDesign("need at least five score pairs")
    if np.all(s == s[0]):
        raise ZeroVariance("objective scores are constant")

    spread = float(s.std())
    init_standard = (float(y.max()), float(y.min()), float(s.mean()),
                     spread / 4.0 if spread > 0 else 1.0)

    # near-linear start: logistic is locally linear around its center
    span = float(s.max() - s.min()) or 1.0
    slope = float(np.polyfit(s, y, 1)[0])
    b4_lin = 1e6 * span
    b3_lin = float(s.mean())
    mid = float(y.mean())
    delta = 4.0 * slope * b4_lin
    init_linear = (mid + delta / 2.0, mid - delta / 2.0, b3_lin, b4_lin)

    # absolute floor: RSS this far below the data scale is a perfect fit
    rss_floor = 1e-20 * len(y) * (float(np.var(y)) + 1.0)
    best = None
    for init in (init_linear, init_standard):
        params, rss, conv = _lm_minimize(init, s, y, rss_floor)
        if best is None or rss < best[1]:
            best = (params, rss, conv)
        if best[1] <= rss_floor:  # already a perfect fit
            break
    params, rss, conv = best
    mapped, _, _ = _logistic(params, s)
    return LogisticFit(params=tuple(float(p) for p in params),
                       mapped=mapped, rss=rss, converged=conv)


def evaluate(pairs: ScorePairSet) -> EvalReport:
    """SRCC on raw scores; PLCC/RMSE after the fitted logistic mapping."""
    rank_corr = srcc(pairs.objective, pairs.mos)
    fit = fit_logistic(pairs.objective, pairs.mos)
    return EvalReport(
        plcc=plcc(fit.mapped, pairs.mos),
        srcc=rank_corr,
        rmse=rmse(fit.mapped, pairs.mos),
        logistic_params=fit.params,
        mapped=fit.mapped,
        converged=fit.converged,
    )


# ---------------------------------------------------------------------------
# Cross-validation and random splits


def _held_out(records, train_contents, variant):
    """Train on `train_contents`, score every other record in one call, evaluate."""
    train = [r for r in records if r.content in train_contents]
    test = [r for r in records if r.content not in train_contents]
    params, _diag = train_full(train, variant=variant)
    col = {k: np.array([getattr(r, k) for r in test]) for k in ("pqs", "qp", "tbpp", "mos")}
    preds = model_predict(params, SimpleNamespace(**col)).pmos
    return evaluate(ScorePairSet(preds, col["mos"]))


def _mean_std(rows):
    """Mean and sample std (None below two rows) of each (plcc, srcc, rmse) column."""
    if not rows:
        return None, None
    cols = dict(zip(("plcc", "srcc", "rmse"), np.array(rows).T))
    mean = {k: np.mean(v) for k, v in cols.items()}
    std = {k: np.std(v, ddof=1) for k, v in cols.items()} if len(rows) > 1 else None
    return mean, std


def loocv(records, variant: str = TRAINING_VARIANT):
    """Content-level leave-one-out; returns (per-fold dict, summary dict).

    A fold whose training or test set is too small for a fit is reported in
    the summary's `failed_folds` and the run goes on.
    """
    records = list(records)
    contents = sorted({r.content for r in records})
    if len(contents) < 2:
        raise DegenerateDesign("leave-one-out needs at least two contents")
    folds = {}
    failures = {}
    for held in contents:
        try:
            folds[held] = _held_out(records, set(contents) - {held}, variant)
        except (StreamPcqError, ValueError) as exc:
            failures[held] = str(exc)
    if not folds:
        raise DegenerateDesign("every fold failed: " + "; ".join(failures.values()))
    mean, std = _mean_std([(f.plcc, f.srcc, f.rmse) for f in folds.values()])
    return folds, {"mean": mean, "std": std, "failed_folds": failures}


def random_split_eval(records, n_splits: int = 1000, n_train: int = 10,
                      seed: int | None = None, variant: str = TRAINING_VARIANT):
    """Content-level random train/validation splits, fully seeded.

    Returns (list of (plcc, srcc, rmse) per split, summary dict).  The
    same seed always reproduces the same output bit for bit.
    """
    if seed is None:
        raise ValueError("seed is mandatory for reproducibility")
    records = list(records)
    contents = sorted({r.content for r in records})
    if len(contents) < 2:
        raise DegenerateDesign("need at least two contents to split")
    n_train = min(n_train, len(contents) - 1)
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(n_splits):
        chosen = rng.choice(len(contents), size=n_train, replace=False).tolist()
        rep = _held_out(records, {contents[i] for i in chosen}, variant)
        results.append((rep.plcc, rep.srcc, rep.rmse))
    mean, std = _mean_std(results)
    return results, {"n_splits": len(results), "seed": seed, "mean": mean, "std": std}


# ---------------------------------------------------------------------------
# Significance


def f_quantile(p: float, d1: int, d2: int) -> float:
    """F-distribution quantile via the regularized incomplete beta inverse."""
    z = float(betaincinv(d1 / 2.0, d2 / 2.0, p))
    return d2 * z / (d1 * (1.0 - z))


def f_test(residuals_a, residuals_b, level: float = 0.95) -> SignificanceVerdict:
    """Two-tailed variance-ratio test; `a` is the row model."""
    a = np.asarray(residuals_a, dtype=float)
    b = np.asarray(residuals_b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise DegenerateDesign("need at least two residuals per model")
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    if va == 0.0 and vb == 0.0:
        return SignificanceVerdict(f_statistic=1.0, decision="equivalent", confidence=level)
    if vb == 0.0 or va == 0.0:
        raise ZeroVariance("one residual vector has zero variance")
    f = va / vb
    alpha = 1.0 - level
    lower = f_quantile(alpha / 2.0, len(a) - 1, len(b) - 1)
    upper = f_quantile(1.0 - alpha / 2.0, len(a) - 1, len(b) - 1)
    if f > upper:
        decision = "column-better"   # row variance significantly larger
    elif f < lower:
        decision = "row-better"
    else:
        decision = "equivalent"
    return SignificanceVerdict(f_statistic=f, decision=decision, confidence=level)
