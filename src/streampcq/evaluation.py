"""Statistical evaluation harness.

Correlation metrics, the four-parameter logistic mapping used before
PLCC/RMSE, content-level leave-one-out cross-validation, seeded random
train/validation splits and an F-test for pairwise model significance.
Convention: SRCC on raw scores, PLCC and RMSE after logistic mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesign, InvalidInput, StreamPcqError, ZeroVariance
from .calibration import TRAINING_VARIANT, record_columns, train_full
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
    _, inverse, counts = np.unique(np.asarray(x, dtype=float),
                                   return_inverse=True, return_counts=True)
    # a tie run at sorted positions i..j has mean rank (i+j)/2 + 1
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def srcc(x, y) -> float:
    return plcc(average_ranks(x), average_ranks(y))


def rmse(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    return math.sqrt(float(d @ d) / len(d))


# ---------------------------------------------------------------------------
# Logistic mapping
#
# b2 + (b1-b2)/(1+exp(-(s-b3)/b4)) is mid + half*tanh(t*(s-b3)/2) with mid,
# half = (b1+b2)/2, (b1-b2)/2 and t = 1/b4.  For fixed (b3, t), mid and half
# are a closed-form least-squares fit (variable projection, Golub & Pereyra
# 1973), so damped Gauss-Newton searches (b3, t) alone, from all starts at
# once.  A start has converged when its RSS is under the perfect-fit floor or
# a full Gauss-Newton step would cut it by at most the fraction _GTOL**2.  A
# step to |b1 - b2| > _MAX_SPREAD * range(mos) is refused: past it b1 and b2
# cancel in the mapping, and its rounding could fit the noise.
#
# Several panels of one length n are searched together: every array is
# (panels, starts, n), and every sum runs along n, so a panel's fit has the
# same bits in a batch as alone.  Held-out folds are fitted in batches of at
# most _BATCH_ELEMENTS elements per such array.
_MAX_TRIALS = 100
_GTOL = 1e-6
_MAX_SPREAD = 1e7
_STARTS = 11  # the starts fit_logistic's docstring lists
_BATCH_ELEMENTS = 2**15


def _dot(u, v):
    return (u * v).sum(axis=-1)


def _project(s, y, b3, t):
    """Per start: (b1, b2, b3, b4) with the closed-form mid and half, the
    mapping computed from those four numbers as fit_logistic reports it, tanh.
    s and y are (panels, n), b3 and t (panels, starts)."""
    b4 = 1.0 / t
    th = np.tanh(0.5 * (s[:, None] - b3[..., None]) / b4[..., None])
    tc = th - th.mean(axis=-1, keepdims=True)
    # one matrix-vector product per panel, as `tc @ y` rounds for a lone panel
    half = np.matmul(tc, y[..., None])[..., 0] / _dot(tc, tc)
    mid = y.mean(axis=-1, keepdims=True) - half * th.mean(axis=-1)
    b1, b2 = mid + half, mid - half
    mapped = (0.5 * (b1 + b2))[..., None] + (0.5 * (b1 - b2))[..., None] * th
    return np.stack([b1, b2, b3, b4], axis=-1), mapped, th


def _search(s, y, b3, t, rss_floor):
    """(params, converged) of each panel's lowest-RSS start, after damped
    Gauss-Newton over (b3, t).

    A panel's search ends when every start has converged or stalled (no
    damping of either step lowers its RSS); when its lowest-RSS start has
    converged and no other start's Gauss-Newton step, shrunk by its damping,
    predicts an RSS more than 1e-6 below it; or after _MAX_TRIALS steps.  A
    panel leaves the arrays after the trial on which it ends, so a slow panel
    steps alone once the others are done.
    """
    best_params, best_converged = np.empty((len(s), 4)), np.empty(len(s), dtype=bool)
    live = np.arange(len(s))
    s_mean, y_range = s.mean(axis=-1, keepdims=True), np.ptp(y, axis=-1, keepdims=True)
    params, mapped, th = _project(s, y, b3, t)
    rss, lams = np.square(y[:, None] - mapped).sum(axis=-1), np.full(t.shape + (2,), 1e-3)
    for trial in range(_MAX_TRIALS + 1):
        # d(residual)/d(b3, t) less its part in span(1, tanh); jt2 is the t
        # column less its part along the b3 column
        r, tc = y[:, None] - mapped, th - th.mean(axis=-1, keepdims=True)
        d = 0.5 * (params[..., :1] - params[..., 1:2]) * (1.0 - th * th)
        jb, jt = (v - v.mean(axis=-1, keepdims=True) - tc * (_dot(tc, v) / _dot(tc, tc))[..., None]
                  for v in (0.5 * t[..., None] * d, -0.5 * (s[:, None] - b3[..., None]) * d))
        a, c, along = _dot(jb, jb), _dot(jt, jt), _dot(jb, jt) / _dot(jb, jb)
        jt2 = jt - along[..., None] * jb
        c2, gb, gt2 = _dot(jt2, jt2), _dot(jb, r), _dot(jt2, r)
        gain = gb * gb / a + gt2 * gt2 / c2  # RSS cut a full Gauss-Newton step predicts
        converged = (rss <= rss_floor) | (gain <= _GTOL**2 * rss)
        going = ~converged & ~(lams > 1e16).all(axis=-1)
        best = np.arange(len(rss)), np.argmin(rss, axis=-1)
        hopeful = going & (rss - gain / (1.0 + lams.min(axis=-1))
                           < rss.min(axis=-1, keepdims=True) * (1.0 - 1e-6))
        done = (~going.any(axis=-1) | (converged[best] & ~hopeful.any(axis=-1))
                | (trial == _MAX_TRIALS))
        best_params[live[done]] = params[best][done]
        best_converged[live[done]] = converged[best][done]
        if done.all():
            return best_params, best_converged
        # Marquardt step (J'J + lam diag J'J) step = -J'r, solved in (jb, jt2).
        # A start whose Marquardt steps keep failing (lam > 1) takes, every
        # other trial and with its own lam, a step in t that holds
        # t*(b3 - mean(s)): it slides along the spread bound the Marquardt
        # step runs into.
        slide = (trial % 2 == 1) & (lams[..., 0] > 1.0)
        lam = np.where(slide, lams[..., 1], lams[..., 0])
        e = c2 + lam * (2.0 + lam) * c
        w = (s_mean - b3) / t
        jw = jt + w[..., None] * jb
        step = -_dot(jw, r) / ((1.0 + lam) * _dot(jw, jw))
        cand_b3 = b3 + np.where(slide, w * step, (along * a * gt2 - gb * (c2 + lam * c)) / (a * e))
        cand_t = np.abs(t + np.where(slide, step, -((1.0 + lam) * gt2 + lam * along * gb) / e))
        cand = _project(s, y, cand_b3, cand_t)
        cand_rss = np.square(y[:, None] - cand[1]).sum(axis=-1)
        ok = (cand_rss < rss) & (np.abs(cand[0][..., 0] - cand[0][..., 1]) <= _MAX_SPREAD * y_range)
        b3, t, rss = np.where(ok, cand_b3, b3), np.where(ok, cand_t, t), np.where(ok, cand_rss, rss)
        params, mapped, th = (np.where(ok[..., None], new, old)
                              for new, old in zip(cand, (params, mapped, th)))
        lam = np.where(ok, lam / 3.0, lam * 10.0)
        lams[..., 0] = np.where(slide, lams[..., 0], lam)
        lams[..., 1] = np.where(slide, lam, lams[..., 1])
        if done.any():
            keep = ~done
            live, s, y, s_mean, y_range, rss_floor, b3, t, rss, lams, params, mapped, th = (
                v[keep] for v in (live, s, y, s_mean, y_range, rss_floor,
                                  b3, t, rss, lams, params, mapped, th))


def _check_panel(s, y):
    if len(s) != len(y) or len(s) < 5:
        raise DegenerateDesign("need at least five score pairs")
    if np.all(s == s[0]):
        raise ZeroVariance("objective scores are constant")


def _fit_panels(s, y) -> list:
    """fit_logistic of each row of the (panels, n) arrays s -> y, searched
    together; every panel must have passed _check_panel."""
    # absolute floor: RSS this far below the data scale is a perfect fit
    rss_floor = 1e-20 * s.shape[1] * (np.var(y, axis=-1, keepdims=True) + 1.0)
    quantiles = np.quantile(s, (0.1, 0.3, 0.5, 0.7, 0.9), axis=-1).T
    sd = s.std(axis=-1, keepdims=True)
    b3 = np.concatenate([s.mean(axis=-1, keepdims=True), quantiles, quantiles], axis=1)
    t = np.concatenate([1e-6 / np.ptp(s, axis=-1, keepdims=True),
                        np.repeat(1.0 / sd, 5, axis=1), np.repeat(4.0 / sd, 5, axis=1)], axis=1)
    with np.errstate(all="ignore"):  # a degenerate candidate is NaN and never accepted
        params, converged = _search(s, y, b3, t, rss_floor)
    b1, b2, b3, b4 = params.T[..., None]
    mapped = 0.5 * (b1 + b2) + 0.5 * (b1 - b2) * np.tanh(0.5 * (s - b3) / b4)
    rss = np.square(mapped - y).sum(axis=-1)
    return [LogisticFit(params=tuple(p), mapped=m, rss=r, converged=c)
            for p, m, r, c in zip(params.tolist(), mapped, rss.tolist(), converged.tolist())]


def fit_logistic(objective, mos) -> LogisticFit:
    """Fit the monotone 4-parameter logistic mapping objective -> mos.

    Starts: the near-linear t = 1e-6/span at b3 = mean, and b3 at the
    10/30/50/70/90 % quantiles of the objective with t*std in {1, 4}.  The
    lowest RSS wins.
    """
    s = np.asarray(objective, dtype=float)
    y = np.asarray(mos, dtype=float)
    _check_panel(s, y)
    return _fit_panels(s[None], y[None])[0]


def _report(pairs, rank_corr, fit) -> EvalReport:
    return EvalReport(
        plcc=plcc(fit.mapped, pairs.mos),
        srcc=rank_corr,
        rmse=rmse(fit.mapped, pairs.mos),
        logistic_params=fit.params,
        mapped=fit.mapped,
        converged=fit.converged,
    )


def evaluate(pairs: ScorePairSet) -> EvalReport:
    """SRCC on raw scores; PLCC/RMSE after the fitted logistic mapping."""
    return _report(pairs, srcc(pairs.objective, pairs.mos),
                   fit_logistic(pairs.objective, pairs.mos))


# ---------------------------------------------------------------------------
# Cross-validation and random splits


def _fold_pairs(cols, folds, variant):
    """Yield (key, ScorePairSet, or the error that failed it) for each (key,
    train mask) fold over the record columns `cols`: the records outside the
    mask, scored in one call by the model trained on those inside."""
    for key, train in folds:
        try:
            params, _diag = train_full(cols[train], variant=variant)
            test = cols[~train]
            pairs = ScorePairSet(model_predict(params, test).pmos, test.mos)
        except (StreamPcqError, ValueError) as exc:
            pairs = exc
        yield key, pairs


def _fit_batch(batch):
    keys, panels, rank_corrs = zip(*batch)
    fits = _fit_panels(np.stack([p.objective for p in panels]), np.stack([p.mos for p in panels]))
    for key, pairs, rank_corr, fit in zip(keys, panels, rank_corrs, fits):
        try:
            yield key, _report(pairs, rank_corr, fit)
        except ZeroVariance as exc:  # a constant mapping
            yield key, exc


def _evaluate_each(panels):
    """Yield (key, EvalReport, or the error that failed it) for each (key,
    ScorePairSet or error) of `panels`, as evaluate gives it.  Panels of one
    length are fitted together, in batches of at most _BATCH_ELEMENTS elements
    per search array, so the order follows the batches."""
    pending = {}
    for key, pairs in panels:
        if isinstance(pairs, ScorePairSet):
            try:
                rank_corr = srcc(pairs.objective, pairs.mos)
                _check_panel(pairs.objective, pairs.mos)
            except StreamPcqError as exc:
                pairs = exc
        if isinstance(pairs, Exception):
            yield key, pairs
            continue
        n = len(pairs.mos)
        batch = pending.setdefault(n, [])
        batch.append((key, pairs, rank_corr))
        if len(batch) >= _BATCH_ELEMENTS // (_STARTS * n):
            yield from _fit_batch(pending.pop(n))
    for batch in pending.values():
        yield from _fit_batch(batch)


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
    cols = record_columns(records)
    contents = np.unique(cols.content).tolist()
    if len(contents) < 2:
        raise DegenerateDesign("leave-one-out needs at least two contents")
    masks = ((held, cols.content != held) for held in contents)
    results = dict(_evaluate_each(_fold_pairs(cols, masks, variant)))
    folds = {k: results[k] for k in contents if isinstance(results[k], EvalReport)}
    failures = {k: str(results[k]) for k in contents if k not in folds}
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
    if n_splits < 0:
        raise InvalidInput(f"n_splits must be >= 0, got {n_splits}")
    if n_train < 1:
        raise InvalidInput(f"n_train must be >= 1, got {n_train}")
    cols = record_columns(records)
    contents = np.unique(cols.content)
    if len(contents) < 2:
        raise DegenerateDesign("need at least two contents to split")
    n_train = min(n_train, len(contents) - 1)
    rng = np.random.default_rng(seed)
    masks = ((i, np.isin(cols.content, contents[rng.choice(len(contents), size=n_train,
                                                           replace=False)]))
             for i in range(n_splits))
    results, unconverged = [None] * n_splits, 0
    for i, rep in _evaluate_each(_fold_pairs(cols, masks, variant)):
        if not isinstance(rep, EvalReport):
            raise rep
        results[i] = (rep.plcc, rep.srcc, rep.rmse)
        unconverged += not rep.converged
    mean, std = _mean_std(results)
    return results, {"n_splits": len(results), "seed": seed, "mean": mean, "std": std,
                     "unconverged": unconverged}


# ---------------------------------------------------------------------------
# Significance


def f_quantile(p: float, d1: int, d2: int) -> float:
    """F-distribution quantile via the regularized incomplete beta inverse."""
    from scipy.special import betaincinv  # loaded here: only `significance` needs scipy

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
