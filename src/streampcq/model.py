"""The streamPCQ-OR analytic quality model.

Predicts a MOS from three bitstream-derived quantities: the geometry
position quantization scale (PQS), the attribute quantization parameter
(QP) and the texture bitrate in bits per point (TBPP).  Two closed forms
are available behind `variant`:

* ``eq11-literal``   — pmos = alpha(tc_est) + f1/pqs + f2
* ``alpha-times-tqs``— pmos = alpha(tc_est) * tqs(qp) + f1/pqs + f2

Both share the texture-complexity estimate tc_est = H(qp)*tbpp + J(qp).
Every function takes scalars or numpy arrays alike.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, asdict, fields

import numpy as np

from .errors import InvalidParams, NonPositivePqs

__all__ = [
    "VARIANTS",
    "ModelParams",
    "QualityPrediction",
    "tqs_from_qp",
    "h_of_qp",
    "j_of_qp",
    "estimate_tc",
    "alpha_from_tc",
    "pmos_t",
    "pmos_g",
    "predict",
]

VARIANTS = ("eq11-literal", "alpha-times-tqs")


@dataclass(frozen=True)
class ModelParams:
    # H(qp) = a1*qp^2 + a2*qp + a3 ; J(qp) = b1*qp + b2
    a1: float = 0.2176
    a2: float = -11.1828
    a3: float = 146.7245
    b1: float = 0.2428
    b2: float = -3.2494
    # alpha = c*tc + d
    c: float = 0.0013
    d: float = -0.2042
    # geometry term = f1/pqs + f2
    f1: float = -2.7005
    f2: float = 88.1843
    variant: str = "eq11-literal"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidParams(f"unknown variant {self.variant!r}")
        bad = [f.name for f in fields(self)
               if f.name != "variant" and not isinstance(getattr(self, f.name), numbers.Real)]
        if bad:
            raise InvalidParams(f"coefficients must be numbers: {', '.join(bad)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        return cls(**d)

    @classmethod
    def load(cls, path) -> "ModelParams":
        """Read JSON or TOML parameters; InvalidParams if they do not parse or
        are not one table of known names and valid values."""
        with open(path, "rb") as fh:
            text = fh.read()
        try:
            if str(path).endswith(".toml"):
                import tomllib

                return cls.from_dict(tomllib.loads(text.decode()))
            return cls.from_dict(json.loads(text))
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"params {path}: {exc}") from exc

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


@dataclass(frozen=True)
class QualityPrediction:
    pmos: float
    pmos_t: float
    pmos_g: float
    tc_est: float
    alpha: float
    tqs: float


def tqs_from_qp(qp) -> float:
    """Texture quantization step: 2^((qp - 4) / 6)."""
    return 2.0 ** ((qp - 4) / 6.0)


def h_of_qp(p: ModelParams, qp) -> float:
    return p.a1 * qp * qp + p.a2 * qp + p.a3


def j_of_qp(p: ModelParams, qp) -> float:
    return p.b1 * qp + p.b2


def estimate_tc(p: ModelParams, qp, tbpp) -> float:
    """Texture complexity inferred from coding parameters alone."""
    return h_of_qp(p, qp) * tbpp + j_of_qp(p, qp)


def alpha_from_tc(p: ModelParams, tc) -> float:
    return p.c * tc + p.d


def pmos_t(p: ModelParams, qp, tbpp) -> float:
    """Texture term: alpha scaled by the quantization step."""
    return alpha_from_tc(p, estimate_tc(p, qp, tbpp)) * tqs_from_qp(qp)


def pmos_g(p: ModelParams, pqs) -> float:
    """Geometry term, hyperbolic in the position quantization scale."""
    if np.any(np.asarray(pqs) <= 0):
        raise NonPositivePqs(f"pqs must be positive, got {pqs}")
    return p.f1 / pqs + p.f2


def predict(p: ModelParams, features) -> QualityPrediction:
    """Full model evaluation; `features` needs .pqs, .qp and .tbpp, either
    scalars or equal-length arrays (one prediction per element)."""
    qp, tbpp, pqs = features.qp, features.tbpp, features.pqs
    tc = estimate_tc(p, qp, tbpp)
    alpha = alpha_from_tc(p, tc)
    tqs = tqs_from_qp(qp)
    geom = pmos_g(p, pqs)
    tex = alpha * tqs
    if p.variant == "alpha-times-tqs":
        pmos = tex + geom
    else:
        pmos = alpha + geom
    return QualityPrediction(pmos=pmos, pmos_t=tex, pmos_g=geom,
                             tc_est=tc, alpha=alpha, tqs=tqs)
