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

import math
import numbers
import sys

from ._lazy import np
from ._record import Record, set_field

from .errors import InvalidFeature, InvalidParams, NonPositivePqs
from .table import read_document, write_document

__all__ = [
    "VARIANTS",
    "QP_MAX",
    "check_qp",
    "check_pqs_qp",
    "ModelParams",
    "QualityPrediction",
    "tqs_from_qp",
    "h_of_qp",
    "j_of_qp",
    "estimate_tc",
    "alpha_from_tc",
    "pmos_g",
    "predict",
]

VARIANTS = ("eq11-literal", "alpha-times-tqs")

# The largest QP whose quantization step tqs_from_qp(qp) is a finite float.
QP_MAX = 4 + 6 * sys.float_info.max_exp - 1


class ModelParams(Record):
    __slots__ = (
        "a1", "a2", "a3", "b1", "b2",  # H(qp) = a1*qp^2 + a2*qp + a3 ; J(qp) = b1*qp + b2
        "c", "d",                      # alpha = c*tc + d
        "f1", "f2",                    # geometry term = f1/pqs + f2
        "variant",
    )

    def __init__(self, a1: float = 0.2176, a2: float = -11.1828, a3: float = 146.7245,
                 b1: float = 0.2428, b2: float = -3.2494, c: float = 0.0013,
                 d: float = -0.2042, f1: float = -2.7005, f2: float = 88.1843,
                 variant: str = "eq11-literal"):
        values = (a1, a2, a3, b1, b2, c, d, f1, f2, variant)
        for name, value in zip(self._fields, values):
            set_field(self, name, value)
        if variant not in VARIANTS:
            raise InvalidParams(f"unknown variant {variant!r}")
        # JSON true is no number; NaN, an infinity and an int past the float range
        # all fail the bound (math.isfinite would raise on that int)
        bad = [name for name, v in zip(self._fields, values[:-1]) if
               isinstance(v, bool) or not isinstance(v, numbers.Real)
               or not abs(v) <= sys.float_info.max]
        if bad:
            raise InvalidParams(f"coefficients must be finite numbers: {', '.join(bad)}")

    def to_dict(self) -> dict:
        """The fields by name, in field order."""
        return dict(zip(self._fields, self._values()))

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        return cls(**d)

    @classmethod
    def load(cls, path) -> "ModelParams":
        """Read JSON or TOML parameters; InvalidParams if they do not parse or
        are not one table of known names and valid values."""
        return read_document(path, cls.from_dict, InvalidParams, "params")

    def save(self, path):
        write_document(path, self.to_dict())


class QualityPrediction(Record):
    __slots__ = ("pmos", "pmos_t", "pmos_g", "tc_est", "alpha", "tqs")

    def __init__(self, pmos: float, pmos_t: float, pmos_g: float, tc_est: float,
                 alpha: float, tqs: float):
        set_field(self, "pmos", pmos)
        set_field(self, "pmos_t", pmos_t)
        set_field(self, "pmos_g", pmos_g)
        set_field(self, "tc_est", tc_est)
        set_field(self, "alpha", alpha)
        set_field(self, "tqs", tqs)


def tqs_from_qp(qp) -> float:
    """Texture quantization step: 2^((qp - 4) / 6).

    A scalar QP goes through numpy's array power too, so it gets the bits it
    gets in a batch (Python's `**` rounds one ulp apart at some QPs), and
    raises OverflowError past QP_MAX as `**` does."""
    if np.ndim(qp):
        return np.power(2.0, (np.asarray(qp) - 4) / 6.0)
    try:
        with np.errstate(over="raise"):
            return float(np.power(2.0, (qp - 4) / 6.0))
    except FloatingPointError as exc:
        raise OverflowError(f"quantization step of qp {qp} overflows") from exc


def check_qp(qp):
    """InvalidFeature unless 0 <= qp <= QP_MAX: an attribute QP is never
    negative, and above QP_MAX its quantization step overflows."""
    if not 0 <= qp <= QP_MAX:
        raise InvalidFeature(f"qp must be from 0 to {QP_MAX}, got {qp}")


def check_pqs_qp(pqs, qp):
    """NonPositivePqs unless pqs > 0, then InvalidFeature unless pqs is finite
    and `check_qp(qp)` passes: the coding parameters of one stream."""
    if pqs <= 0:
        raise NonPositivePqs(f"pqs must be positive, got {pqs}")
    if not math.isfinite(pqs):
        raise InvalidFeature(f"pqs must be finite, got {pqs}")
    check_qp(qp)


def h_of_qp(p: ModelParams, qp) -> float:
    return p.a1 * qp * qp + p.a2 * qp + p.a3


def j_of_qp(p: ModelParams, qp) -> float:
    return p.b1 * qp + p.b2


def estimate_tc(p: ModelParams, qp, tbpp) -> float:
    """Texture complexity inferred from coding parameters alone."""
    return h_of_qp(p, qp) * tbpp + j_of_qp(p, qp)


def alpha_from_tc(p: ModelParams, tc) -> float:
    return p.c * tc + p.d


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
