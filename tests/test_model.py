import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from streampcq.bitstream import BitstreamFeatures
from streampcq.errors import InvalidFeature, InvalidParams, NonPositivePqs
from streampcq.model import (
    QP_MAX,
    ModelParams,
    check_qp,
    alpha_from_tc,
    estimate_tc,
    h_of_qp,
    j_of_qp,
    pmos_g,
    predict,
    tqs_from_qp,
)

P = ModelParams()
ZERO = ModelParams(a1=0, a2=0, a3=0, b1=0, b2=0, c=0, d=0, f1=0, f2=0)


def feats(pqs, qp, tbpp):
    return BitstreamFeatures(pqs=pqs, qp=qp, texture_bits=0, point_count=1, tbpp=tbpp)


def test_tqs_values():
    assert tqs_from_qp(4) == 1.0
    assert tqs_from_qp(22) == 8.0
    assert tqs_from_qp(46) == 128.0


def test_tqs_of_a_scalar_has_the_bits_of_an_array_element():
    steps = tqs_from_qp(np.arange(QP_MAX + 1))
    assert [tqs_from_qp(qp) for qp in range(QP_MAX + 1)] == steps.tolist()
    assert type(tqs_from_qp(57)) is float


def test_qp_max_is_the_largest_qp_with_a_finite_step():
    assert math.isfinite(tqs_from_qp(QP_MAX))
    with pytest.raises(OverflowError):
        tqs_from_qp(QP_MAX + 1)
    for qp in (0, 46, QP_MAX):
        check_qp(qp)
    for qp in (-1, QP_MAX + 1, 10**400, math.nan):
        with pytest.raises(InvalidFeature):
            check_qp(qp)


def test_h_and_j_table_values():
    assert h_of_qp(P, 22) == pytest.approx(6.0213, abs=1e-4)
    assert h_of_qp(P, 46) == pytest.approx(92.7573, abs=1e-4)
    assert j_of_qp(P, 22) == pytest.approx(2.0922, abs=1e-4)
    assert j_of_qp(P, 46) == pytest.approx(7.9194, abs=1e-4)
    assert h_of_qp(ZERO, 30) == 0.0
    assert j_of_qp(ZERO, 30) == 0.0


def test_estimate_tc():
    assert estimate_tc(P, 22, 1.0) == pytest.approx(8.1135, abs=1e-4)
    assert estimate_tc(P, 46, 0.5) == pytest.approx(54.29805, abs=1e-4)
    assert estimate_tc(P, 37, 0.0) == j_of_qp(P, 37)


def test_alpha_from_tc():
    assert alpha_from_tc(P, 0.0) == pytest.approx(-0.2042)
    assert alpha_from_tc(P, 100.0) == pytest.approx(-0.0742, abs=1e-6)
    tc_star = -P.d / P.c
    assert tc_star == pytest.approx(157.0769, abs=1e-3)
    assert alpha_from_tc(P, tc_star) == pytest.approx(0.0, abs=1e-12)


def test_pmos_t():
    assert predict(P, feats(1.0, 46, 0.5)).pmos_t == pytest.approx(-17.1024, abs=1e-3)
    tc_star = -P.d / P.c
    tbpp_star = (tc_star - j_of_qp(P, 46)) / h_of_qp(P, 46)
    assert predict(P, feats(1.0, 46, tbpp_star)).pmos_t == pytest.approx(0.0, abs=1e-9)
    assert predict(ZERO, feats(1.0, 46, 0.5)).pmos_t == 0.0


def test_pmos_g():
    assert pmos_g(P, 1.0) == pytest.approx(85.4838, abs=1e-4)
    assert pmos_g(P, 0.125) == pytest.approx(66.5803, abs=1e-4)
    with pytest.raises(NonPositivePqs):
        pmos_g(P, 0.0)


@pytest.mark.parametrize("variant", ["eq11-literal", "alpha-times-tqs"])
def test_array_predict_matches_scalar_bitwise(variant):
    p = ModelParams(variant=variant)
    grid = list(itertools.product([0.125, 0.25, 0.5, 1.0], [22, 28, 34, 40, 46]))
    tbpp = np.linspace(0.05, 2.0, len(grid))
    cols = SimpleNamespace(pqs=np.array([g[0] for g in grid]),
                           qp=np.array([g[1] for g in grid]), tbpp=tbpp)
    arr = predict(p, cols)
    for i, (pqs, qp) in enumerate(grid):
        one = predict(p, feats(pqs, qp, float(tbpp[i])))
        assert isinstance(one.pmos, float)
        for name in ("pmos", "pmos_t", "pmos_g", "tc_est", "alpha", "tqs"):
            assert getattr(arr, name)[i] == getattr(one, name)
    cols.pqs[7] = 0.0
    with pytest.raises(NonPositivePqs):
        predict(p, cols)


def test_predict_literal():
    assert predict(P, feats(0.25, 46, 0.5)).pmos == pytest.approx(77.2487, abs=1e-3)


def test_predict_alpha_times_tqs():
    p = ModelParams(variant="alpha-times-tqs")
    assert predict(p, feats(0.25, 46, 0.5)).pmos == pytest.approx(60.2799, abs=1e-3)


def test_variants_agree_at_qp4():
    p_alt = ModelParams(variant="alpha-times-tqs")
    for pqs, tbpp in itertools.product((0.125, 0.5, 1.0), (0.0, 0.3, 2.0)):
        a = predict(P, feats(pqs, 4, tbpp)).pmos
        b = predict(p_alt, feats(pqs, 4, tbpp)).pmos
        assert a == pytest.approx(b, rel=1e-15)


def test_decomposition_laws():
    f = feats(0.5, 34, 0.7)
    lit = predict(P, f)
    assert lit.pmos == pytest.approx(lit.alpha + lit.pmos_g, rel=1e-12)
    alt = predict(ModelParams(variant="alpha-times-tqs"), f)
    assert alt.pmos == pytest.approx(alt.alpha * alt.tqs + alt.pmos_g, rel=1e-12)


def test_geometry_monotonic_in_pqs():
    grid = [0.01, 0.05, 0.125, 0.25, 0.5, 1.0, 2.0, 10.0]
    vals = [predict(P, feats(pqs, 34, 0.5)).pmos for pqs in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_texture_monotonic_on_grid():
    # alpha stays negative across the grid for small tbpp, so increasing qp
    # (coarser texture) must not raise the prediction
    p = ModelParams(variant="alpha-times-tqs")
    for pqs in (0.125, 0.25, 0.5, 1.0):
        for tbpp in (0.0, 0.2, 0.5):
            qps = [22, 28, 34, 40, 46]
            assert all(estimate_tc(P, qp, tbpp) < -P.d / P.c for qp in qps)
            vals = [predict(p, feats(pqs, qp, tbpp)).pmos for qp in qps]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_params_roundtrip_json(tmp_path):
    path = tmp_path / "params.json"
    custom = ModelParams(c=0.5, variant="alpha-times-tqs")
    custom.save(path)
    assert ModelParams.load(path) == custom


def test_params_toml_loads_like_its_json_twin(tmp_path):
    toml, twin = tmp_path / "params.toml", tmp_path / "params.json"
    toml.write_text('c = 0.5\nf2 = 90.25\nvariant = "alpha-times-tqs"\n')
    twin.write_text('{"c": 0.5, "f2": 90.25, "variant": "alpha-times-tqs"}')
    assert ModelParams.load(toml) == ModelParams.load(twin)
    assert ModelParams.load(toml) == ModelParams(c=0.5, f2=90.25, variant="alpha-times-tqs")


def test_params_unknown_variant_rejected():
    with pytest.raises(ValueError):
        ModelParams(variant="bogus")


@pytest.mark.parametrize("name, text", [
    ("p.json", '{"variant": "nope"}'),
    ("p.json", "[1]"),
    ("p.json", "{"),
    ("p.json", '{"zz": 1}'),
    ("p.json", '{"a1": "x"}'),
    ("p.json", '{"c": null}'),
    ("p.toml", "nope"),
    ("p.toml", 'c = "x"'),
    ("p.json", '{"a1": true}'),
    ("p.json", '{"a1": NaN}'),
    ("p.json", '{"c": Infinity}'),
    ("p.json", '{"f1": 1%s}' % ("0" * 400)),  # an int past the float range
])
def test_malformed_params_file_fails_typed(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(InvalidParams, match=name):
        ModelParams.load(path)
