"""Hand-computed cases for the benchmark's reference code.

Run with `python3 -m pytest bench` from the root of the repository.
"""

import math

import numpy as np
import pytest

import fixtures
import reference as ref
from streampcq.model import ModelParams


def bits(b: ref.Bits) -> str:
    return "".join(b._bits)


def test_exp_golomb_codes():
    assert bits(ref.Bits().ue(0)) == "1"
    assert bits(ref.Bits().ue(1)) == "010"
    assert bits(ref.Bits().ue(3)) == "00100"
    assert bits(ref.Bits().ue(34)) == "00000100011"
    assert bits(ref.Bits().u(5, 3)) == "101"
    with pytest.raises(ValueError):
        ref.Bits().u(8, 3)


def test_units_of_the_default_layout():
    # type 1, length 3: profile 1, level 0, ue(2) = 011 padded with zeros
    assert ref.sequence_params(0.25) == bytes.fromhex("0100000003" "01" "00" "60")
    # attr_label 0, ue(34) = 00000100011 -> 0000 0100 0110 0000
    assert ref.attribute_params(34) == bytes.fromhex("0300000003" "00" "0460")
    # ue(0) = 1, ue(1000) = 000000000 1111101001 -> 1000 0000 0011 1110 1001 0000
    assert ref.geometry_data(0, 1000, b"\xab") == bytes.fromhex("0400000004" "803e90" "ab")
    assert ref.attribute_data(b"xy") == bytes.fromhex("0500000002") + b"xy"
    with pytest.raises(ValueError):
        ref.sequence_params(0.3)


def test_model_formula_on_the_criterion_1_fixtures():
    p = ModelParams().to_dict()
    assert ref.tqs(22) == 8.0 and ref.tqs(46) == 128.0
    assert ref.h(p, 22) == pytest.approx(6.0213, abs=1e-9)
    assert ref.h(p, 46) == pytest.approx(92.7573, abs=1e-9)
    assert ref.j(p, 22) == pytest.approx(2.0922, abs=1e-9)
    assert ref.j(p, 46) == pytest.approx(7.9194, abs=1e-9)
    assert ref.pmos(p, 0.25, 46, 0.5, "eq11-literal") == pytest.approx(77.2487, abs=1e-3)
    assert ref.pmos(p, 0.25, 46, 0.5, "alpha-times-tqs") == pytest.approx(60.2799, abs=1e-3)
    tbpp = ref.tbpp_for_tc(p, 34, 40.0)
    assert ref.h(p, 34) * tbpp + ref.j(p, 34) == pytest.approx(40.0, rel=1e-15)


def test_planted_coefficients_are_the_program_defaults():
    defaults = ModelParams().to_dict()
    assert {k: defaults[k] for k in ref.COEFFICIENTS} == fixtures.PAPER_PARAMS


def test_texture_complexity_by_hand():
    positions = np.array([[0, 0, 0], [1, 0, 0], [2, 1, 0], [3, 3, 3],   # block (0,0,0)
                          [4, 0, 0], [5, 1, 1],                          # block (1,0,0)
                          [9, 9, 9]])                                    # lone point
    grey = np.array([0, 0, 100, 100, 10, 30, 255])
    tc, blocks = ref.texture_complexity(positions, np.repeat(grey[:, None], 3, axis=1))
    # population std of (0, 0, 100, 100) is 50 and of (10, 30) is 10
    assert blocks == 2
    assert tc == pytest.approx(30.0, abs=1e-12)
    with pytest.raises(ValueError):
        ref.texture_complexity(positions[:1], np.zeros((1, 3)))


def test_ranks_and_correlations():
    assert list(ref.ranks([10, 20, 20, 5])) == [2.0, 3.5, 3.5, 1.0]
    assert ref.pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert ref.spearman([1, 2, 3, 4], [1, 4, 9, 100]) == pytest.approx(1.0)
    assert math.isclose(ref.pearson([1, 2, 3], [3, 2, 1]), -1.0)
