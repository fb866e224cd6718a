"""Every public record of the package behaves as a frozen dataclass would:
construction by keyword or position with the same defaults, fresh mutable
defaults, read-only fields (FitDiagnostics alone is mutable), equality and
hashing by class and value, the same repr, and `replace`."""

import copy
import pickle

import numpy as np
import pytest

from streampcq import bitstream as bs
from streampcq.calibration import FitDiagnostics, TrainingRecord
from streampcq.errors import InvalidParams, InvalidSchema
from streampcq.evaluation import EvalReport, LogisticFit, ScorePairSet, SignificanceVerdict
from streampcq.model import ModelParams, QualityPrediction
from streampcq.pointcloud import PointCloud, TcResult
from streampcq.subjective import MosTable, SubjectiveMatrix

# (class, the arguments every instance needs, the defaults of the others)
RECORDS = [
    (bs.TlvUnit, {"unit_type": 2, "payload": b"\xaa"}, {}),
    (bs.FieldSpec, {"name": "slice_id", "kind": "ue"}, {"width": 0}),
    (bs.TargetSpec, {"unit_class": "sequence_params", "field": "geom_scale_num"},
     {"divisor": 1, "where": {}}),
    (bs.SyntaxSchema, {}, {"type_bytes": 1, "length_bytes": 4, "length_endian": "big",
                           "unit_codes": {}, "field_paths": {}, "targets": {}}),
    (bs.BitstreamFeatures, {"pqs": 0.5, "qp": 28, "texture_bits": 800, "point_count": 100,
                            "tbpp": 8.0}, {"point_count_source": "slice-header"}),
    (ModelParams, {}, {"a1": 0.2176, "a2": -11.1828, "a3": 146.7245, "b1": 0.2428,
                       "b2": -3.2494, "c": 0.0013, "d": -0.2042, "f1": -2.7005,
                       "f2": 88.1843, "variant": "eq11-literal"}),
    (QualityPrediction, {"pmos": 70.0, "pmos_t": 1.0, "pmos_g": 69.0, "tc_est": 10.0,
                         "alpha": 0.1, "tqs": 10.0}, {}),
    (TrainingRecord, {"content": "c0", "pqs": 0.5, "qp": 28, "tbpp": 1.5, "tc": 10.0,
                      "mos": 60.0}, {}),
    (FitDiagnostics, {}, {"stage_rss": {}, "stage_samples": {}, "skipped_groups": [],
                          "coefficients": {}}),
    (ScorePairSet, {"objective": np.arange(5.0), "mos": np.arange(5.0) * 2}, {}),
    (EvalReport, {"plcc": 0.9, "srcc": 0.8, "rmse": 5.0, "logistic_params": (1, 2, 3, 4),
                  "mapped": np.arange(3.0)}, {"converged": True}),
    (LogisticFit, {"params": (1, 2, 3, 4), "mapped": np.arange(3.0), "rss": 2.0,
                   "converged": False}, {}),
    (SignificanceVerdict, {"f_statistic": 1.5, "decision": "equivalent"}, {"confidence": 0.95}),
    (SubjectiveMatrix, {"ratings": np.array([[1.0, 2.0], [3.0, 5.0]]),
                        "stimulus_ids": ("a", "b"), "subject_ids": ("x", "y")}, {}),
    (MosTable, {"mos": np.zeros(2), "std": np.ones(2), "n_valid": np.full(2, 3),
                "stimulus_ids": ("a", "b")}, {"rejected_subjects": ()}),
    (PointCloud, {"positions": np.zeros((2, 3), np.int32),
                  "colors": np.zeros((2, 3), np.uint8)}, {}),
    (TcResult, {"tc": 12.5, "blocks_used": 3, "block_edge": 4}, {}),
]
# records whose fields are all hashable, and so the records themselves
HASHABLE = (bs.TlvUnit, bs.FieldSpec, bs.BitstreamFeatures, ModelParams, QualityPrediction,
            TrainingRecord, SignificanceVerdict, TcResult)


def cases(keep=lambda cls: True) -> list:
    return [pytest.param(*r, id=r[0].__name__) for r in RECORDS if keep(r[0])]


def fields_of(record) -> dict:
    return {name: getattr(record, name) for name in type(record)._fields}


def same(a, b) -> bool:
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(fields_of(a).values(), fields_of(b).values()))


@pytest.mark.parametrize("cls, needed, defaults", cases())
def test_construction_by_keyword_and_position_with_the_defaults(cls, needed, defaults):
    record = cls(**needed)
    assert list(fields_of(record)) == list(needed) + list(defaults)
    assert {k: getattr(record, k) for k in defaults} == defaults
    assert same(cls(*needed.values()), record)
    assert same(cls(*needed.values(), *defaults.values()), record)


@pytest.mark.parametrize("cls, needed, defaults", cases())
def test_mutable_defaults_are_fresh_per_instance(cls, needed, defaults):
    for name, value in defaults.items():
        if isinstance(value, (dict, list)):
            assert getattr(cls(**needed), name) is not getattr(cls(**needed), name)


@pytest.mark.parametrize("cls, needed, defaults", cases(lambda cls: cls is not FitDiagnostics))
def test_fields_cannot_be_assigned_or_deleted(cls, needed, defaults):
    record = cls(**needed)
    name = next(iter(fields_of(record)))
    before = getattr(record, name)
    for attempt in (lambda: setattr(record, name, 1), lambda: delattr(record, name),
                    lambda: setattr(record, "other", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(record, name) is before


def test_fit_diagnostics_fill_in_as_a_stage_runs():
    diag = FitDiagnostics()
    diag.stage_rss["A"] = 1.5
    diag.skipped_groups += [("A", ("c0", 0.5), "one point")]
    diag.coefficients = {"C": (1.0, 2.0)}
    assert diag == FitDiagnostics({"A": 1.5}, {}, [("A", ("c0", 0.5), "one point")],
                                  {"C": (1.0, 2.0)})
    with pytest.raises(TypeError):
        hash(diag)


@pytest.mark.parametrize("cls, needed, defaults", cases(lambda cls: cls in HASHABLE))
def test_equality_and_hash_go_by_class_and_value(cls, needed, defaults):
    a, b = cls(**needed), cls(*needed.values())
    assert a == b and hash(a) == hash(b) and not a != b
    name, value = next(iter(fields_of(a).items()))
    assert a != a.replace(**{name: value * 2})

    class Other(cls):
        __slots__ = ()

    assert a != Other(**needed) and Other(**needed) != a
    assert a != tuple(fields_of(a).values())


def test_records_with_tables_are_equal_by_value_but_unhashable():
    schema = bs.default_schema()
    assert schema == bs.default_schema() and schema != bs.SyntaxSchema()
    assert bs.TargetSpec("a", "b", where={"x": 1}) == bs.TargetSpec("a", "b", 1, {"x": 1})
    for record in (schema, bs.TargetSpec("a", "b")):
        with pytest.raises(TypeError):
            hash(record)


def test_repr_names_every_field_as_a_dataclass_does():
    assert repr(TcResult(tc=12.5, blocks_used=3, block_edge=4)) == \
        "TcResult(tc=12.5, blocks_used=3, block_edge=4)"
    assert repr(bs.FieldSpec("geom_scale_num", "ue")) == \
        "FieldSpec(name='geom_scale_num', kind='ue', width=0)"
    assert repr(ModelParams()) == (
        "ModelParams(a1=0.2176, a2=-11.1828, a3=146.7245, b1=0.2428, b2=-3.2494, "
        "c=0.0013, d=-0.2042, f1=-2.7005, f2=88.1843, variant='eq11-literal')")
    assert repr(FitDiagnostics()) == \
        "FitDiagnostics(stage_rss={}, stage_samples={}, skipped_groups=[], coefficients={})"


def test_params_to_dict_keeps_field_order():
    assert list(ModelParams().to_dict()) == [
        "a1", "a2", "a3", "b1", "b2", "c", "d", "f1", "f2", "variant"]
    assert ModelParams.from_dict(ModelParams(c=0.5).to_dict()) == ModelParams(c=0.5)


def test_replace_builds_a_checked_copy():
    p = ModelParams()
    q = p.replace(f2=90.0, variant="alpha-times-tqs")
    assert (q.f2, q.variant, q.a1) == (90.0, "alpha-times-tqs", p.a1) and p.f2 == 88.1843
    with pytest.raises(InvalidParams, match="unknown variant"):
        p.replace(variant="nope")
    with pytest.raises(InvalidSchema, match="unsupported descriptor kind"):
        bs.FieldSpec("x", "u", 8).replace(kind="zz")
    with pytest.raises(TypeError, match=r"^ModelParams\.__init__\(\) got an unexpected "
                                        r"keyword argument 'zz'$"):
        p.replace(zz=1)


@pytest.mark.parametrize("cls, needed, defaults", cases())
def test_copy_and_pickle_give_an_equal_record(cls, needed, defaults):
    record = cls(**needed)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and same(twin, record)


def test_a_schema_builds_its_plan_once_per_object():
    schema = bs.SyntaxSchema.from_dict(bs.default_schema().to_dict())
    assert schema._plan is schema._plan
    assert schema.replace()._plan is not schema._plan
    assert schema.replace()._plan == schema._plan
