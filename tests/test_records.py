"""The contract of the 18 record types: construction by keyword or by
position (a missing or unknown field is a TypeError), read-only fields, the
repr each type has always had, equality of specs by kind and name, and
records that are not sequences.  Every Record subclass in qig is in the
tables."""

import copy
import importlib
import pickle
import pkgutil
from collections.abc import Iterable

import numpy as np
import pytest

import qig
from qig.flow_engine import Trajectory
from qig.group_actions import (ActionAxiomReport, CotangentGroupElement,
                               SLGroupElement, Subgroup)
from qig.metric_family import (MetricAtPoint, MonotonicityReport,
                               MonotoneFunctionSpec, PetzSymmetryReport)
from qig.ode_classifier import Exclusion, OdeClassification, SingularityList
from qig.state_space import QubitState, Record, SphericalPoint, TracelessObservable
from qig.vector_fields import CommutatorReport, TangentVector, VectorField

_EYE2 = np.eye(2, dtype=complex)
_EYE2_REPR = "array([[1.+0.j, 0.+0.j],\n       [0.+0.j, 1.+0.j]])"
_POLES = SingularityList(1.0, 0.0, (0.2,), (0.6,))
_POLES_REPR = "SingularityList(b_const=1.0, c=0.0, t_values=(0.2,), r_values=(0.6,))"

# (type, its fields in order, its repr); builtins stand in for callables,
# as their repr does not hold an address.
_INPUTS = [
    (TracelessObservable, dict(a1=0.5, a2=-0.25, a3=1.0),
     "TracelessObservable(a1=0.5, a2=-0.25, a3=1.0)"),
    (QubitState, dict(x=0.1, y=0.2, z=0.3), "QubitState(x=0.1, y=0.2, z=0.3)"),
    (SphericalPoint, dict(r=0.5, theta=1.0, phi=2.0),
     "SphericalPoint(r=0.5, theta=1.0, phi=2.0)"),
    (MonotoneFunctionSpec,
     dict(kind="custom", name="f", f_raw=abs, f_float=None, g_prime=round),
     "MonotoneFunctionSpec(kind='custom', name='f')"),
    (VectorField, dict(cartesian=abs, point=round),
     "VectorField(cartesian=<built-in function abs>, point=<built-in function round>)"),
    (SLGroupElement, dict(matrix=_EYE2), f"SLGroupElement(matrix={_EYE2_REPR})"),
    (CotangentGroupElement, dict(unitary=_EYE2, a=TracelessObservable(0.0, 0.0, 0.0)),
     f"CotangentGroupElement(unitary={_EYE2_REPR}, "
     f"a=TracelessObservable(a1=0.0, a2=0.0, a3=0.0))"),
    (Subgroup, dict(images=abs), "Subgroup(images=<built-in function abs>)"),
]
_REPORTS = [
    (ActionAxiomReport,
     dict(action="bkm_cotangent", identity_dev=0.0, compatibility_dev=1e-16),
     "ActionAxiomReport(action='bkm_cotangent', identity_dev=0.0, "
     "compatibility_dev=1e-16)"),
    (PetzSymmetryReport,
     dict(spec="bkm", max_symmetry_dev=1e-17, normalization_dev=0.0, passed=True),
     "PetzSymmetryReport(spec='bkm', max_symmetry_dev=1e-17, "
     "normalization_dev=0.0, passed=True)"),
    (MonotonicityReport,
     dict(spec="family_a(4)", min_gap=-0.5, counterexample={"size": 3}),
     "MonotonicityReport(spec='family_a(4)', min_gap=-0.5, "
     "counterexample={'size': 3})"),
    (CommutatorReport,
     dict(spec="bkm", max_error=1e-9, closure_residual=1e-10, convention_sign=1.0),
     "CommutatorReport(spec='bkm', max_error=1e-09, closure_residual=1e-10, "
     "convention_sign=1.0)"),
    (OdeClassification,
     dict(spec="bkm", grid=(0.1, 0.2), values=(0.0, 0.0), constant=0.0,
          range_width=0.0, branch="bkm_a0"),
     "OdeClassification(spec='bkm', grid=(0.1, 0.2), values=(0.0, 0.0), "
     "constant=0.0, range_width=0.0, branch='bkm_a0')"),
    (SingularityList, dict(b_const=1.0, c=0.0, t_values=(0.2,), r_values=(0.6,)),
     _POLES_REPR),
    (Exclusion,
     dict(a_const=-4.0, b_const=1.0,
          spec=MonotoneFunctionSpec("family_b", "family_b(1,0)", abs), poles=_POLES),
     "Exclusion(a_const=-4.0, b_const=1.0, spec=MonotoneFunctionSpec("
     f"kind='family_b', name='family_b(1,0)'), poles={_POLES_REPR})"),
    (MetricAtPoint,
     dict(chart="spherical", matrix=np.diag([1.0, 2.0, 3.0]), point=(0.5, 1.0, 2.0)),
     "MetricAtPoint(chart='spherical', matrix=array([[1., 0., 0.],\n"
     "       [0., 2., 0.],\n       [0., 0., 3.]]), point=(0.5, 1.0, 2.0))"),
    (TangentVector,
     dict(chart="cartesian", components=np.array([1.0, 2.0, 3.0]),
          point=(0.1, 0.2, 0.3)),
     "TangentVector(chart='cartesian', components=array([1., 2., 3.]), "
     "point=(0.1, 0.2, 0.3))"),
    (Trajectory, dict(times=np.array([0.0, 1.0]), points=np.zeros((2, 3))),
     "Trajectory(times=array([0., 1.]), points=array([[0., 0., 0.],\n"
     "       [0., 0., 0.]]))"),
]


@pytest.mark.parametrize("cls,fields,text", [
    pytest.param(*row, id=row[0].__name__) for row in _INPUTS + _REPORTS])
def test_record_contract(cls, fields, text):
    record = cls(**fields)
    # Equal field objects compare equal by identity, arrays included.
    assert record == cls(*fields.values())
    assert copy.copy(record) == record
    assert repr(record) == text
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    assert getattr(record, name) is fields[name]


def test_every_record_type_is_in_the_contract():
    defined = set()
    for info in pkgutil.iter_modules(qig.__path__):
        module = importlib.import_module(f"qig.{info.name}")
        defined.update(v for v in vars(module).values() if isinstance(v, type)
                       and issubclass(v, Record) and v is not Record)
    assert defined == {cls for cls, _, _ in _INPUTS + _REPORTS}


@pytest.mark.parametrize("cls,fields", [
    pytest.param(cls, fields, id=cls.__name__) for cls, fields, _ in _INPUTS + _REPORTS])
def test_missing_or_unknown_field_is_type_error(cls, fields):
    first, *rest = fields
    for bad in ({name: fields[name] for name in rest}, dict(fields, unknown=0)):
        with pytest.raises(TypeError):
            cls(**bad)
    with pytest.raises(TypeError):  # the first field twice
        cls(fields[first], **fields)


@pytest.mark.parametrize("cls,fields", [
    pytest.param(cls, fields, id=cls.__name__) for cls, fields, _ in _INPUTS])
def test_input_records_are_not_sequences(cls, fields):
    # A sequence would pass require_items and np.asarray as one.
    record = cls(**fields)
    assert not isinstance(record, Iterable)
    with pytest.raises(TypeError):
        iter(record)
    with pytest.raises(AttributeError):
        delattr(record, next(iter(fields)))


@pytest.mark.parametrize("cls,fields", [
    pytest.param(cls, fields, id=cls.__name__) for cls, fields, _ in _REPORTS])
def test_reports_are_not_tuples(cls, fields):
    report = cls(**fields)
    assert not isinstance(report, tuple) and report != tuple(fields.values())
    with pytest.raises(TypeError):
        report[0]


def test_records_round_trip_through_pickle():
    for record in (TracelessObservable(0.5, -0.25, 1.0), QubitState(0.1, 0.2, 0.3),
                   SphericalPoint(0.5, 1.0, 2.0)):
        assert pickle.loads(pickle.dumps(record)) == record


def test_spec_equality_and_hash_use_kind_and_name_only():
    spec = MonotoneFunctionSpec("custom", "f", f_raw=abs)
    same = MonotoneFunctionSpec("custom", "f", round, abs, g_prime=round)
    assert spec == same and hash(spec) == hash(same)
    assert spec != MonotoneFunctionSpec("custom", "g", f_raw=abs)
    assert spec != MonotoneFunctionSpec("family_a", "f", f_raw=abs)
