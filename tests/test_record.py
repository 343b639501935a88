"""Every record keeps the behaviour its PEP 557 form had: construction by
position or keyword, __post_init__, field-wise equality and hash, ordering
where it was asked for, refused assignment, and the Name(field=value) repr."""

import copy
import pickle

import pytest

from glsuper.dimensions import DimBound, ExtDegreeWindow
from glsuper.errors import ParameterError
from glsuper.invariants import InvariantReport
from glsuper.oracle.gl11 import GrowthFit, ResolutionTrace
from glsuper.oracle.gt import GlRep, GTPattern
from glsuper.oracle.modules import MatrixModule
from glsuper.polytope import QuasiPolynomial, RationalPolytope
from glsuper.suzhang import WeightPairSet, ZetaInput
from glsuper.weights import BlockDescriptor, Root, SuperParams, Weight

P11 = SuperParams(1, 1)
P21 = SuperParams(2, 1)
GL11_ZERO = {unit: [{}] for unit in ((1, 1), (1, 2), (2, 1), (2, 2))}

# one valid instance of each record, as its fields by keyword, in field order
RECORDS = [
    (SuperParams, {"m": 2, "n": 1}),
    (Weight, {"params": P21, "coeffs": (1, 0, -2)}),
    (Root, {"i": 1, "j": 3}),
    (BlockDescriptor, {"atypicality": 1, "core_left": (2,), "core_right": (), "omega": (Root(1, 3),)}),
    (DimBound, {"lower": 1, "upper": 4}),
    (ExtDegreeWindow, {"base": -2, "width": 2}),
    (InvariantReport, {"complexity": 3, "z_invariant": 1, "dim_X": 3, "dim_V_g_g0": 0,
                       "dim_V_f_f0": 1, "dim_rank_plus": 1, "dim_rank_minus": 0}),
    (RationalPolytope, {"dim_ambient": 1, "equalities": (), "inequalities": (((1,), 0),)}),
    (QuasiPolynomial, {"period": 1, "polys": ((0, 1),)}),
    (ZetaInput, {"params": P21, "k": 1, "x": (3,)}),
    (WeightPairSet, {"d": 1, "pairs": (), "block": BlockDescriptor(0, (2, 1), (), ())}),
    (GTPattern, {"rows": ((1, 0), (1,))}),
    (GlRep, {"r": 1, "highest_weight": (2,), "patterns": (GTPattern(((2,),)),),
             "actions": {(1, 1): [{0: 2}]}}),
    (ResolutionTrace, {"target": "kac", "depth": 0, "degrees": ({0: 1},)}),
    (GrowthFit, {"rate": 1, "slope": 0.5}),
    (MatrixModule, {"params": P11, "dim": 1, "actions": GL11_ZERO, "parity": (0,)}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_semantics(cls, fields):
    a = cls(*fields.values())
    b = cls(**fields)
    values = tuple(fields.values())
    assert a == b and not a != b
    assert a != values and a.__eq__(values) is NotImplemented
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    assert cls.__doc__ and cls.__doc__.strip() and not cls.__doc__.startswith(f"{cls.__name__}(")
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for bad in ((*values, 0), values[:-1]):
        with pytest.raises(TypeError):
            cls(*bad)
    with pytest.raises(TypeError):
        cls(*values, **{next(iter(fields)): values[0]})
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=0)
    name = next(iter(fields))
    if cls is MatrixModule:
        with pytest.raises(TypeError):
            hash(a)
        a.dim = 2
        assert a.dim == 2 and a != b
        return
    with pytest.raises(AttributeError):
        setattr(a, name, values[0])
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.no_such_field = 0
    try:
        hash(values)
    except TypeError:  # a dict field, unhashable as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_records_order_by_field_values_only_where_asked():
    assert SuperParams(2, 1) < SuperParams(2, 2) < SuperParams(3, 1)
    assert SuperParams(3, 1) >= SuperParams(3, 1) > SuperParams(2, 2)
    assert sorted([Root(2, 3), Root(1, 4), Root(1, 3)]) == [Root(1, 3), Root(1, 4), Root(2, 3)]
    # BlockDescriptor sorts omega by this order
    assert BlockDescriptor(2, (), (), (Root(2, 3), Root(1, 4))).omega == (Root(1, 4), Root(2, 3))
    for a, b in ((SuperParams(1, 1), Root(1, 2)), (Weight.zero(P11), Weight.zero(P11))):
        with pytest.raises(TypeError):
            a < b
    # equal field values in two classes are not equal records
    assert DimBound(1, 4) != ExtDegreeWindow(1, 4)


def test_post_init_normalises_and_validates():
    assert Weight(P21, [1, 0, -2]).coeffs == (1, 0, -2)
    assert Weight(params=P21, coeffs=[1, 0, -2]) == Weight(P21, (1, 0, -2))
    desc = BlockDescriptor(0, [3, 1, 2], (5, 4), [])
    assert (desc.core_left, desc.core_right, desc.omega) == ((1, 2, 3), (4, 5), ())
    assert ZetaInput(P21, 1, [3]).x == (3,)
    with pytest.raises(ParameterError):
        SuperParams(m=1, n=2)
    with pytest.raises(ParameterError):
        Weight(P21, (0, 0))
