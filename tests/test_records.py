"""The frozen value records keep the behaviour of frozen dataclasses.

Each record class is checked for ``==`` over its compared fields only,
``hash`` equal to the hash of the tuple of those fields (so set and dict
iteration order matches a dataclass), the dataclass ``repr`` text,
refused assignment and deletion, and ``copy``/``pickle`` round trips;
``QmodZ`` also keeps its ordering.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from knotstat.catalog import Catalog, KnotRecord, MultiplicityModel
from knotstat.crossed import BCNormalForm, GroupRingElement, QmodZ, RhoContext
from knotstat.knotgroups import (
    Abelianization,
    DeRhamRep,
    DirectSumRep,
    Presentation,
    unknot_presentation,
)
from knotstat.kms import AdelicUnit, EigenvalueList, Monomial, SupportedFunction
from knotstat.partition import SeriesResult, ThresholdReport
from knotstat.semigroup import (
    GroupElement,
    Knot,
    WeightFunction,
    _group_element,
    _knot,
)

REC = KnotRecord("3_1", 3, 1, True, True, (1, -1, 1))
REC_TEXT = (
    "KnotRecord(name='3_1', crossing_number=3, genus=1, alternating=True, "
    "torus=True, alexander_coeffs=(1, -1, 1), wirtinger=None)"
)

UNKNOT = unknot_presentation()
UNKNOT_TEXT = "Presentation(generators=('a',), relators=(), basepoint=0, blocks=())"
REP = DeRhamRep(UNKNOT, 1j, 0.5 + 0.5j, (0j,), 0.0, 1)
REP_TEXT = (
    f"DeRhamRep(presentation={UNKNOT_TEXT}, root=1j, sqrt_root=(0.5+0.5j), "
    "x_values=(0j,), residual=0.0, kernel_dim=1)"
)

# (record, an equal one built separately, an unequal one, compared fields, repr)
CASES = [
    (REC, KnotRecord("3_1", 3, 1, True, True, (1, -1, 1)),
     KnotRecord("3_1", 3, 1, True, False, (1, -1, 1)),
     ("3_1", 3, 1, True, True, (1, -1, 1), None), REC_TEXT),
    (Catalog((REC,)), Catalog(records=(REC,)), Catalog(()), ((REC,),),
     f"Catalog(records=({REC_TEXT},), index={{'3_1': {REC_TEXT}}}, weights={{'3_1': 4}})"),
    (MultiplicityModel(C=400.0), MultiplicityModel("asymptotic", 400.0, 64, 10_000),
     MultiplicityModel(), ("asymptotic", 400.0, 64, 10_000),
     "MultiplicityModel(mode='asymptotic', C=400.0, g_max=64, n_max=10000)"),
    (SeriesResult(1.5, 3, 0.25, True, details={"x": 1}), SeriesResult(1.5, 3, 0.25, True),
     SeriesResult(1.5, 3, 0.25, False), (1.5, 3, 0.25, True, "converged"),
     "SeriesResult(value=1.5, terms_used=3, tail_bound=0.25, converged=True, "
     "status='converged', details={'x': 1})"),
    (ThresholdReport(3.0, 2.0, 1.0, 2), ThresholdReport(3.0, 2.0, 1.0, q=2),
     ThresholdReport(3.0, 2.0, 1.0, 3), (3.0, 2.0, 1.0, 2),
     "ThresholdReport(beta_plus=3.0, beta_minus=2.0, beta_tilde_minus=1.0, q=2)"),
    (QmodZ(Fraction(7, 3)), QmodZ.of(1, 3), QmodZ.of(2, 3), (Fraction(1, 3),),
     "QmodZ(frac=Fraction(1, 3))"),
    (RhoContext(4), RhoContext(n_rho=4), RhoContext(5), (4,), "RhoContext(n_rho=4)"),
    (BCNormalForm(2, GroupRingElement.e(QmodZ.of(1, 3)), 3),
     BCNormalForm(2, GroupRingElement.e(QmodZ.of(4, 3)), 3),
     BCNormalForm(2, GroupRingElement.e(QmodZ.of(2, 3)), 3),
     (2, GroupRingElement.e(QmodZ.of(1, 3)), 3), "BCNormalForm(a=2, x=1*e(1/3), b=3)"),
    (Knot((("4_1", 2), ("3_1", 1))), _knot((("3_1", 1), ("4_1", 2))), Knot.prime("4_1", 2),
     ((("3_1", 1), ("4_1", 2)),), "Knot(factors=(('3_1', 1), ('4_1', 2)))"),
    (GroupElement(Knot.prime("3_1", 2), Knot.prime("3_1")),
     _group_element(Knot.prime("3_1"), Knot.unknot()),
     GroupElement(Knot.unknot(), Knot.prime("3_1")),
     (Knot.prime("3_1"), Knot.unknot()),
     "GroupElement(positive=Knot(factors=(('3_1', 1),)), negative=Knot(factors=()))"),
    (WeightFunction(q=3), WeightFunction(3, 10), WeightFunction(3, 11), (3, 10),
     "WeightFunction(q=3, exponent_scale=10)"),
    (EigenvalueList(0.75, 0.25), EigenvalueList(lambda1=0.75, generator_ratio=0.25),
     EigenvalueList(0.5, 0.5), (0.75, 0.25),
     "EigenvalueList(lambda1=0.75, generator_ratio=0.25)"),
    (AdelicUnit(((4, 7),)), AdelicUnit.of({4: 3}), AdelicUnit.one(), (((4, 3),),),
     "AdelicUnit(residues=((4, 3),))"),
    (Monomial.e(QmodZ.of(1, 2)), Monomial("e", QmodZ.of(3, 2)), Monomial.mu(2),
     ("e", QmodZ.of(1, 2), 1, 1),
     "Monomial(kind='e', r=QmodZ(frac=Fraction(1, 2)), n=1, a=1)"),
    (SupportedFunction(((GroupElement.identity(), Monomial.mu(2)),)),
     SupportedFunction.of({GroupElement.identity(): Monomial("mu", n=2)}),
     SupportedFunction(()), (((GroupElement.identity(), Monomial.mu(2)),),),
     "SupportedFunction(entries=((GroupElement(positive=Knot(factors=()), "
     "negative=Knot(factors=())), Monomial(kind='mu', r=None, n=2, a=1)),))"),
    (Presentation(("a", "b"), ((1, 2, -2, -1, 2),), 1, ((0,),)),
     Presentation(generators=("a", "b"), relators=((2,),), basepoint=1, blocks=((0,),)),
     Presentation(("a", "b"), ((2,),), 1), (("a", "b"), ((2,),), 1, ((0,),)),
     "Presentation(generators=('a', 'b'), relators=((2,),), basepoint=1, blocks=((0,),))"),
    (Abelianization(1, (2, 3)), Abelianization(free_rank=1, torsion=(2, 3)),
     Abelianization(1, ()), (1, (2, 3)), "Abelianization(free_rank=1, torsion=(2, 3))"),
    (REP, DeRhamRep(presentation=unknot_presentation(), root=1j, sqrt_root=0.5 + 0.5j,
                    x_values=(0j,), residual=0.0, kernel_dim=1),
     DeRhamRep(UNKNOT, 1j, -0.5 - 0.5j, (0j,), 0.0, 1),
     (UNKNOT, 1j, 0.5 + 0.5j, (0j,), 0.0, 1), REP_TEXT),
    (DirectSumRep(UNKNOT, REP, REP, 1e-12),
     DirectSumRep(presentation=UNKNOT, rep1=REP, rep2=REP, residual=1e-12),
     DirectSumRep(UNKNOT, REP, REP, 0.0), (UNKNOT, REP, REP, 1e-12),
     f"DirectSumRep(presentation={UNKNOT_TEXT}, rep1={REP_TEXT}, rep2={REP_TEXT}, "
     "residual=1e-12)"),
]
IDS = [type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("record, same, other, fields, text", CASES, ids=IDS)
class TestRecordSemantics:
    def test_equality(self, record, same, other, fields, text):
        assert record == same and not record != same
        assert record != other and not record == other
        assert record != fields  # another class never compares equal

    def test_hash_is_field_tuple_hash(self, record, same, other, fields, text):
        assert hash(record) == hash(fields) == hash(same)
        assert len({record, same, other}) == 2

    def test_repr(self, record, same, other, fields, text):
        assert repr(record) == text

    def test_frozen(self, record, same, other, fields, text):
        name = text.split("(", 1)[1].split("=", 1)[0]  # the first field
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            record.extra = 1
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert repr(record) == text

    def test_copy_and_pickle(self, record, same, other, fields, text):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record)
            assert clone == record and hash(clone) == hash(record)
            assert repr(clone) == text


def test_uncompared_fields():
    # Catalog.index and SeriesResult.details take no part in == or hash
    a, b = SeriesResult(1.0, 1, 0.0, True, details={"a": 1}), SeriesResult(1.0, 1, 0.0, True)
    assert a == b and hash(a) == hash(b) and b.details == {}
    assert SeriesResult(1.0, 1, 0.0, True).details is not b.details
    cat = Catalog((REC,), index={})
    assert cat.index == {"3_1": REC} and cat == Catalog((REC,))


def test_qmodz_order():
    labels = [QmodZ.of(k, 7) for k in (5, 0, 3, 6, 1)]
    assert [str(r) for r in sorted(labels)] == ["0/1", "1/7", "3/7", "5/7", "6/7"]
    a, b = QmodZ.of(1, 3), QmodZ.of(1, 2)
    assert a < b and a <= b and b > a and b >= a and a <= QmodZ.of(4, 3)
    assert not (a > b or a >= b or b < a or b <= a)
    with pytest.raises(TypeError):
        a < Fraction(1, 2)  # noqa: B015
    assert max(labels) == QmodZ.of(6, 7)


def test_constructor_validation_kept():
    with pytest.raises(ValueError, match="gcd"):
        BCNormalForm(2, GroupRingElement.one(), 4)
    with pytest.raises(ValueError, match="repeated factor"):
        Knot((("3_1", 1), ("3_1", 2)))
    with pytest.raises(ValueError, match="tail_bound"):
        SeriesResult(1.0, 1, -1.0, True)
    with pytest.raises(ValueError, match="ordering"):
        ThresholdReport(1.0, 2.0, 3.0, 2)
    with pytest.raises(ValueError, match="n_rho"):
        RhoContext(0)
    with pytest.raises(ValueError, match="out of range for 1 generators"):
        Presentation(("a",), ((1, 2),))
    with pytest.raises(ValueError, match="invalid block structure"):
        Presentation(("a",), ((1, -1),), blocks=((1,),))
