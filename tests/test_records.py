"""The frozen value records keep the behaviour of frozen dataclasses.

Each record class is checked for ``==`` over its compared fields only,
``hash`` equal to the hash of the tuple of those fields (so set and dict
iteration order matches a dataclass), the dataclass ``repr`` text,
refused assignment and deletion, and ``copy``/``pickle`` round trips.
A refusal table lists what each record checks on construction: the input,
the error type and the error text.
"""

import copy
import pickle
import re
import time
from fractions import Fraction

import pytest

from knotstat.catalog import DEFAULT_C, LOWER_C, Catalog, KnotRecord, MultiplicityModel
from knotstat.crossed import BCNormalForm, GroupRingElement, QmodZ, RhoContext
from knotstat.knotgroups import (
    Abelianization,
    DeRhamRep,
    DirectSumRep,
    Presentation,
    unknot_presentation,
)
from knotstat.errors import CatalogError, DomainError, PresentationError
from knotstat.kms import AdelicUnit, EigenvalueList, Monomial, SupportedFunction
from knotstat.partition import SeriesResult, ThresholdReport, z_alternating
from knotstat.semigroup import (
    GroupElement,
    Knot,
    WeightFunction,
    _group_element,
    _knot,
    enumerate_knots,
)

REC = KnotRecord("3_1", 3, 1, True, True, (1, -1, 1))
REC_TEXT = (
    "KnotRecord(name='3_1', crossing_number=3, genus=1, alternating=True, "
    "torus=True, alexander_coeffs=(1, -1, 1))"
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
     ("3_1", 3, 1, True, True, (1, -1, 1)), REC_TEXT),
    (Catalog((REC,)), Catalog(records=(REC,)), Catalog(()), ((REC,),),
     f"Catalog(records=({REC_TEXT},), index={{'3_1': {REC_TEXT}}}, weights={{'3_1': 4}})"),
    (MultiplicityModel(C=400.0), MultiplicityModel(400.0), MultiplicityModel(), (400.0,),
     "MultiplicityModel(C=400.0)"),
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
    (Knot((("4_1", 2), ("3_1", 1))), _knot((("3_1", 1), ("4_1", 2))), Knot((("4_1", 2),)),
     ((("3_1", 1), ("4_1", 2)),), "Knot(factors=(('3_1', 1), ('4_1', 2)))"),
    (GroupElement(Knot((("3_1", 2),)), Knot.prime("3_1")),
     _group_element(Knot.prime("3_1"), Knot.unknot()),
     GroupElement(Knot.unknot(), Knot.prime("3_1")),
     (Knot.prime("3_1"), Knot.unknot()),
     "GroupElement(positive=Knot(factors=(('3_1', 1),)), negative=Knot(factors=()))"),
    (WeightFunction(q=3), WeightFunction(3, 10), WeightFunction(3, 11), (3, 10),
     "WeightFunction(q=3, exponent_scale=10)"),
    (EigenvalueList(0.25), EigenvalueList(generator_ratio=0.25), EigenvalueList(0.5), (0.25,),
     "EigenvalueList(generator_ratio=0.25)"),
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
    # SeriesResult.details and the derived Catalog tables take no part in == or hash
    a, b = SeriesResult(1.0, 1, 0.0, True, details={"a": 1}), SeriesResult(1.0, 1, 0.0, True)
    assert a == b and hash(a) == hash(b) and b.details == {}
    assert SeriesResult(1.0, 1, 0.0, True).details is not b.details
    cat = Catalog((REC,))
    assert cat.index == {"3_1": REC} and cat.weights == {"3_1": 4}
    assert hash(cat) == hash(((REC,),))


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


NAN = float("nan")
BAD_C = f"asymptotic constant C must lie in [{LOWER_C}, {DEFAULT_C}], got "

# (id, call, error type, error text): every check a record makes on
# construction, so a bad value is refused where it is built, by name.
REFUSALS = [
    ("record-crossings", lambda: KnotRecord("x", 2, 1, True, False, (1, -1, 1)),
     CatalogError, "record x: prime knots need crossing number >= 3, got 2"),
    ("record-genus", lambda: KnotRecord("x", 3, 0, True, False, (1, -1, 1)),
     CatalogError, "record x: prime knots need genus >= 1, got 0"),
    ("record-empty-alexander", lambda: KnotRecord("x", 3, 1, True, False, ()),
     CatalogError, "record x: empty Alexander coefficients"),
    ("record-alexander-at-1", lambda: KnotRecord("x", 3, 1, True, False, (1, 1, 1)),
     CatalogError, "record x: Alexander polynomial must evaluate to +-1 at t=1, got 3"),
    ("record-palindromic", lambda: KnotRecord("x", 3, 1, True, False, (2, -1, 0)),
     CatalogError, "record x: Alexander coefficients must be palindromic, got [2, -1, 0]"),
    # a weight-0 prime made the enumeration loop for ever
    ("weight-0-enumeration",
     lambda: enumerate_knots(Catalog((KnotRecord("x", 0, 0, True, False, (1,)),)), 5),
     CatalogError, "record x: prime knots need crossing number >= 3, got 0"),
    # a NaN crossing number passed every value check and z_alternating then
    # dropped the prime with converged=True; 3.5 was a raw TypeError later
    ("record-crossings-nan",
     lambda: z_alternating(2.0, 2, Catalog((KnotRecord("x", NAN, 1, True, False, (1, -1, 1)),))),
     CatalogError, "record x: crossing number must be an int, got float nan"),
    ("record-crossings-float",
     lambda: enumerate_knots(Catalog((KnotRecord("x", 3.5, 1, True, False, (1, -1, 1)),)), 5),
     CatalogError, "record x: crossing number must be an int, got float 3.5"),
    ("record-genus-bool", lambda: KnotRecord("x", 3, True, True, False, (1, -1, 1)),
     CatalogError, "record x: genus must be an int, got bool True"),
    ("record-alexander-float", lambda: KnotRecord("x", 3, 1, True, False, (1.0, -1.0, 1.0)),
     CatalogError, "record x: Alexander coefficient must be an int, got float 1.0"),
    ("catalog-duplicate", lambda: Catalog((REC, REC)),
     CatalogError, "duplicate record name 3_1"),
    ("model-C-huge", lambda: z_alternating(12.0, 2, MultiplicityModel(C=1e9)),
     CatalogError, BAD_C + "1000000000.0"),
    ("model-C-negative", lambda: z_alternating(12.0, 2, MultiplicityModel(C=-5.0)),
     CatalogError, BAD_C + "-5.0"),
    ("model-C-nan", lambda: MultiplicityModel(C=NAN), CatalogError, BAD_C + "nan"),
    # the old positional form bound its mode string to C: a raw TypeError
    ("model-C-str", lambda: MultiplicityModel("asymptotic"), CatalogError,
     "asymptotic constant C must be a real number, got str 'asymptotic'"),
    ("model-C-none", lambda: MultiplicityModel(None), CatalogError,
     "asymptotic constant C must be a real number, got NoneType None"),
    ("model-C-complex", lambda: MultiplicityModel(1j), CatalogError,
     "asymptotic constant C must be a real number, got complex 1j"),
    ("model-C-bool", lambda: MultiplicityModel(True), CatalogError,
     "asymptotic constant C must be a real number, got bool True"),
    # the removed settings are no longer keywords at all
    ("model-mode-exact", lambda: MultiplicityModel(mode="exact", C=1e9),
     TypeError, "unexpected keyword argument 'mode'"),
    ("model-mode-bogus", lambda: MultiplicityModel(mode="bogus", C=-5.0),
     TypeError, "unexpected keyword argument 'mode'"),
    ("model-g-max", lambda: MultiplicityModel(g_max=0),
     TypeError, "unexpected keyword argument 'g_max'"),
    ("catalog-index", lambda: Catalog((REC,), index={}),
     TypeError, "unexpected keyword argument 'index'"),
    ("record-wirtinger", lambda: KnotRecord("3_1", 3, 1, True, True, (1, -1, 1), wirtinger=""),
     TypeError, "unexpected keyword argument 'wirtinger'"),
    ("eigenvalues-lambda1", lambda: EigenvalueList(lambda1=0.3, generator_ratio=0.25),
     TypeError, "unexpected keyword argument 'lambda1'"),
    ("eigenvalues-ratio-0", lambda: EigenvalueList(0.0),
     DomainError, "generator ratio must lie in (0,1), got 0.0"),
    ("eigenvalues-ratio-1", lambda: EigenvalueList(1.0),
     DomainError, "generator ratio must lie in (0,1), got 1.0"),
    ("eigenvalues-ratio-nan", lambda: EigenvalueList(NAN),
     DomainError, "generator ratio must lie in (0,1), got nan"),
    ("qmodz-float", lambda: QmodZ(0.5),
     DomainError, "QmodZ frac must be an int or a Fraction, got float 0.5"),
    ("qmodz-str", lambda: QmodZ("1/2"),
     DomainError, "QmodZ frac must be an int or a Fraction, got str '1/2'"),
    ("rho-context", lambda: RhoContext(0), DomainError, "n_rho must be >= 1, got 0"),
    ("bc-normal-form", lambda: BCNormalForm(2, GroupRingElement.one(), 4),
     ValueError, "normal form requires gcd(a, b) = 1"),
    ("series-result", lambda: SeriesResult(1.0, 1, -1.0, True),
     DomainError, "tail_bound must be nonnegative"),
    ("threshold-report", lambda: ThresholdReport(1.0, 2.0, 3.0, 2), DomainError,
     "threshold ordering beta_tilde_minus < beta_minus < beta_plus violated: 3.0, 2.0, 1.0"),
    ("knot-multiplicity", lambda: Knot((("3_1", 0),)),
     DomainError, "factor multiplicity must be >= 1, got 3_1:0"),
    ("knot-repeated", lambda: Knot((("3_1", 1), ("3_1", 2))),
     DomainError, "repeated factor name '3_1'"),
    ("weight-q-float", lambda: WeightFunction(2.0),
     DomainError, "weight base q must be an integer, got 2.0"),
    ("weight-q-small", lambda: WeightFunction(1),
     DomainError, "weight base q must be >= 2, got 1"),
    ("weight-scale", lambda: WeightFunction(2, 0),
     DomainError, "exponent scale must be >= 1, got 0"),
    ("adelic-modulus", lambda: AdelicUnit(((0, 1),)), DomainError, "modulus must be >= 1, got 0"),
    ("adelic-duplicate", lambda: AdelicUnit(((4, 1), (4, 3))),
     DomainError, "duplicate modulus 4"),
    ("adelic-unit", lambda: AdelicUnit(((4, 2),)),
     DomainError, "residue 2 is not a unit modulo 4"),
    ("adelic-compatible", lambda: AdelicUnit(((4, 1), (8, 3))),
     DomainError, "incompatible residues: u_4=1, u_8=3 differ modulo 4"),
    ("monomial-kind", lambda: Monomial("x"),
     DomainError, "monomial kind must be 'e' or 'mu', got 'x'"),
    ("monomial-e", lambda: Monomial("e"), DomainError, "e-monomials need a label r"),
    ("monomial-mu", lambda: Monomial("mu", n=0),
     DomainError, "mu-monomials need n >= 1 and a >= 0"),
    ("supported-duplicate",
     lambda: SupportedFunction(((GroupElement.identity(), Monomial.mu(2)),
                                (GroupElement.identity(), Monomial.mu(3)))),
     DomainError, "duplicate group element in support"),
    ("presentation-empty", lambda: Presentation((), ()),
     PresentationError, "a presentation needs at least one generator"),
    ("presentation-duplicate", lambda: Presentation(("a", "a"), ()),
     PresentationError, "duplicate generator names"),
    ("presentation-basepoint", lambda: Presentation(("a",), (), 1),
     PresentationError, "basepoint index 1 out of range"),
    ("presentation-letter", lambda: Presentation(("a",), ((1, 2),)),
     PresentationError, "letter 2 out of range for 1 generators"),
    ("presentation-blocks", lambda: Presentation(("a",), ((1, -1),), blocks=((1,),)),
     PresentationError, "invalid block structure"),
]


@pytest.mark.parametrize("call, error, text", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refused_on_construction(call, error, text):
    start = time.perf_counter()
    with pytest.raises(error, match=re.escape(text) + "$"):
        call()
    assert time.perf_counter() - start < 1.0


def test_changed_records_keep_only_independent_fields():
    assert KnotRecord.__slots__ == ("name", "crossing_number", "genus", "alternating",
                                    "torus", "alexander_coeffs")
    assert not hasattr(REC, "validate")
    assert Catalog._compare == ("records",)
    assert MultiplicityModel.__slots__ == ("C",) and MultiplicityModel().C == DEFAULT_C
    assert EigenvalueList.__slots__ == ("generator_ratio",)
    assert EigenvalueList(0.25).lambda1 == 1.0 - 0.25
    assert QmodZ(7).frac == 0 and QmodZ(Fraction(-1, 3)).frac == Fraction(2, 3)
