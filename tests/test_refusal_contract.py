"""The refusal contract for int arguments: every public callable with an
``int``-annotated parameter, given a value of another type there, returns or
raises a ``KnotstatError`` subclass within 2 s, and never another exception.

The callables are found by AST over each module's ``__all__`` (functions,
and the ``__init__`` and public methods of classes); ``VALID`` gives every
other argument a valid value, so only the drawn one is out of place.  Then
one case per argument that was found refused with a raw exception, given a
wrong answer, or refused without its name, the text of the str parsers
included.
"""

import ast
import math
import re
import signal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotstat.catalog import KnotRecord, builtin_catalog
from knotstat.crossed import (
    BCNormalForm,
    GroupRingElement,
    HatPiLabel,
    QmodZ,
    RhoContext,
    alpha_n,
    alpha_n_hatpi,
    congruence_inverse,
    hatpi_member,
    idempotent_e,
    idempotent_e_hatpi,
    parse_bc_word,
    sigma_n,
    sigma_n_hatpi,
)
from knotstat.errors import DomainError, KnotstatError, PresentationError
from knotstat.kms import (
    AdelicUnit,
    EigenvalueList,
    Monomial,
    SupportedFunction,
    gibbs_monomial,
    psi_product_state,
    psi_pushforward,
    ratio_witness,
    time_evolution_coefficient,
    toeplitz_eigenlist,
)
from knotstat.knotgroups import (
    Abelianization,
    DeRhamRep,
    LaurentPoly,
    Presentation,
    alexander_from_seifert,
    alexander_poly_fox,
    alexander_roots,
    builtin_presentation,
    derham_solve,
)
from knotstat.partition import (
    SeriesResult,
    ThresholdReport,
    figure_f_grid,
    groth_weight_counts,
    qstar_partition,
    threshold_beta_minus,
    threshold_beta_tilde,
    threshold_report,
    weight_classes,
    z_alternating,
    z_grothendieck,
    z_knots_times_n,
    z_tau,
)
from knotstat.semigroup import (
    GroupElement,
    Knot,
    WeightFunction,
    enumerate_group_elements,
    parse_group_element,
    parse_knot,
)
from knotstat.specfun import distinct_prime_factors, divisors, mobius, mobius_f, restricted_zeta

SRC = Path(__file__).resolve().parent.parent / "src" / "knotstat"


def _int_parameters() -> dict[str, list[str]]:
    """{"module.Callable": [parameter, ...]} for each public callable whose
    parameters include one annotated ``int`` or ``Optional[int]``."""
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("[!_]*.py")):  # the package's own __all__ re-exports
        tree = ast.parse(path.read_text())
        public = next((ast.literal_eval(node.value) for node in tree.body
                       if isinstance(node, ast.Assign)
                       and any(getattr(t, "id", None) == "__all__" for t in node.targets)), [])
        for node in tree.body:
            if getattr(node, "name", None) not in public:
                continue
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                functions = [(f"{node.name}.{m.name}", m) for m in node.body
                             if isinstance(m, ast.FunctionDef)
                             and (m.name == "__init__" or not m.name.startswith("_"))]
            else:
                continue
            for name, function in functions:
                args = function.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                          if a.annotation is not None
                          and ast.unparse(a.annotation) in ("int", "Optional[int]")]
                if params:
                    found[f"{path.stem}.{name}"] = params
    return found


CAT = builtin_catalog()
TREFOIL = builtin_presentation("3_1")
REP = derham_solve(TREFOIL, alexander_roots(alexander_poly_fox(TREFOIL))[0])
G31 = GroupElement.of(Knot.prime("3_1"))
G41 = GroupElement.of(Knot.prime("4_1"))
SUPPORT = SupportedFunction(((G31, Monomial.e(QmodZ.of(1, 2))), (G41, Monomial.mu(2))))
E13 = GroupRingElement.e(QmodZ.of(1, 3))
D13 = GroupRingElement({HatPiLabel(1, QmodZ.of(1, 3)): 1})
STATE = dict(beta=2.0, u=AdelicUnit.one(), w=WeightFunction(), cat=CAT)

# "module.Callable" -> (the callable, a valid value of every argument)
VALID = {
    "catalog.KnotRecord.__init__": (KnotRecord, dict(
        name="3_1", crossing_number=3, genus=1, alternating=True, torus=True,
        alexander_coeffs=(1, -1, 1))),
    "crossed.QmodZ.of": (QmodZ.of, dict(numerator=1, denominator=3)),
    "crossed.QmodZ.scale": (QmodZ.of(1, 3).scale, dict(n=2)),
    "crossed.RhoContext.__init__": (RhoContext, dict(n_rho=3)),
    "crossed.RhoContext.admits": (RhoContext(3).admits, dict(n=2)),
    "crossed.RhoContext.require": (RhoContext(3).require, dict(n=2)),
    "crossed.sigma_n": (sigma_n, dict(x=E13, n=2)),
    "crossed.alpha_n": (alpha_n, dict(x=E13, n=2)),
    "crossed.idempotent_e": (idempotent_e, dict(n=3)),
    "crossed.hatpi_member": (hatpi_member, dict(gamma_exp=1, zeta=QmodZ.of(1, 3),
                                                ctx=RhoContext(3))),
    "crossed.sigma_n_hatpi": (sigma_n_hatpi, dict(x=D13, n=2, ctx=RhoContext(3))),
    "crossed.alpha_n_hatpi": (alpha_n_hatpi, dict(x=D13, n=2, ctx=RhoContext(3))),
    "crossed.idempotent_e_hatpi": (idempotent_e_hatpi, dict(n=2)),
    "crossed.congruence_inverse": (congruence_inverse, dict(n=2, n_rho=5)),
    "crossed.BCNormalForm.__init__": (BCNormalForm, dict(a=1, x=E13, b=1)),
    "kms.EigenvalueList.entries": (EigenvalueList(0.5).entries, dict(n=3)),
    "kms.EigenvalueList.partial_sum": (EigenvalueList(0.5).partial_sum, dict(n=3)),
    "kms.EigenvalueList.tail": (EigenvalueList(0.5).tail, dict(n=3)),
    "kms.toeplitz_eigenlist": (toeplitz_eigenlist, dict(k=Knot.prime("3_1"), beta=2.0, q=2,
                                                        cat=CAT)),
    "kms.gibbs_monomial": (gibbs_monomial, dict(k=Knot.prime("3_1"), a=1, beta=2.0, q=2,
                                                cat=CAT)),
    "kms.AdelicUnit.residue": (AdelicUnit.of({4: 3}).residue, dict(b=4)),
    "kms.Monomial.__init__": (Monomial, dict(kind="mu", n=2, a=1)),
    "kms.Monomial.mu": (Monomial.mu, dict(n=2, a=1)),
    "kms.psi_product_state": (psi_product_state, dict(f=SUPPORT, n_rho=1, **STATE)),
    "kms.psi_pushforward": (psi_pushforward, dict(h=G41, f=SUPPORT, n_rho=1, **STATE)),
    "kms.time_evolution_coefficient": (time_evolution_coefficient, dict(
        h=G41, g=G31, m=2, t=0.5, w=WeightFunction(), cat=CAT)),
    "kms.ratio_witness": (ratio_witness, dict(n=3, big_n=12, beta=1.0, q=2)),
    "knotgroups.LaurentPoly.__init__": (LaurentPoly, dict(coefficients=[1, -1, 1], lowest=-1)),
    "knotgroups.Presentation.__init__": (Presentation, dict(
        generators=("a", "b"), relators=((1, -2),), basepoint=0)),
    "knotgroups.Abelianization.__init__": (Abelianization, dict(free_rank=1, torsion=())),
    "knotgroups.DeRhamRep.__init__": (DeRhamRep, dict(
        presentation=TREFOIL, root=REP.root, sqrt_root=REP.sqrt_root, x_values=REP.x_values,
        residual=REP.residual, kernel_dim=REP.kernel_dim)),
    "knotgroups.DeRhamRep.matrix": (REP.matrix, dict(index=1)),
    "knotgroups.derham_solve": (derham_solve, dict(p=TREFOIL, r=REP.root, branch=1)),
    "partition.SeriesResult.__init__": (SeriesResult, dict(
        value=1.0, terms_used=1, tail_bound=0.0, converged=True)),
    "partition.ThresholdReport.__init__": (ThresholdReport, dict(
        beta_plus=3.0, beta_minus=2.0, beta_tilde_minus=1.0, q=2)),
    "partition.threshold_beta_minus": (threshold_beta_minus, dict(q=2)),
    "partition.threshold_beta_tilde": (threshold_beta_tilde, dict(q=2)),
    "partition.threshold_report": (threshold_report, dict(q=2)),
    "partition.figure_f_grid": (figure_f_grid, dict(q=2.0, n_points=5)),
    "partition.z_alternating": (z_alternating, dict(beta=2.0, q=2, source=CAT, mode="both",
                                                    max_weight=12)),
    "partition.groth_weight_counts": (groth_weight_counts, dict(weights=[4, 5], max_weight=8)),
    "partition.weight_classes": (weight_classes, dict(counts=[1, 0, 0, 0, 2], q=2, scale=10)),
    "partition.z_grothendieck": (z_grothendieck, dict(beta=2.0, q=2, source=CAT,
                                                      max_weight=12)),
    "partition.qstar_partition": (qstar_partition, dict(beta=2.0, n_max=100, mode="both")),
    "partition.z_knots_times_n": (z_knots_times_n, dict(beta=2.0, q=2, source=CAT)),
    "partition.z_tau": (z_tau, dict(beta=2.0, f_values={1: 1, 1024: 2}, n_rho=3)),
    "semigroup.WeightFunction.__init__": (WeightFunction, dict(q=2, exponent_scale=10)),
    "semigroup.enumerate_group_elements": (enumerate_group_elements, dict(cat=CAT,
                                                                          max_weight=8)),
    "specfun.distinct_prime_factors": (distinct_prime_factors, dict(n=12)),
    "specfun.mobius": (mobius, dict(n=12)),
    "specfun.divisors": (divisors, dict(n=12)),
    "specfun.restricted_zeta": (restricted_zeta, dict(s=2.0, m=6)),
    "specfun.mobius_f": (mobius_f, dict(k=1, b=12)),
}

INT_PARAMETERS = _int_parameters()
CASES = [(name, param) for name, params in INT_PARAMETERS.items() for param in params]

# values of the wrong type for an int argument
NOT_INTS = st.one_of(
    st.sampled_from([2.5, 3.0, -0.0, math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.sampled_from(["3", Fraction(3, 1), None]),
)


def _expire(signum, frame):
    raise TimeoutError("no answer within 2 s")


def test_inventory_matches_the_table():
    """Every public callable with an int parameter has a row of valid values,
    and every row is such a callable."""
    assert set(INT_PARAMETERS) == set(VALID)
    for name, params in INT_PARAMETERS.items():
        assert set(params) <= set(VALID[name][1]), name


def test_valid_values_are_answered():
    for name, (call, kwargs) in VALID.items():
        call(**kwargs)


@pytest.mark.parametrize("name, param", CASES, ids=[f"{n}-{p}" for n, p in CASES])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(value=NOT_INTS)
def test_non_int_answered_or_refused(name, param, value):
    call, kwargs = VALID[name]
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(2)
    try:
        call(**{**kwargs, param: value})
    except KnotstatError:
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- one case per argument found refused with a raw exception, given a wrong
# answer, or refused without its name ----------------------------------------

RT = Knot.prime("3_1")
LIBRARY_REFUSALS = [
    # raised TypeError, IndexError, ValueError, AttributeError or ZeroDivisionError
    ("z-alt-direct", lambda: z_alternating(2.0, 2, CAT, mode="direct", max_weight=2.5),
     DomainError, "max_weight must be an int, got float 2.5"),
    ("z-alt-both", lambda: z_alternating(2.0, 2, CAT, mode="both", max_weight="3"),
     DomainError, "max_weight must be an int, got str '3'"),
    ("z-groth", lambda: z_grothendieck(2.0, 2, CAT, max_weight=2.5),
     DomainError, "max_weight must be an int, got float 2.5"),
    ("groth-counts", lambda: groth_weight_counts([4, 5], "3"),
     DomainError, "max_weight must be an int, got str '3'"),
    ("enumerate", lambda: enumerate_group_elements(CAT, 2.5),
     DomainError, "max_weight must be an int, got float 2.5"),
    ("figure-f-grid", lambda: figure_f_grid(2, n_points=2.5),
     DomainError, "figure_f_grid needs an int n_points, got float 2.5"),
    ("laurent-lowest", lambda: LaurentPoly([1], lowest=0.5),
     PresentationError, "LaurentPoly lowest must be an int, got float 0.5"),
    ("derham-matrix", lambda: REP.matrix(1.5),
     PresentationError, "generator index must be an int, got float 1.5"),
    ("derham-matrix-range", lambda: REP.matrix(7),
     PresentationError, "generator index 7 out of range"),
    ("basepoint", lambda: Presentation(("a", "b"), ((1, -2),), basepoint=0.5),
     PresentationError, "basepoint index must be an int, got float 0.5"),
    ("qmodz-parse", lambda: QmodZ.parse("1/x"),
     DomainError, "QmodZ text must be 'a/b' or an integer, got '1/x'"),
    ("qmodz-of", lambda: QmodZ.of(1, 0), DomainError, "zero denominator in QmodZ.of(1, 0)"),
    ("qmodz-parse-str", lambda: QmodZ.parse(5), DomainError, "QmodZ text must be a str, got int 5"),
    ("bc-word-str", lambda: parse_bc_word([5]), DomainError, "bc word tokens must be str, got int 5"),
    ("parse-knot", lambda: parse_knot(5), DomainError, "knot expression must be a str, got int 5"),
    ("parse-element", lambda: parse_group_element(5),
     DomainError, "group element expression must be a str, got int 5"),
    ("thresholds", lambda: threshold_report("2"),
     DomainError, "threshold_beta_minus requires an int q, got str '2'"),
    ("ratio-witness-q", lambda: ratio_witness(3, 12, 1.0, 1), DomainError, "q must be >= 2, got 1"),
    ("seifert-str", lambda: alexander_from_seifert([[1, "a"], [0, 1]]),
     PresentationError, "Seifert matrix entries must be ints, got str 'a'"),
    ("restricted-zeta-str", lambda: restricted_zeta(2.0, "3"),
     DomainError, "restricted_zeta needs an int m, got str '3'"),
    ("bc-normal-form", lambda: BCNormalForm(2, E13, 2),
     DomainError, "normal form requires gcd(a, b) = 1"),
    # returned a value
    ("seifert-float", lambda: alexander_from_seifert([[1.5]]),
     PresentationError, "Seifert matrix entries must be ints, got float 1.5"),
    ("scale-float", lambda: WeightFunction(exponent_scale=2.5),
     DomainError, "exponent scale must be an int, got float 2.5"),
    ("scale-nan", lambda: WeightFunction(exponent_scale=math.nan),
     DomainError, "exponent scale must be an int, got float nan"),
    ("scale-bool", lambda: WeightFunction(exponent_scale=True),
     DomainError, "exponent scale must be an int, got bool True"),
    ("weight-classes", lambda: weight_classes([1, 0, 0, 0, 2], 2, 2.5),
     DomainError, "exponent scale must be an int, got float 2.5"),
    ("knot-float", lambda: Knot((("3_1", 1.5),)),
     DomainError, "factor multiplicity of 3_1 must be an int, got float 1.5"),
    ("knot-bool", lambda: Knot((("3_1", True),)),
     DomainError, "factor multiplicity of 3_1 must be an int, got bool True"),
    ("gibbs-a", lambda: gibbs_monomial(RT, 1.5, 2.0, 2, CAT),
     DomainError, "monomial power a must be an int, got float 1.5"),
    ("time-evolution-m", lambda: time_evolution_coefficient(G41, G31, 2.5, 0.5, WeightFunction(), CAT),
     DomainError, "semigroup index m must be an int, got float 2.5"),
    ("adelic-residue", lambda: AdelicUnit.one().residue(2.5),
     DomainError, "modulus must be an int, got float 2.5"),
    ("eigenvalue-entries", lambda: EigenvalueList(0.5).entries(2.5),
     DomainError, "eigenvalue index must be an int, got float 2.5"),
    ("series-nan-tail", lambda: SeriesResult(1.0, 1, math.nan, True),
     DomainError, "tail_bound must be nonnegative"),
    ("derham-branch-bool", lambda: derham_solve(TREFOIL, REP.root, branch=True),
     PresentationError, "branch must be +1 or -1, got bool True"),
    ("series-terms-str", lambda: SeriesResult(1.0, "3", 0.0, True),
     DomainError, "terms_used must be an int, got str '3'"),
    ("threshold-q-str", lambda: ThresholdReport(3.0, 2.0, 1.0, q="2"),
     DomainError, "ThresholdReport q must be an int, got str '2'"),
    ("abelianization-str", lambda: Abelianization("3", ()),
     PresentationError, "free_rank must be an int, got str '3'"),
    ("abelianization-torsion", lambda: Abelianization(1, (2.0,)),
     PresentationError, "torsion divisors must be ints, got float 2.0"),
    ("abelianization-torsion-list", lambda: Abelianization(1, [2]),
     PresentationError, "torsion must be a tuple of ints, got list [2]"),
    ("z-alt-source-str", lambda: z_alternating(2.0, 2, "cat"), DomainError,
     "z_alternating needs a Catalog or MultiplicityModel source, got str 'cat'"),
    ("z-alt-source-none", lambda: z_alternating(2.0, 2, None, mode="direct"), DomainError,
     "z_alternating needs a Catalog or MultiplicityModel source, got NoneType None"),
    ("z-groth-source", lambda: z_grothendieck(2.0, 2, 3), DomainError,
     "z_grothendieck needs a Catalog or MultiplicityModel source, got int 3"),
    ("z-knots-n-source", lambda: z_knots_times_n(2.0, 2, "cat"), DomainError,
     "z_knots_times_n needs a Catalog or MultiplicityModel source, got str 'cat'"),
    # refused without the argument's name
    ("z-tau-n-rho", lambda: z_tau(2.0, [1], n_rho=1.5),
     DomainError, "n_rho must be an int, got float 1.5"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in LIBRARY_REFUSALS],
                         ids=[case[0] for case in LIBRARY_REFUSALS])
def test_refused_by_name(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
