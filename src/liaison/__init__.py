"""liaison: exact computational commutative algebra for linkage of ideals.

Groebner bases over the rationals or GF(p), ideal algebra (intersection,
colon, saturation, elimination, Hilbert data), local invariants at rational
points (length, socle, Gorenstein, local minimal generators), linked-triple
verification, and the classification of pairs of double lines in P^3 that
are locally algebraically linked, cross-checked by a geometric oracle.
"""

from .rings import (
    GREVLEX,
    LEX,
    MonomialOrder,
    PrimeField,
    QQ,
    RationalField,
    RingContext,
    make_ring,
    monomial_compare,
)
from .polynomials import Polynomial, substitute
from .groebner import (
    GroebnerBasis,
    buchberger,
    divide,
    normal_form,
)
from .ideals import (
    HilbertData,
    Ideal,
    eliminate,
    hilbert_data,
    ideal_colon,
    ideal_equal,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    saturate,
    standard_monomials,
)
from .localrings import (
    LocalPointReport,
    RationalPoint,
    artinian_reduce,
    local_ci_test,
    local_gorenstein,
    local_mu,
    translate_to_origin,
)
from .linkage import (
    LinkedTriple,
    doubling_check,
    link,
    regular_element_transfer_test,
    socle_lemma_test,
    verify_linked_triple,
)
from .doublelines import (
    ClassificationDiscrepancy,
    ClassificationVerdict,
    DoubleLine,
    classify,
    classify_meeting_pair,
    classify_same_support_pair,
    double_line_ideal,
    oracle_lal,
)
from .sessions import ParseError, Session, parse_polynomial, parse_session

__all__ = [
    "GREVLEX",
    "LEX",
    "MonomialOrder",
    "PrimeField",
    "QQ",
    "RationalField",
    "RingContext",
    "make_ring",
    "monomial_compare",
    "Polynomial",
    "substitute",
    "GroebnerBasis",
    "buchberger",
    "divide",
    "normal_form",
    "HilbertData",
    "Ideal",
    "eliminate",
    "hilbert_data",
    "ideal_colon",
    "ideal_equal",
    "ideal_intersect",
    "ideal_product",
    "ideal_sum",
    "saturate",
    "standard_monomials",
    "LocalPointReport",
    "RationalPoint",
    "artinian_reduce",
    "local_ci_test",
    "local_gorenstein",
    "local_mu",
    "translate_to_origin",
    "LinkedTriple",
    "doubling_check",
    "link",
    "regular_element_transfer_test",
    "socle_lemma_test",
    "verify_linked_triple",
    "ClassificationDiscrepancy",
    "ClassificationVerdict",
    "DoubleLine",
    "classify",
    "classify_meeting_pair",
    "classify_same_support_pair",
    "double_line_ideal",
    "oracle_lal",
    "ParseError",
    "Session",
    "parse_polynomial",
    "parse_session",
]

__version__ = "0.1.0"
