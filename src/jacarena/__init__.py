"""Exact engine for budgeted Prover-Delayer radical-certification games."""

from .algebra import (
    GF,
    QQ,
    ZZ,
    CoefficientRing,
    Monomial,
    MonomialOrder,
    Polynomial,
)
from .errors import EngineError
from .ideals import GroebnerBasis, NilCertificate, groebner, ideal_member, radical_combine
from .parsing import parse_polynomial, parse_ring
from .rings import (
    IntegralRelation,
    MonogenicExtension,
    RingElement,
    RingPresentation,
    UnitDecomposition,
    integral_dependence,
    invert_in_integral_quotient,
    key_elementary_transfer,
    loc_key_clear,
    member_in,
    minimal_polynomial,
    nil_exponent_search,
    nil_member,
    unit_poly_decompose,
    zero_dim_witness,
)

from .game import (
    GamePosition,
    Transcript,
    extract_nil_from_jac,
    referee_play,
    verify_transcript,
)
from .oracle import (
    FiniteRingTable,
    brute_jac,
    brute_nil,
    enumerate_finite,
    minimal_alpha,
    minimal_alpha_ring,
)
from .strategies import (
    ConstantDelayer,
    DiagonalRefuterPoly,
    DiagonalRefuterZ,
    EchoDelayer,
    FixedMovesProver,
    JacWitnessDelayer,
    RandomDelayer,
    ScriptedDelayer,
    cut_combinator,
    delayer_jac_witness,
    delayer_random,
    diagonal_refuter_poly,
    diagonal_refuter_Z,
    euclidean_dim1_strategy,
    loc_integral_strategy,
    poly_lift_strategy,
    quotient_push,
    ring_strategy_factory,
    scale_combinator,
    zero_dim_strategy,
)

__version__ = "0.1.0"
