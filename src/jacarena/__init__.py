"""Exact engine for budgeted Prover-Delayer radical-certification games."""

from .algebra import (
    GF,
    QQ,
    ZZ,
    CoefficientRing,
    MonomialOrder,
    Polynomial,
)
from .errors import EngineError
from .ideals import GroebnerBasis, NilCertificate, groebner
from .parsing import parse_polynomial, parse_ring
from .rings import (
    IntegralRelation,
    MonogenicExtension,
    RingElement,
    RingPresentation,
    integral_dependence,
    key_elementary_transfer,
    loc_key_clear,
    member_in,
    minimal_polynomial,
    nil_exponent_search,
    nil_member,
    zero_dim_witness,
)

from .game import (
    GamePosition,
    Transcript,
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
    CutStrategy,
    DiagonalRefuterPoly,
    DiagonalRefuterZ,
    EchoDelayer,
    EuclideanDim1Strategy,
    FixedMovesProver,
    JacWitnessDelayer,
    PolyLiftStrategy,
    RandomDelayer,
    ZeroDimStrategy,
    loc_integral_strategy,
    quotient_push,
    ring_strategy_factory,
)

__version__ = "0.1.0"
