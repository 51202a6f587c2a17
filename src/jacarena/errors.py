"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class IncompatibleRings(EngineError):
    """Operands belong to different coefficient rings or presentations."""


class DegreeOverflow(EngineError):
    """A monomial's total degree would reach the packed-monomial bound 2^31."""


class RingSyntaxError(EngineError):
    """Malformed ring or polynomial expression text."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnknownVariable(RingSyntaxError):
    """Identifier in an expression is not a variable of the ring."""


class InvalidCertificate(EngineError):
    """A nilpotency certificate failed its identity check."""


class MalformedTranscript(EngineError):
    """Transcript JSON with a missing field, a wrong type or an out-of-range index."""


class NotFiniteDimensional(EngineError):
    """The quotient has an infinite monomial staircase."""


class NotZeroDimensional(EngineError):
    """No witness path applies: the ring is not finite or finite-dimensional."""


class NotFinite(EngineError):
    """The presented ring has infinitely many elements."""


class NotMonogenic(EngineError):
    """The extension is not one adjoined variable, or lacks its relation."""


class LeadingCoefficientZero(EngineError):
    """The defining relation has a vanishing leading coefficient."""


class UnsupportedRing(EngineError):
    """The strategy or factory does not cover this ring presentation."""


class UnknownAgentSpec(EngineError):
    """An agent spec string names no Prover or Delayer the engine knows, or
    asks a known one for more than the engine bounds."""


class WrongBudget(EngineError):
    """A refuting Delayer was invoked at a budget its argument does not cover."""


class IllegalMove(EngineError):
    """A game agent broke the protocol; `agent` names the offender."""

    def __init__(self, agent, message):
        self.agent = agent
        super().__init__(f"{agent}: {message}")


class NotInJacobsonRadical(EngineError):
    """A Prover move exposed that x is not in the Jacobson radical of the base set."""

    def __init__(self, move):
        self.move = move
        super().__init__(f"no witness for move {move}: 1 is not in the extended ideal")
