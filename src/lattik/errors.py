"""Exception hierarchy shared by all lattik modules."""


class LattikError(Exception):
    """Base class for every error raised by lattik."""


class InputError(LattikError):
    """Invalid user input (bad structure, bad name, bad JSON)."""


class DuplicateName(InputError):
    pass


class UnknownName(InputError):
    pass


class NotAntisymmetric(InputError):
    """The transitive closure of the input relation contains a 2-cycle."""


class NoJoin(InputError):
    def __init__(self, a, b):
        super().__init__(f"elements {a!r} and {b!r} have no least upper bound")
        self.pair = (a, b)


class NoBottom(InputError):
    pass


class UnknownFlavor(InputError, ValueError):
    """A support-datum flavor that is not a name in FLAVORS."""


class SizeGuardExceeded(LattikError):
    """An exhaustive search exceeded the configured candidate bound."""


class KindMismatch(InputError):
    """Morphism kind does not match the requested ideal flavor."""


class NotT0(InputError):
    """Specialization relation of the space is not antisymmetric."""


class NotContinuous(InputError):
    pass


class InvalidDatum(InputError):
    """A support datum violates one of its axioms."""


class NotAFrame(InputError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotDistributive(InputError):
    pass


class TensorAxiomError(InputError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotDistributiveOverJoin(TensorAxiomError):
    pass


class UnitLawFails(TensorAxiomError):
    pass


class ZeroLawFails(TensorAxiomError):
    pass


class BoundExceeded(InputError):
    """A corpus generation bound was exceeded."""
