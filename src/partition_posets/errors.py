"""Exception types shared across the package."""


class PartitionPosetsError(Exception):
    """Base class for every error raised by this package."""


class EmptyInput(PartitionPosetsError):
    """An instance was given with no weights at all."""


class NegativeValue(PartitionPosetsError):
    """A weight was negative; only nonnegative integers are supported."""


class Overflow(PartitionPosetsError):
    """A weight, total, or count exceeded its documented bit bound."""


class LengthMismatch(PartitionPosetsError):
    """Two objects of different lengths were combined."""


class OperatorUndefined(PartitionPosetsError):
    """An addition or swap operator was applied where it is not defined."""


class NotInPoset(PartitionPosetsError):
    """The vector does not belong to the poset the operation was asked about."""


class TooLarge(PartitionPosetsError):
    """The request exceeds a size guard chosen to keep runtimes desk-scale."""


class TooSmall(PartitionPosetsError):
    """The request needs a larger n (the middle poset is empty below n = 3)."""


class UnknownCheck(PartitionPosetsError):
    """An unrecognized verification check name."""


class UnknownAlgorithm(PartitionPosetsError):
    """An unrecognized solver algorithm name."""


class ParseError(PartitionPosetsError):
    """An instance file could not be parsed."""


class WidthUncertified(PartitionPosetsError):
    """The level-chain certificate does not establish a DAG's width."""
