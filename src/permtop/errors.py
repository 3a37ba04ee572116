"""Exception hierarchy shared by every permtop module.

Errors raised while validating raw data derive from ValueError so that
callers who only know the stdlib still catch them naturally; everything
derives from PermtopError so the CLI can map any domain failure to a
usage-error exit.
"""

from __future__ import annotations


class PermtopError(Exception):
    """Base class for all domain errors."""


class ValidationError(PermtopError, ValueError):
    """Raw data does not describe a valid object."""


# -- permutation / set validation -------------------------------------------

class NotBijective(ValidationError):
    def __init__(self, point: int, reason: str):
        self.point = point
        self.reason = reason
        super().__init__(f"not a bijection of the naturals: {reason} at {point}")


class BadResidueShift(ValidationError):
    def __init__(self, modulus: int):
        self.modulus = modulus
        super().__init__(
            f"r -> (r + shift(r)) mod {modulus} is not a permutation of the residues"
        )


class NegativeImage(ValidationError):
    def __init__(self, point: int, image: int):
        self.point = point
        self.image = image
        super().__init__(f"eventual rule sends {point} to {image} < 0 with no patch cover")


# -- witness construction preconditions --------------------------------------

class WitnessError(PermtopError, ValueError):
    """A witness constructor was handed input outside its contract."""


class IdentityInput(WitnessError):
    def __init__(self, index: int | None = None):
        self.index = index
        where = "" if index is None else f" (pair {index})"
        super().__init__(f"the identity permutation is not admissible here{where}")


class EqualInputs(WitnessError):
    def __init__(self):
        super().__init__("the two permutations are equal; nothing separates them")


class PointwiseFixed(WitnessError):
    def __init__(self, points):
        self.points = frozenset(points)
        super().__init__(f"the permutation fixes every point of {sorted(points)}")


class BadCardinality(WitnessError):
    def __init__(self, got: int, want: str):
        self.got = got
        self.want = want
        super().__init__(f"need {want} points, got {got}")


class NotInvolution(WitnessError):
    def __init__(self, index: int | None = None):
        self.index = index
        where = "" if index is None else f" (pair {index})"
        super().__init__(f"permutation squared is not the identity{where}")


class SupportTooSmall(WitnessError):
    def __init__(self, size: int, need: str):
        self.size = size
        super().__init__(f"support has {size} points, need {need}")


class SupportTooLarge(WitnessError):
    def __init__(self, size: int | None, bound: int):
        self.size = size
        what = "is infinite" if size is None else f"has {size} points"
        super().__init__(f"support {what}, bound is {bound}")


class InfiniteSupport(WitnessError):
    def __init__(self):
        super().__init__("permutation has infinite support")


class FiniteSupport(WitnessError):
    def __init__(self):
        super().__init__("permutation has finite support")


class PointNotInSupport(WitnessError):
    def __init__(self, point: int):
        self.point = point
        super().__init__(f"{point} is not moved by the permutation")


class WindowTooSmall(WitnessError):
    pass


class NotMember(WitnessError):
    def __init__(self):
        super().__init__("the permutation does not belong to the set")


class ZeroExponent(ValidationError):
    def __init__(self, generator: int):
        self.generator = generator
        super().__init__(f"syllable on generator {generator} has exponent 0")


# -- partitions ---------------------------------------------------------------

class PartitionError(ValidationError):
    pass


class Overlap(PartitionError):
    def __init__(self, point: int):
        self.point = point
        super().__init__(f"point {point} lies in two pieces")


class Gap(PartitionError):
    def __init__(self, point: int):
        self.point = point
        super().__init__(f"point {point} lies in no piece")


class OddModulus(PartitionError):
    def __init__(self, modulus: int):
        self.modulus = modulus
        super().__init__(f"declared modulus {modulus} is odd")


# -- finite oracle ------------------------------------------------------------

class OracleError(PermtopError, ValueError):
    pass


class NotAGroup(OracleError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"table is not a group: {reason}")


class TooLarge(OracleError):
    pass


class SpecMismatch(OracleError):
    pass


class CarrierMismatch(OracleError):
    def __init__(self, a: int, b: int):
        super().__init__(f"carriers differ: {a} vs {b} elements")


# -- literal parsing ----------------------------------------------------------

class ParseError(PermtopError, ValueError):
    """Syntax or semantic error in a literal, with 1-based position info."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, col {col})")
