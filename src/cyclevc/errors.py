"""Exception types and input checks shared across the package."""

import math
import reprlib
from numbers import Real


class DimensionMismatchError(ValueError):
    """Shapes or feature widths do not agree with what the operation requires."""


class InsufficientDataError(ValueError):
    """Not enough frames (or voiced frames) to estimate the requested statistics."""


class NonFiniteError(ValueError):
    """A NaN or infinity showed up where the computation must stay finite,
    or a nonzero value underflowed to 0 (a voiced F0, a value FTR1 stores)."""


class FormatError(ValueError):
    """An on-disk file does not follow the expected format."""


class located:
    """Raises an error of one of types from the body again as its own type,
    chained, with "where: " in front; a class, cheaper than a generator."""

    def __init__(self, where: str, *types: type[Exception]) -> None:
        self.where, self.types = where, types

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, self.types):
            raise type(exc)(f"{self.where}: {exc}") from exc


def utf8_text(path, data: bytes) -> str:
    """``data``, the contents of the file at ``path``, decoded as UTF-8.

    Bytes that are not UTF-8 raise FormatError naming the file.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def finite_real(value) -> bool:
    """Whether value is a real number, not a bool, that converts to a finite float."""
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def check_integer(name: str, value, minimum: int | None = None) -> None:
    """Raise ValueError naming name unless value is an integer, not a bool,
    that fits in a signed 64-bit integer and is at least minimum, if given."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {reprlib.repr(value)}")
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{name} must fit in a signed 64-bit integer, got {reprlib.repr(value)}")
