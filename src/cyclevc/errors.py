"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Shapes or feature widths do not agree with what the operation requires."""


class InsufficientDataError(ValueError):
    """Not enough frames (or voiced frames) to estimate the requested statistics."""


class NonFiniteError(ValueError):
    """A NaN or infinity showed up where the computation must stay finite.

    Raised in a training step or on its losses, it gets a ``position``,
    "epoch E, step S" (1-based, cyclegan.fit); its message is unchanged.
    """


class FormatError(ValueError):
    """An on-disk file does not follow the expected format."""


def utf8_text(path, data: bytes) -> str:
    """``data``, the contents of the file at ``path``, decoded as UTF-8.

    Bytes that are not UTF-8 raise FormatError naming the file.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
