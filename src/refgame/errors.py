"""Shared exception type for data and domain errors, and the input conversions that raise it."""

from contextlib import contextmanager
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Invalid input data or an operation applied outside its domain.

    Everything user-fixable raises this: malformed resource files,
    vocabulary mismatches, degenerate configurations. Programming
    errors keep their native exception types.
    """


@contextmanager
def prefix_errors(where):
    """Re-raise a DataError from the block as "<where>: <message>"."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def float_array(values, where: str, dtype=float) -> np.ndarray:
    """values as a float (or dtype) array; a non-number or ragged rows raise DataError "<where>: <numpy's text>"."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{where}: {exc}") from None


def read_text(path) -> str:
    """path's text as UTF-8, whatever the locale, less a leading BOM: "<path>: line N: not UTF-8" if not."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {line}: not UTF-8") from None
