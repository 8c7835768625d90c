"""Shared exception type for data and domain errors."""

from contextlib import contextmanager


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
