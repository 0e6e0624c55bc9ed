"""Small argument validators shared across the package.

Each helper raises the package's own exception types with messages that name
the offending parameter, so configuration mistakes fail fast and readably.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ConfigurationError, ScanStatisticsError


def require_keys(payload: Any, what: str, *keys: str) -> None:
    """A checkpoint or a bundle is outside input: a mapping holding exactly
    what the writers here write, or a :class:`ConfigurationError` naming it."""
    if not isinstance(payload, Mapping) or set(payload) != set(keys):
        raise ConfigurationError(
            f"{what} must be a mapping holding exactly {keys}; got {payload!r}"
        )


def require_type(value: Any, kind: type, what: str) -> Any:
    """``value`` when it is a ``kind`` and of no subclass — ``True`` is not
    an int here — else a :class:`ConfigurationError` naming ``what``."""
    if type(value) is not kind:
        raise ConfigurationError(
            f"{what} must be {kind.__name__}; got {value!r}"
        )
    return value


def require_list_of(value: Any, kind: type, what: str) -> list[Any]:
    """``value`` when it is a list of ``kind`` items (see :func:`require_type`)."""
    if type(value) is not list or not all(type(item) is kind for item in value):
        raise ConfigurationError(
            f"{what} must be a list of {kind.__name__}; got {value!r}"
        )
    return value


def require_probability(value: float, name: str, *, open_interval: bool = False) -> float:
    """Validate that ``value`` is a probability.

    With ``open_interval`` the endpoints 0 and 1 are excluded, which is what
    the scan-statistics formulas need (they divide by both ``p`` and ``q``).
    """
    value = float(value)
    if open_interval:
        if not 0.0 < value < 1.0:
            raise ScanStatisticsError(f"{name} must be in (0, 1); got {value}")
    elif not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1]; got {value}")
    return value


def require_positive_int(value: int, name: str) -> int:
    if int(value) != value or value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer; got {value!r}")
    return int(value)


def require_non_negative(value: float, name: str) -> float:
    value = float(value)
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative; got {value}")
    return value


def require_positive(value: float, name: str) -> float:
    value = float(value)
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive; got {value}")
    return value


def require_in(value: object, options: tuple[object, ...], name: str) -> object:
    if value not in options:
        raise ConfigurationError(f"{name} must be one of {options}; got {value!r}")
    return value
