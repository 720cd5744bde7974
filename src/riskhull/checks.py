"""Type checks of the values the program reads from outside: the config,
the hull cache and the noise spectrum.  Each returns the value as its
Python type or raises ValueError; strings and booleans are never converted.
``positive`` and ``nonneg`` are the finite reals > 0 and >= 0.  ``freeze``
makes a record's array field a read-only copy.
"""

import math
import numbers

import numpy as np


def checked(name: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a ValueError it raises reported against ``name``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def freeze(record, field: str, dtype=np.float64) -> np.ndarray:
    """Set ``record.field`` to a read-only 1-D copy of it as ``dtype`` and return that copy.

    The copy shares no memory with the value passed in, so no caller can
    change a record after construction; frozen dataclasses call it from
    ``__post_init__``.
    """
    arr = np.asarray(getattr(record, field), dtype=dtype).reshape(-1).copy()
    arr.flags.writeable = False
    object.__setattr__(record, field, arr)
    return arr


def _of_type(kind: type, what: str):
    """Values of the Python type ``kind``; the error says they must be ``what``."""
    def conv(v):
        if not isinstance(v, kind):
            raise ValueError(f"must be {what}, got {v!r}")
        return v

    return conv


boolean, text, obj = _of_type(bool, "true or false"), _of_type(str, "a string"), _of_type(dict, "a JSON object")
_list = _of_type(list, "a list")


def real(v) -> float:
    if not isinstance(v, numbers.Real) or isinstance(v, (bool, np.bool_)):
        raise ValueError(f"must be a real number, got {v!r}")
    return float(v)


def positive(v) -> float:
    x = real(v)
    if not math.isfinite(x) or x <= 0:
        raise ValueError(f"must be a positive finite real, got {v}")
    return x


def nonneg(v) -> float:
    x = real(v)
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"must be a finite real >= 0, got {x}")
    return x


def _integer(lo: int):
    """Integers >= lo; an integral number such as 1e6 counts, a boolean does not."""
    def conv(v) -> int:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or (isinstance(v, float) and not v.is_integer()):
            raise ValueError(f"must be an integer, got {v!r}")
        if v < lo:
            raise ValueError(f"must be an integer >= {lo}, got {v}")
        return int(v)

    return conv


nonneg_int, pos_int = _integer(0), _integer(1)


def list_of(kind):
    """A JSON list whose every entry passes ``kind``."""
    return lambda v: [kind(x) for x in _list(v)]
