"""Exact-arithmetic lab for p-adic Taylor certificates, the determinant
method over Q_p, bounded-height point enumeration, function-field point
counts over F_q[t], and Hilbert-function machinery.

Everything is exact: valuations instead of float norms, Fractions instead
of floats, big integers throughout.  The only numerics are block-vectorized
numpy modular kernels for the two hot enumeration loops, over int64 under
an overflow guard and over Python-int object arrays past it.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    ConfigError,
    FullRankError,
    PrecisionError,
    RingMismatchError,
    BoundViolation,
)

__all__ = [
    "__version__",
    "CapExceededError",
    "ConfigError",
    "FullRankError",
    "PrecisionError",
    "RingMismatchError",
    "BoundViolation",
]
