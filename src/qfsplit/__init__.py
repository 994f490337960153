"""Exact invariants of Calabi-Yau hypersurfaces over finite fields.

Computes quasi-F-split heights, non-splitting indices and (for quartic and
weighted-sextic K3 surfaces) the Artin invariant, from a defining equation,
by exact finite-field linear algebra; includes first-order lift analysis and
closed-form cross-checks for Delsarte families.
"""

from .errors import DomainError, ParseError, QfsplitError, ResourceError, UsageError
from .ffield import ExtensionField, PrimeField, field
from .polyring import Polynomial, RingConfig, format_poly, parse_poly
from .values import Infinite, is_infinite

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ExtensionField",
    "Infinite",
    "ParseError",
    "Polynomial",
    "PrimeField",
    "QfsplitError",
    "ResourceError",
    "RingConfig",
    "UsageError",
    "field",
    "format_poly",
    "is_infinite",
    "parse_poly",
]
