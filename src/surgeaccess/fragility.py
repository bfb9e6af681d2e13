"""Bridge deck uplift fragility.

Failure probability is an affine function of the design maximum wave height
and the deck's elevation relative to the storm tide, clamped to [0, 1].
Coefficients depend on the superstructure mass per unit length, looked up
from a banded table. Bands are half-open on the left, (lo, hi], so a mass
sitting exactly on a boundary belongs to the lower band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError, UnsupportedBridgeError

# The package's one SHA-256, for the draws and the file hashes. The interpreter's built-in module gives
# hashlib's digests without loading OpenSSL, which hashlib always imports (3.5 MB of resident memory).
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without its built-in hashes
        from hashlib import sha256


@dataclass(frozen=True)
class FragilityRow:
    """Coefficients valid for masses in (band_lo, band_hi] ton/m."""

    band_lo: float
    band_hi: float
    a: float
    b: float
    c: float


# Default banded coefficients: (band_lo, band_hi, a, b, c).
_DEFAULT_ROWS = (
    FragilityRow(0.0, 5.0, 0.6468, 0.0406, -0.1376),
    FragilityRow(5.0, 10.0, 0.4166, 0.0456, -0.2343),
    FragilityRow(10.0, 15.0, 0.3291, 0.0546, -0.2464),
    FragilityRow(15.0, 20.0, -0.3300, 0.0576, -0.2444),
    FragilityRow(20.0, 25.0, 0.2843, 0.0512, -0.2421),
    FragilityRow(25.0, 30.0, 0.2865, 0.0881, -0.2391),
    FragilityRow(30.0, 35.0, -0.1870, 0.0782, -0.2618),
)


class FragilityTable:
    """Ordered, contiguous mass bands with their uplift coefficients."""

    def __init__(self, rows: tuple[FragilityRow, ...] | list[FragilityRow]):
        self.rows = tuple(rows)

    @property
    def domain(self) -> tuple[float, float]:
        """Supported mass range as the half-open interval (lo, hi]."""
        return (self.rows[0].band_lo, self.rows[-1].band_hi)

    def coefficients_for(self, mass_ton_per_m: float) -> FragilityRow:
        """Return the band covering the given mass.

        Boundary masses resolve to the lower band. Masses outside the
        table domain are refused outright; there is no extrapolation.
        """
        if not math.isfinite(mass_ton_per_m):
            raise InvalidInputError(f"mass must be finite, got {mass_ton_per_m}")
        lo, hi = self.domain
        if not lo < mass_ton_per_m <= hi:
            raise UnsupportedBridgeError(
                f"mass {mass_ton_per_m} ton/m outside supported range ({lo}, {hi}]"
            )
        # Contiguous bands tile the domain checked above, so one always matches.
        return next(row for row in self.rows if row.band_lo < mass_ton_per_m <= row.band_hi)

    def checksum(self) -> str:
        """sha256 over the canonical text form of the rows."""
        text = "\n".join(
            f"{r.band_lo!r},{r.band_hi!r},{r.a!r},{r.b!r},{r.c!r}" for r in self.rows
        )
        return sha256(text.encode("ascii")).hexdigest()

    def __len__(self) -> int:
        return len(self.rows)


def default_table() -> FragilityTable:
    """The built-in coefficient table."""
    return FragilityTable(_DEFAULT_ROWS)


def uplift_probability(row: FragilityRow, h_max_m: float, z_c_m: float) -> float:
    """Deck uplift failure probability for one bridge under one storm.

    p = clamp(a + b * h_max + c * z_c, 0, 1), with h_max the design
    maximum wave height (m, >= 0) and z_c the deck elevation relative
    to storm tide (m, may be negative).
    """
    if not math.isfinite(h_max_m) or h_max_m < 0.0:
        raise InvalidInputError(f"h_max must be finite and >= 0, got {h_max_m}")
    if not math.isfinite(z_c_m):
        raise InvalidInputError(f"z_c must be finite, got {z_c_m}")
    raw = row.a + row.b * h_max_m + row.c * z_c_m
    return min(1.0, max(0.0, raw))
