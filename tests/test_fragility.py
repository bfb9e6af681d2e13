"""Banded uplift fragility: table lookup, clamping, checksums."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from surgeaccess import fragility
from surgeaccess.errors import InvalidInputError, UnsupportedBridgeError

TABLE = fragility.default_table()


def test_default_table_shape():
    assert len(TABLE) == 7
    assert TABLE.domain == (0.0, 35.0)
    # bands tile the domain with no gaps
    for prev, cur in zip(TABLE.rows, TABLE.rows[1:]):
        assert cur.band_lo == prev.band_hi
    # wave-height coefficient positive, clearance coefficient negative in every band
    for row in TABLE.rows:
        assert row.b > 0.0
        assert row.c < 0.0


def test_spot_value_mid_band():
    # -0.3300 + 0.0576*2 + (-0.2444)*(-2) = 0.2740, computed by hand
    row = TABLE.coefficients_for(17.5)
    assert row.a == -0.3300 and row.b == 0.0576 and row.c == -0.2444
    p = fragility.uplift_probability(row, h_max_m=2.0, z_c_m=-2.0)
    assert abs(p - 0.2740) < 1e-12


def test_clamp_low():
    # raw value -0.3300 + 0.1152 + 0 = -0.2148 clamps to exactly 0
    row = TABLE.coefficients_for(17.5)
    assert fragility.uplift_probability(row, h_max_m=2.0, z_c_m=0.0) == 0.0


def test_clamp_high():
    # raw value 0.6468 + 0.812 + 0.688 = 2.1468 clamps to exactly 1
    row = TABLE.coefficients_for(2.0)
    assert row.a == 0.6468
    assert fragility.uplift_probability(row, h_max_m=20.0, z_c_m=-5.0) == 1.0


def test_boundary_mass_resolves_to_lower_band():
    assert TABLE.coefficients_for(5.0).band_hi == 5.0
    assert TABLE.coefficients_for(5.0000001).band_hi == 10.0
    assert TABLE.coefficients_for(35.0).band_lo == 30.0


def test_out_of_domain_mass_refused():
    for mass in (0.0, -1.0, 35.000001, 80.0):
        with pytest.raises(UnsupportedBridgeError):
            TABLE.coefficients_for(mass)
    with pytest.raises(InvalidInputError):
        TABLE.coefficients_for(float("nan"))


def test_checksum_matches_independent_recomputation():
    lines = "\n".join(
        f"{r.band_lo!r},{r.band_hi!r},{r.a!r},{r.b!r},{r.c!r}" for r in TABLE.rows
    )
    expected = hashlib.sha256(lines.encode("ascii")).hexdigest()
    assert TABLE.checksum() == expected
    assert len(TABLE.checksum()) == 64


def test_sha256_binding_matches_hashlib():
    # fragility.sha256 is the interpreter's built-in SHA-256 where it has one; hashlib here is OpenSSL's.
    big = np.random.default_rng(11).bytes(3 * 2**20)
    for data in (b"", b"42:17:b003_04", big):
        assert fragility.sha256(data).digest() == hashlib.sha256(data).digest()


def test_checksum_tracks_content():
    assert fragility.default_table().checksum() == TABLE.checksum()
    rows = list(TABLE.rows)
    rows[0] = fragility.FragilityRow(0.0, 5.0, 0.6469, 0.0406, -0.1376)
    assert fragility.FragilityTable(rows).checksum() != TABLE.checksum()


def test_probability_preconditions():
    row = TABLE.rows[0]
    with pytest.raises(InvalidInputError):
        fragility.uplift_probability(row, h_max_m=-0.1, z_c_m=0.0)
    with pytest.raises(InvalidInputError):
        fragility.uplift_probability(row, h_max_m=float("nan"), z_c_m=0.0)
    with pytest.raises(InvalidInputError):
        fragility.uplift_probability(row, h_max_m=1.0, z_c_m=float("inf"))


@given(
    row=st.sampled_from(TABLE.rows),
    h=st.floats(0.0, 40.0),
    z=st.floats(-10.0, 10.0),
)
def test_probability_always_a_probability(row, h, z):
    p = fragility.uplift_probability(row, h, z)
    assert 0.0 <= p <= 1.0


@given(
    row=st.sampled_from(TABLE.rows),
    h=st.floats(0.0, 40.0),
    dh=st.floats(0.0, 10.0),
    z=st.floats(-10.0, 10.0),
)
def test_probability_monotone_in_wave_height(row, h, dh, z):
    # b > 0 in every band, so taller waves never reduce the risk
    assert fragility.uplift_probability(row, h + dh, z) >= fragility.uplift_probability(row, h, z)


@given(
    row=st.sampled_from(TABLE.rows),
    h=st.floats(0.0, 40.0),
    z=st.floats(-10.0, 10.0),
    dz=st.floats(0.0, 10.0),
)
def test_probability_monotone_in_clearance(row, h, z, dz):
    # c < 0 in every band, so raising the deck never increases the risk
    assert fragility.uplift_probability(row, h, z + dz) <= fragility.uplift_probability(row, h, z)
