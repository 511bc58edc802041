"""Tests for the radial antiderivatives.

Every kind is checked two ways: the primitive's central difference against
the integrand (antiderivative property), and definite integrals against
scipy's adaptive 1D quadrature (value).  Degenerate branches (c=0, d=0),
series fallbacks, and divergence behavior get targeted cases.
"""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tripanel.errors import DivergentIntegral
from tripanel.radial_kernels import (
    RadialKind,
    definite_radial,
    radial_integrand,
    radial_primitive,
)

ALL_KINDS = list(RadialKind)


def quad_reference(kind, r_lo, r_hi, c, d):
    val, err = quad(lambda r: float(radial_integrand(kind, r, c, d)),
                    r_lo, r_hi, epsabs=1e-13, epsrel=1e-12, limit=300)
    return val


def test_r1_closed_form_example():
    # int_0^1 r/(r^2+1)^{3/2} dr = 1 - 1/sqrt(2)
    assert definite_radial(RadialKind.R1, 0.0, 1.0, 1.0, 0.0) == pytest.approx(
        1.0 - 1.0 / math.sqrt(2.0), abs=1e-15)


def test_r2_d0_branch_value():
    r, c = 1.7, 0.6
    assert radial_primitive(RadialKind.R2, r, c, 0.0) == pytest.approx(
        -(math.pi / 2) / math.sqrt(r * r + c * c), abs=1e-15)


def test_zero_length_interval():
    for kind in ALL_KINDS:
        assert definite_radial(kind, 1.3, 1.3, 0.7, 0.4) == 0.0


def test_r5_continuous_at_foot():
    c, d = 0.8, 0.6
    lim = radial_primitive(RadialKind.R5, d, c, d)
    near = radial_primitive(RadialKind.R5, d * (1 + 1e-13), c, d)
    assert near == pytest.approx(lim, rel=1e-10)
    # definite integral from exactly d is the difference of primitives
    v = definite_radial(RadialKind.R5, d, 2.0, c, d)
    assert v == pytest.approx(quad_reference(RadialKind.R5, d, 2.0, c, d), rel=1e-9)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_definite_matches_quadrature_randomized(kind):
    rng = np.random.default_rng(zlib.crc32(kind.value.encode()))
    for _ in range(60):
        d = rng.uniform(0.0, 1.5)
        if rng.random() < 0.25:
            d = 0.0
        c = rng.uniform(0.0, 2.0)
        if rng.random() < 0.25:
            c = 0.0
        r_lo = d + rng.uniform(0.0, 1.0)
        r_hi = r_lo + rng.uniform(1e-3, 2.0)
        if c == 0.0 and r_lo == 0.0 and kind in (RadialKind.R1, RadialKind.R2, RadialKind.R3):
            continue
        got = definite_radial(kind, r_lo, r_hi, c, d)
        ref = quad_reference(kind, r_lo, r_hi, c, d)
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-12), (kind, r_lo, r_hi, c, d)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_antiderivative_property(kind):
    rng = np.random.default_rng(zlib.crc32(kind.value.encode()) + 1)
    h = 1e-5
    for _ in range(60):
        d = rng.uniform(0.0, 3.0)
        c = rng.uniform(0.1, 10.0)
        r = d + 0.1 + rng.uniform(0.0, 10.0)
        fd = (radial_primitive(kind, r + h, c, d)
              - radial_primitive(kind, r - h, c, d)) / (2 * h)
        ref = float(radial_integrand(kind, r, c, d))
        # the difference quotient's noise floor: the primitive's internal
        # terms grow like c^2 while their difference can be tiny near r = d
        floor = 1e-12 + 5e-10 * (1.0 + c * c + d * d)
        assert fd == pytest.approx(ref, rel=1e-6, abs=floor), (kind, r, c, d)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_c_sign_symmetry(kind):
    rng = np.random.default_rng(42)
    for _ in range(20):
        d = rng.uniform(0.0, 1.0)
        c = rng.uniform(-2.0, 2.0)
        a = d + rng.uniform(0.01, 1.0)
        b = a + rng.uniform(0.01, 1.0)
        assert definite_radial(kind, a, b, c, d) == definite_radial(kind, a, b, -c, d)


def test_divergent_cases():
    for kind in (RadialKind.R1, RadialKind.R2, RadialKind.R3):
        with pytest.raises(DivergentIntegral):
            radial_primitive(kind, 0.0, 0.0, 0.0)
        with pytest.raises(DivergentIntegral):
            definite_radial(kind, 0.0, 1.0, 0.0, 0.0)
    # with c > 0 everything is finite at r = 0
    for kind in ALL_KINDS:
        assert math.isfinite(radial_primitive(kind, 0.0, 0.5, 0.0))
    # J kinds and R4/R5/R6 are finite even at c = 0, r = 0
    for kind in (RadialKind.R4, RadialKind.R5, RadialKind.R6cubic,
                 RadialKind.J1, RadialKind.J2, RadialKind.J3):
        assert math.isfinite(radial_primitive(kind, 0.0, 0.0, 0.0))


def test_domain_errors():
    with pytest.raises(ValueError):
        radial_primitive(RadialKind.R1, 0.5, 1.0, 0.8)  # r < d
    with pytest.raises(ValueError):
        radial_primitive(RadialKind.R1, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        definite_radial(RadialKind.R1, 2.0, 1.0, 1.0, 0.0)


def test_series_consistency_at_threshold():
    from tripanel.radial_kernels import _atan_ratio

    # straddle the switch point |c*q| = 1e-6: series and arctan agree to 1e-9
    for t in (0.2e-6, 0.5e-6, 0.999e-6, 1.001e-6, 2e-6, 1e-5):
        for c in (1e-3, 1e-6, 0.5):
            q = t / c
            series = q * (1 - t**2 / 3 + t**4 / 5 - t**6 / 7)
            assert float(_atan_ratio(c, q)) == pytest.approx(series, rel=1e-9)
            assert float(_atan_ratio(c, q)) == pytest.approx(math.atan(t) / c, rel=1e-9)
    # an array of c (one per pair, as the batch engine passes) is taken
    # elementwise, with the limit q at c = 0
    cs = np.array([0.0, 1e-3, 1e-6, 0.5, 2.0])
    qs = np.array([0.7, 2e-4, 0.999, 3.0, 1e300])
    got = _atan_ratio(cs, qs)
    assert got.tolist() == [float(_atan_ratio(c, q)) for c, q in zip(cs, qs)]
    assert got[0] == qs[0] and got[-1] == pytest.approx(0.25 * math.pi)
    # end-to-end: tiny c activates the series inside R2 on a well-conditioned
    # interval, and the value still matches quadrature
    for c in (0.0, 1e-9, 1e-7, 1e-6):
        v = definite_radial(RadialKind.R2, 1.5, 2.5, c, 1.0)
        ref = quad_reference(RadialKind.R2, 1.5, 2.5, c, 1.0)
        assert v == pytest.approx(ref, rel=1e-10)


def test_arcsin_variant_identity():
    # the J2 primitive is often written with c*arcsin(c*Q/(r*sqrt(c^2+d^2)));
    # that term is identical to c*arctan(c*Q/(d*S)) used here
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = rng.uniform(1e-3, 2.0)
        c = rng.uniform(1e-3, 2.0)
        r = d + rng.uniform(1e-3, 3.0)
        s = math.sqrt(r * r + c * c)
        q = math.sqrt(r * r - d * d)
        lhs = c * math.asin(c * q / (r * math.hypot(c, d)))
        rhs = c * math.atan(c * q / (d * s))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_arctanh_log_identity():
    # arctanh(Q/S) = log((S+Q)/hypot(c,d)): S^2 - Q^2 = c^2 + d^2
    rng = np.random.default_rng(6)
    for _ in range(200):
        d = rng.uniform(1e-6, 2.0)
        c = rng.uniform(0.0, 2.0)
        if c == 0.0 and d == 0.0:
            continue
        r = d + rng.uniform(1e-6, 3.0)
        s = math.sqrt(r * r + c * c)
        q = math.sqrt(r * r - d * d)
        assert math.atanh(q / s) == pytest.approx(
            math.log((s + q) / math.hypot(c, d)), rel=1e-11)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_KINDS),
       st.floats(0.0, 2.0), st.floats(0.0, 1.0),
       st.floats(0.001, 1.0), st.floats(0.001, 1.5))
def test_definite_additivity(kind, c, d, len1, len2):
    a = d + 0.05
    m = a + len1
    b = m + len2
    whole = definite_radial(kind, a, b, c, d)
    parts = definite_radial(kind, a, m, c, d) + definite_radial(kind, m, b, c, d)
    assert whole == pytest.approx(parts, rel=1e-11, abs=1e-13)
