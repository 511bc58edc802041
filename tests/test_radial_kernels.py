"""Tests for the radial antiderivatives.

Every kind is checked two ways: the primitive's central difference against
the integrand (antiderivative property), and definite integrals against
scipy's adaptive 1D quadrature (value) and, in the near-singular regimes
(series branch, grazing r ~ d, c and d at the 1e-14 snap, c >> r), a
30-digit mpmath quadrature.  Degenerate branches (c=0, d=0), series
fallbacks, and divergence behavior get targeted cases.
"""

import math
import zlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tripanel.errors import DivergentIntegral
from tripanel.radial_kernels import (RadialKind, definite_radial, radial_integrand,
                                     radial_primitives)

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
    # the d = 0 primitive is -(pi/2)/S
    r, c = 1.7, 0.6
    assert definite_radial(RadialKind.R2, 0.0, r, c, 0.0) == pytest.approx(
        (math.pi / 2) * (1.0 / c - 1.0 / math.sqrt(r * r + c * c)), abs=1e-15)


def test_zero_length_interval():
    for kind in ALL_KINDS:
        assert definite_radial(kind, 1.3, 1.3, 0.7, 0.4) == 0.0


def test_r5_continuous_at_foot():
    c, d = 0.8, 0.6
    # definite integral from exactly d is the difference of primitives
    v = definite_radial(RadialKind.R5, d, 2.0, c, d)
    near = definite_radial(RadialKind.R5, d * (1 + 1e-13), 2.0, c, d)
    assert near == pytest.approx(v, rel=1e-10)
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
        fd = definite_radial(kind, r - h, r + h, c, d) / (2 * h)
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
            definite_radial(kind, 0.0, 1.0, 0.0, 0.0)
        # r so small that S = sqrt(r^2 + c^2) underflows to 0 is r = 0
        with pytest.raises(DivergentIntegral):
            definite_radial(kind, 1e-170, 1.0, 0.0, 0.0)
    # with c > 0 everything is finite at r = 0
    for kind in ALL_KINDS:
        assert math.isfinite(definite_radial(kind, 0.0, 1.0, 0.5, 0.0))
    # J kinds and R4/R5/R6 are finite even at c = 0, r = 0
    for kind in (RadialKind.R4, RadialKind.R5, RadialKind.R6cubic,
                 RadialKind.J1, RadialKind.J2, RadialKind.J3):
        assert math.isfinite(definite_radial(kind, 0.0, 1.0, 0.0, 0.0))


def test_domain_errors():
    with pytest.raises(ValueError):
        definite_radial(RadialKind.R1, 0.5, 1.0, 1.0, 0.8)  # r < d
    with pytest.raises(ValueError):
        definite_radial(RadialKind.R1, -1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        definite_radial(RadialKind.R1, 2.0, 1.0, 1.0, 0.0)


def test_series_consistency_at_threshold():
    from tripanel.radial_kernels import _atan_ratio_float

    # straddle the switch point |c*q| = 1e-6: series and arctan agree to 1e-9
    for t in (0.2e-6, 0.5e-6, 0.999e-6, 1.001e-6, 2e-6, 1e-5):
        for c in (1e-3, 1e-6, 0.5):
            q = t / c
            series = q * (1 - t**2 / 3 + t**4 / 5 - t**6 / 7)
            assert _atan_ratio_float(c, q) == pytest.approx(series, rel=1e-9)
            assert _atan_ratio_float(c, q) == pytest.approx(math.atan(t) / c, rel=1e-9)
    # a float on either side of the switch, and the limit q at c = 0
    ts = np.geomspace(1e-9, 1e-3, 61).tolist() + [0.999999e-6, 1e-6, 1.000001e-6]
    for c in (1e-3, 1e-6, 0.5, 3.0):
        for t in ts:
            got = _atan_ratio_float(c, t / c)
            assert type(got) is float
            assert got == pytest.approx(math.atan(t) / c, rel=1e-15)
    assert _atan_ratio_float(0.0, 0.7) == 0.7
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


# ------------------------------------------- near-singular regimes vs mpmath

def _mp_integrand(kind, r, c, d):
    """The radial integrand in mpmath arithmetic, c and d taken as given
    (no snap to zero)."""
    s = mpmath.sqrt(r * r + c * c)
    q = mpmath.sqrt(max(r * r - d * d, 0))
    ac = mpmath.acos(d / r) if r > 0 else mpmath.pi / 2
    num = {"R1": r, "R2": ac * r, "R3": q * r, "R4": r ** 3, "R5": ac * r ** 3,
           "R6cubic": r * q ** 3, "J1": r, "J2": ac * r, "J3": q * r}[kind.value]
    return num / s if kind.value.startswith("J") else num / s ** 3


def mp_reference(kind, r_lo, r_hi, c, d):
    """30-digit definite integral; every integrand is nonnegative, so this
    is also the integral of |integrand|."""
    with mpmath.workdps(30):
        c, d = mpmath.mpf(abs(c)), mpmath.mpf(d)
        val = mpmath.quad(lambda r: _mp_integrand(kind, r, c, d),
                          [mpmath.mpf(r_lo), mpmath.mpf(r_hi)])
    return float(val)


D_GRAZE = 0.4
NEAR_SINGULAR_REGIMES = {
    # arctan(c*Q/(d*S))/c on its series branch at both ends (|c*q| < 1e-6)
    "series": (0.5, 1.5, 1e-7, D_GRAZE),
    # series branch at r = d, arctan branch at r_hi
    "series_to_atan": (D_GRAZE, 1.5, 1e-6, D_GRAZE),
    # r_lo within 1e-12 relative of d, above it and (snapped up) below it;
    # arccos of the rounded d/r lost ~6e-12 of R2, R5 and J2 at 1e-12
    "graze_above": (D_GRAZE * (1.0 + 1e-12), 0.9, 0.3, D_GRAZE),
    "graze_closer": (D_GRAZE * (1.0 + 1e-13), 0.9, 0.3, D_GRAZE),
    "graze_below": (D_GRAZE * (1.0 - 5e-13), 0.9, 0.3, D_GRAZE),
    "graze_c_tiny": (D_GRAZE * (1.0 + 1e-12), 0.9, 1e-9, D_GRAZE),
    # c and d on either side of the 1e-14 snap to the exact branches
    "c_above_snap": (0.2, 1.0, 1.1e-14, 0.1),
    "c_below_snap": (0.2, 1.0, 0.9e-14, 0.1),
    "d_above_snap": (0.2, 1.0, 0.3, 1.1e-14),
    "d_below_snap": (0.2, 1.0, 0.3, 0.9e-14),
    "cd_below_snap": (0.2, 1.0, 0.9e-14, 0.9e-14),
}


@pytest.mark.parametrize("regime", sorted(NEAR_SINGULAR_REGIMES))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_near_singular_regimes_match_mpmath(kind, regime):
    r_lo, r_hi, c, d = NEAR_SINGULAR_REGIMES[regime]
    got = definite_radial(kind, r_lo, r_hi, c, d)
    assert type(got) is float
    ref = mp_reference(kind, max(r_lo, d), r_hi, c, d)
    assert abs(got - ref) <= 1e-13 * ref, (got, ref)


# c >> r: integrand ~ r^k/c^3 while the primitives' terms are ~1/c, c or
# c*Q; their difference cancels up to (c/r)^4 of the digits
C_FAR = {"c10": (0.05, 0.1, 1.0, 0.02), "c100_from0": (0.0, 0.01, 1.0, 0.0),
         "c1000": (5e-4, 1e-3, 1.0, 2e-4), "c1000_d0": (5e-4, 1e-3, 1.0, 0.0)}


@pytest.mark.parametrize("regime", sorted(C_FAR))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_c_much_greater_than_r_within_cancellation(kind, regime):
    r_lo, r_hi, c, d = C_FAR[regime]
    ref = mp_reference(kind, r_lo, r_hi, c, d)
    got = definite_radial(kind, r_lo, r_hi, c, d)
    loss = 32 * 2.0 ** -52 * (c / r_hi) ** 4
    assert abs(got - ref) <= (1e-13 + loss) * ref, (got, ref)


@pytest.mark.xfail(strict=True, reason="definite_radial subtracts two primitives "
                   "of size ~c^j; at c/r = 1000 that loses more than 1e-13 of "
                   "the integral for every kind (R4/R5/R6cubic: ~1e-3)")
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_c_much_greater_than_r_to_1e13_of_integral(kind):
    r_lo, r_hi, c, d = C_FAR["c1000"]
    ref = mp_reference(kind, r_lo, r_hi, c, d)
    assert abs(definite_radial(kind, r_lo, r_hi, c, d) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_primitives_return_python_floats(kind):
    for args in ((1.3, 0.7, 0.4), (np.float64(1.3), np.float64(-0.7), np.float64(0.4)),
                 (1.3, 0.0, 0.0), (0.4, 0.7, 0.4), (2, 1, 0)):
        assert type(definite_radial(kind, args[0], 2.0 * args[0], *args[1:])) is float
        assert type(definite_radial(kind.value, args[0], 2 * args[0], *args[1:])) is float
    assert type(radial_integrand(kind, 1.3, 0.7, 0.4)) is float


# ------------------------------- one formula per kind: the moments' kind sets

def _moment_kind_sets():
    """Every kind tuple the moment assembly evaluates at one boundary: K
    at degrees 0..3 from degree 0, the QSA moments from degree 2, and G."""
    from tripanel.panel_integrals import _G_EDGE, _G_SLAB, _k_radial_kinds

    sets = {_G_SLAB, _G_EDGE}
    for lo, hi in [(0, 0), (0, 1), (0, 2), (0, 3), (2, 2), (2, 3)]:
        sets.update(_k_radial_kinds(lo, hi))
    return sorted(sets, key=lambda ks: [k.value for k in ks])


BOUNDARIES = {
    **{f"regime_{k}": v for k, v in NEAR_SINGULAR_REGIMES.items()},
    **{f"c_far_{k}": v for k, v in C_FAR.items()},
    "d0": (0.3, 1.2, 0.5, 0.0),
    "c0": (0.5, 1.2, 0.0, 0.4),
    "c0_from_d": (0.4, 1.2, 0.0, 0.4),
    "c0_d0": (0.3, 1.2, 0.0, 0.0),
}


def _radial_differences(kinds, r_lo, r_hi, c, d):
    hi = radial_primitives(kinds, r_hi, c, d)
    return [a - b for a, b in zip(hi, radial_primitives(kinds, r_lo, c, d))]


@pytest.mark.parametrize("kinds", _moment_kind_sets(),
                         ids=lambda ks: "-".join(k.value for k in ks))
def test_boundary_evaluation_is_definite_radial_per_kind(kinds):
    # the moment walk's multi-kind evaluation at both ends of an interval
    for name, (r_lo, r_hi, c, d) in BOUNDARIES.items():
        got = _radial_differences(kinds, r_lo, r_hi, c, d)
        want = [definite_radial(k, r_lo, r_hi, c, d) for k in kinds]
        assert [type(v) for v in got] == [float] * len(kinds)
        assert got == want, name


FAILING_BOUNDARIES = {
    "from_zero_c0_d0": (0.0, 1.0, 0.0, 0.0),        # R1/R2/R3 diverge
    "underflow_c0_d0": (1e-170, 1.0, 0.0, 0.0),     # S underflows to 0
    "below_foot": (0.3, 1.0, 0.5, 0.4),
    "negative_radius": (-0.1, 1.0, 0.5, 0.0),
    "from_zero_c_tiny": (0.0, 1.0, 0.9e-14, 0.0),   # c snaps to 0
}


@pytest.mark.parametrize("kinds", _moment_kind_sets(),
                         ids=lambda ks: "-".join(k.value for k in ks))
def test_boundary_evaluation_raises_where_one_kind_does(kinds):
    def outcome(fn):
        try:
            return fn()
        except (DivergentIntegral, ValueError) as exc:
            return type(exc)

    for name, args in FAILING_BOUNDARIES.items():
        each = [outcome(lambda k=k: definite_radial(k, *args)) for k in kinds]
        raised = [o for o in each if isinstance(o, type)]
        got = outcome(lambda: _radial_differences(kinds, *args))
        if raised:
            assert got in raised and len(set(raised)) == 1, name
        else:
            assert got == each, name
    # an empty interval is definite_radial's own check, for every kind
    for kind in kinds:
        with pytest.raises(ValueError, match="empty radial interval"):
            definite_radial(kind, 1.0, 0.5, 0.5, 0.0)
