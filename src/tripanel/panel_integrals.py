"""Closed-form panel integrals of the Laplace layer kernels.

Assembles the radial primitives over a polar decomposition into moments

    I_{a,b} = int_T s1^a s2^b / (s1^2 + s2^2 + c^2)^(3/2) dS     (a + b <= 3)
    J_{a,b} = int_T s1^a s2^b / (s1^2 + s2^2 + c^2)^(1/2) dS     (a + b <= 1)

over the planar triangle T of a normalized frame, in one telescoped walk
of the decomposition (the radial primitives once per critical radius and
once per distinct (r, d) among the ends of the edge sides' runs of slabs;
J is its degree <= 1 pass with the J radial kinds), then contracts them
with the rotated target normal and a panel polynomial to evaluate

    int_panel K(x, y) p(y) dS,   K(x, y) = (x - y).n(x) / (4 pi |x - y|^3)
    int_panel G(x, y) p(y) dS,   G(x, y) = -1 / (4 pi |x - y|)

exactly (up to roundoff) for flat triangular panels.
"""

import math

import numpy as np

from .errors import DivergentIntegral
from .geometry import (PolarDecomposition, _dot3, decompose_polar, normalize_frame,
                       orient_planar, roundoff_floor)
from .radial_kernels import J1, J2, J3, R1, R2, R3, R4, R5, R6cubic, radial_primitives
# a panel_integrals attribute that bench/layers.py traces; the moments
# evaluate every kind at a radius at once through radial_primitives
from .radial_kernels import definite_radial  # noqa: F401

FOUR_PI = 4.0 * math.pi

# Monomial exponent pairs (a, b) for s1^a s2^b, by total degree.
MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
             (3, 0), (2, 1), (1, 2), (0, 3))
# the radial kinds of the 1/dist moments, in the places of R1 and (R3, R2)
_G_SLAB, _G_EDGE = (J1,), (J3, J2)
_ZERO_ABOVE_DEGREE_1 = (0.0,) * (len(MONOMIALS) - 3)


def _snap_height(c: float, dec: PolarDecomposition) -> float:
    """Treat sub-roundoff heights as exactly coplanar."""
    return 0.0 if abs(c) <= roundoff_floor(dec.slabs[-1].r_hi) else float(c)


def _check_coplanar(dec: PolarDecomposition, c: float, min_degree: int) -> None:
    """The coplanar-divergence rule: with c = 0 (snapped) and the
    decomposition starting at r = 0 (target on the closed triangle), the
    1/dist^3 moments below degree 2 have non-integrable singularities."""
    if min_degree < 2 and c == 0.0 and dec.slabs[0].r_lo == 0.0:
        raise DivergentIntegral(
            "1/dist^3 moments below degree 2 diverge for a coplanar target on "
            "the panel; use the on-surface (curved) path")


def _k_radial_kinds(min_degree: int, max_degree: int):
    """The radial kinds a slab (d = 0) and an edge boundary need for the
    1/dist^3 moments of degrees min_degree..max_degree; R2, last, only
    for the degree-0 moment."""
    return ((R1, R4, J1)[:max(1, max_degree)],
            (R3, R5, J3, R6cubic)[:max_degree + (max_degree == 3)]
            + ((R2,) if min_degree == 0 else ()))


def _primitives_at(kinds, r, c, d):
    """radial_primitives, with a leading R1 or R3 as -inf where it diverges
    (c = 0 at r = 0); no moment that the coplanar rule lets through reads it."""
    if c == 0.0 and r == 0.0 and (kinds[0] is R1 or kinds[0] is R3):
        return [-math.inf] + radial_primitives(kinds[1:], r, c, d)
    return radial_primitives(kinds, r, c, d)


def compute_k_moments(dec: PolarDecomposition, c: float, max_degree: int = 3,
                      min_degree: int = 0) -> dict:
    """The 1/dist^3 moments {(a, b): I_ab} of total degree
    min_degree..max_degree; 0.0 for the degrees not computed.

    Raises DivergentIntegral when c = 0, the decomposition starts at r = 0
    (target in the triangle's plane, on the closed triangle), and moments
    below degree 2 are requested: those have non-integrable singularities.
    Moments of degree >= 2 stay finite there (integrand ~ r^(a+b-2) dr),
    which is what the on-surface curvature correction integrates.
    """
    if max_degree not in (0, 1, 2, 3):
        raise ValueError(f"max_degree must be in 0..3, got {max_degree}")
    if min_degree not in (0, 1, 2, 3) or min_degree > max_degree:
        raise ValueError(f"min_degree must be in 0..max_degree, got {min_degree}")
    c = _snap_height(c, dec)
    _check_coplanar(dec, c, min_degree)
    return dict(zip(MONOMIALS, _moment_walk(
        dec, c, min_degree, max_degree, *_k_radial_kinds(min_degree, max_degree))))


def compute_g_moments(dec: PolarDecomposition, c: float) -> tuple[float, float, float]:
    """The 1/dist moments (j0, jx, jy); finite for any target.

    They are the degree 0..1 walk of compute_k_moments with J1, J3 and J2
    in the places of R1, R3 and R2.
    """
    return _moment_walk(dec, _snap_height(c, dec), 0, 1, _G_SLAB, _G_EDGE)[:3]


def _moment_walk(dec, c, min_degree, max_degree, slab_kinds, edge_kinds):
    """The moments of degrees min_degree..max_degree in MONOMIALS order
    (0.0 for the others), summed over the slabs and the edge-side runs of
    the decomposition.  The walk telescopes: the d = 0 slab kinds are
    evaluated once per critical radius, and the part of an edge side, whose
    d, phi, sign and start/end role are the same in every slab it bounds,
    is taken once over its run, from the edge kinds evaluated once per
    distinct (r, d) among the runs' ends."""
    prims = _primitives_at if c == 0.0 else radial_primitives  # R1, R3 finite at c != 0
    deg0, deg1 = min_degree == 0, min_degree <= 1 <= max_degree
    slab2 = max_degree >= 2 and min_degree <= 2  # the slab part of m20, m02
    upto1 = max_degree <= 1
    m00 = m10 = m01 = m20 = m11 = m02 = m30 = m21 = m12 = m03 = 0.0
    at, edge_at = {}, {}  # r -> the slab kinds at r, (r, d) -> the edge kinds
    for slab in dec.slabs:
        for r in (slab.r_lo, slab.r_hi):
            if r not in at:
                at[r] = prims(slab_kinds, r, c, 0.0)
    for slab in dec.slabs:
        p0, p1 = at[slab.r_lo], at[slab.r_hi]
        # the odd angular moments of a slab part vanish
        if deg0:
            m00 += slab.dphi * (p1[0] - p0[0])
        if slab2:
            m20 += 0.5 * slab.dphi * (p1[1] - p0[1])
    m02 = m20  # the slab parts of m20 and m02 are equal
    for sigma, bnd, r0, r1 in dec.runs:
        p0, p1 = at[r0], at[r1]
        d, phi, sgn = bnd.d, bnd.phi, bnd.sign
        lo = r0 if r0 >= d else d  # r0 >= d up to merge rounding
        # the two sides of an edge whose foot lies on it both start at r = d
        q1 = edge_at.get((r1, d))
        if q1 is None:
            q1 = edge_at[r1, d] = prims(edge_kinds, r1, c, d)
        q0 = edge_at.get((lo, d))
        if q0 is None:
            q0 = edge_at[lo, d] = prims(edge_kinds, lo, c, d)
        dR1 = p1[0] - p0[0]
        sin_p, cos_p = math.sin(phi), math.cos(phi)
        if deg0:
            m00 += sigma * sgn * (q1[-1] - q0[-1])
        dR3 = q1[0] - q0[0]  # R2 at max_degree 0, unused there
        if deg1:
            m10 += sigma * (d * sin_p * dR1 + sgn * cos_p * dR3)
            m01 += sigma * (-d * cos_p * dR1 + sgn * sin_p * dR3)
        if upto1:
            continue
        sin2, cos2 = math.sin(2.0 * phi), math.cos(2.0 * phi)
        dR4, dR5 = p1[1] - p0[1], q1[1] - q0[1]
        # dR1 and dR3 in the terms with a factor d, which vanish at d = 0
        # (where dR1 and dR3 may stand for a divergent radial)
        e1, e3 = (dR1, dR3) if d != 0.0 else (0.0, 0.0)
        edge_part = 0.5 * d * d * sin2 * e1 + 0.5 * sgn * d * cos2 * e3
        m20 += sigma * (-0.25 * sin2 * dR4 + 0.5 * sgn * dR5 + edge_part)
        m02 += sigma * (0.25 * sin2 * dR4 + 0.5 * sgn * dR5 - edge_part)
        m11 += sigma * (-0.5 * sin_p * sin_p * dR4
                        + (-0.5 * d * d * cos2 * e1 + 0.5 * sgn * d * sin2 * e3))
        if max_degree < 3:
            continue
        dJ1, dJ3, dR6 = p1[2] - p0[2], q1[2] - q0[2], q1[3] - q0[3]
        # dT integrates Q r^3 / S^3, dU integrates Q^2 r / S^3
        dT = dJ3 - c * c * dR3 if c != 0.0 else dJ3
        dU = dJ1 - (c * c + d * d) * e1
        fB = (d ** 3 * sin_p ** 3 * e1 + 3.0 * sgn * d * d * sin_p * sin_p * cos_p * e3
              + 3.0 * d * sin_p * cos_p * cos_p * dU + sgn * cos_p ** 3 * dR6) / 3.0
        fBp = (d ** 3 * cos_p ** 3 * e1 - 3.0 * sgn * d * d * cos_p * cos_p * sin_p * e3
               + 3.0 * d * cos_p * sin_p * sin_p * dU - sgn * sin_p ** 3 * dR6) / 3.0
        m30 += sigma * (d * sin_p * dR4 + sgn * cos_p * dT - fB)
        m12 += sigma * fB
        m21 += sigma * (-fBp)
        m03 += sigma * (-d * cos_p * dR4 + sgn * sin_p * dT + fBp)
    return (m00, m10, m01, m20, m11, m02, m30, m21, m12, m03)


class PanelPolynomial:
    """Polynomial on a panel, stored as a symmetric barycentric form.

    p(lam) = lam^T C lam with lam the barycentric coordinates of the
    panel's vertices (well-defined since sum(lam) = 1).  The declared
    degree marks the true total degree so frame conversion can zero out
    coefficients that are only roundoff.
    """

    def __init__(self, form, degree: int = 2):
        form = np.asarray(form, dtype=float)
        if form.shape != (3, 3):
            raise ValueError("barycentric form must be 3x3")
        if degree not in (0, 1, 2):
            raise ValueError("degree must be 0, 1 or 2")
        self.form = 0.5 * (form + form.T)
        self.degree = degree

    @classmethod
    def constant(cls, value: float) -> "PanelPolynomial":
        return cls(float(value) * np.ones((3, 3)), degree=0)

    @classmethod
    def linear(cls, vertex_values) -> "PanelPolynomial":
        """Linear interpolant of the three vertex values."""
        w = np.asarray(vertex_values, dtype=float)
        one = np.ones(3)
        return cls(0.5 * (np.outer(w, one) + np.outer(one, w)), degree=1)

    @classmethod
    def quadratic(cls, vertex_values, edge_midpoint_values) -> "PanelPolynomial":
        """Quadratic interpolant of vertex values and edge-midpoint values.

        edge_midpoint_values are at the midpoints of edges (v1,v2), (v2,v3),
        (v3,v1) in that order.
        """
        f = np.asarray(vertex_values, dtype=float)
        g = np.asarray(edge_midpoint_values, dtype=float)
        form = np.diag(f).astype(float)
        for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            form[i, j] = form[j, i] = 2.0 * g[k] - 0.5 * (f[i] + f[j])
        return cls(form, degree=2)

    def evaluate(self, lam) -> np.ndarray:
        """Evaluate at barycentric coordinates lam, shape (..., 3)."""
        lam = np.asarray(lam, dtype=float)
        return np.einsum("...i,ij,...j->...", lam, self.form, lam)

    def monomial_coeffs(self, planar_pts) -> dict:
        """Coefficients on s1^a s2^b in a planar frame.

        planar_pts holds the three planar vertex positions (a (3, 2) array
        or (x, y) pairs) in the vertex order of the barycentric form.
        Returns {(a, b): coeff} for all six monomials of degree <= 2;
        entries above the declared degree are exactly zero.
        """
        (x0, y0), (x1, y1), (x2, y2) = planar_pts
        # lam_i = (a_i s1 + b_i s2 + z_i) / det: the cofactors of the map
        # lam -> (s1, s2, 1), by the edge opposite each vertex
        det = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        # the columns of the inverse
        a = ((y1 - y2) / det, (y2 - y0) / det, (y0 - y1) / det)
        b = ((x2 - x1) / det, (x0 - x2) / det, (x1 - x0) / det)
        z = ((x1 * y2 - x2 * y1) / det, (x2 * y0 - x0 * y2) / det,
             (x0 * y1 - x1 * y0) / det)
        f0, f1, f2 = self.form.tolist()

        def form_times(u):
            return _dot3(f0, u), _dot3(f1, u), _dot3(f2, u)

        # p = (a s1 + b s2 + z)^T C (a s1 + b s2 + z); only the declared
        # degrees are formed, the others are exactly zero
        fz = form_times(z)
        coeffs = {(0, 0): _dot3(z, fz), (1, 0): 0.0, (0, 1): 0.0,
                  (2, 0): 0.0, (1, 1): 0.0, (0, 2): 0.0}
        if self.degree >= 1:
            coeffs[(1, 0)], coeffs[(0, 1)] = 2.0 * _dot3(a, fz), 2.0 * _dot3(b, fz)
        if self.degree == 2:
            fa, fb = form_times(a), form_times(b)
            coeffs[(2, 0)], coeffs[(1, 1)], coeffs[(0, 2)] = (
                _dot3(a, fa), 2.0 * _dot3(a, fb), _dot3(b, fb))
        return coeffs


def _densities(p, max_degree=2, what="panel integrals"):
    """p as a list of densities (None: the unit density), and whether the
    caller passed a list."""
    many = isinstance(p, (list, tuple))
    densities = [PanelPolynomial.constant(1.0) if h is None else h
                 for h in (p if many else [p])]
    if any(h.degree > max_degree for h in densities):
        raise ValueError(f"{what} support polynomial degree <= {max_degree} only")
    return densities, many


def _shaped(vals, many):
    return np.array(vals, dtype=float) if many else float(vals[0])


def _k_coeffs(q, c, nu, kmat=None) -> dict:
    """Monomial weights {(a, b): w} of the K numerator times one density.

    q is the density's {(a, b): coeff} in a frame with the target at
    height c above the origin and normal nu.  The numerator is
    c nu3 - nu1 s1 - nu2 s2; given the second fundamental form kmat of a
    curved patch, nu3 (-1/2 sum K_ij s_i s_j) is added to it.
    """
    groups = [(1.0, (((0, 0), c * nu[2]), ((1, 0), -nu[0]), ((0, 1), -nu[1])))]
    if kmat is not None:
        (k11, k12), (_, k22) = kmat.tolist()
        groups.insert(0, (nu[2], (((2, 0), -0.5 * k11), ((1, 1), -k12),
                                  ((0, 2), -0.5 * k22))))
    coef: dict[tuple[int, int], float] = {}
    for scale, terms in groups:
        for (a, b), qab in q.items():
            if qab == 0.0:
                continue
            for (da, db), unit in terms:
                w = unit * qab
                if w != 0.0:
                    key = (a + da, b + db)
                    coef[key] = coef.get(key, 0.0) + scale * w
    return coef


def _polar(planar_points, c):
    """The polar decomposition of a panel's planar vertices (oriented
    here) and the target height c, snapped to 0 below roundoff."""
    dec = decompose_polar(orient_planar(*planar_points))
    return dec, _snap_height(c, dec)


def _contract(m, coefs) -> list:
    """sum w_ab m_ab / (4 pi) for each weight set {(a, b): w} in coefs."""
    return [sum([w * m[ab] for ab, w in coef.items()]) / FOUR_PI for coef in coefs]


def _k_integrals(planar_points, c, nu, densities, kmat=None, min_degree=0) -> list:
    """The K integral of each density over the triangle planar_points, for
    a target at height c above the origin with normal nu (and the curved
    numerator of kmat, see _k_coeffs): the one tail of the flat,
    on-surface and off-surface paths.

    One moment set up to the highest degree any density needs serves all
    (lower-degree moments do not depend on it); a density with no weight
    gives 0.0.  Raises DivergentIntegral by the coplanar rule.
    """
    dec, c = _polar(planar_points, c)
    _check_coplanar(dec, c, min_degree)
    coefs = [_k_coeffs(h.monomial_coeffs(planar_points), c, nu, kmat) for h in densities]
    degrees = [a + b for coef in coefs for a, b in coef]
    if not degrees:
        return [0.0] * len(coefs)
    return _contract(compute_k_moments(dec, c, max(degrees), min_degree), coefs)


def integrate_k_panel(panel, target, p=None):
    """Closed-form integral of K(x, y) p(y) over a flat triangular panel.

    K(x, y) = (x - y).n(x) / (4 pi |x - y|^3) with n(x) the target normal.
    p is a PanelPolynomial (None: the unit density) or a list of them;
    a list gives a float array with one value per density, from one
    frame, decomposition and moment set.  Raises DivergentIntegral when
    the target lies in the panel plane on the closed triangle; such
    targets must go through the on-surface path.
    """
    densities, many = _densities(p)
    if target.n is None:
        raise ValueError("K-kernel integration needs a target normal")
    frame = normalize_frame(panel, target)
    return _shaped(_k_integrals(frame.planar_points, frame.c,
                                frame.rotated_target_normal, densities), many)


def integrate_g_panel(panel, target, p=None):
    """Closed-form integral of G(x, y) p(y) = -p(y) / (4 pi |x - y|).

    Valid for any target position, including on the panel; p must have
    degree <= 1.  p may be a list of densities, as in integrate_k_panel.
    """
    densities, many = _densities(p, 1, "G-kernel panel integrals")
    frame = normalize_frame(panel, target)
    dec, c = _polar(frame.planar_points, frame.c)
    # with the numerator -1, a density's monomial coefficients are its
    # weights; above degree 1 they are zero, and so are the moments read
    j = dict(zip(MONOMIALS, compute_g_moments(dec, c) + _ZERO_ABOVE_DEGREE_1))
    coefs = [h.monomial_coeffs(frame.planar_points) for h in densities]
    return _shaped([-v for v in _contract(j, coefs)], many)
