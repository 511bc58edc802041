"""Closed-form panel integrals of the Laplace layer kernels.

Assembles the radial primitives over a polar decomposition into moments

    I_{a,b} = int_T s1^a s2^b / (s1^2 + s2^2 + c^2)^(3/2) dS     (a + b <= 3)
    J_{a,b} = int_T s1^a s2^b / (s1^2 + s2^2 + c^2)^(1/2) dS     (a + b <= 1)

over the planar triangle T of a normalized frame, then contracts them with
the rotated target normal and a panel polynomial to evaluate

    int_panel K(x, y) p(y) dS,   K(x, y) = (x - y).n(x) / (4 pi |x - y|^3)
    int_panel G(x, y) p(y) dS,   G(x, y) = -1 / (4 pi |x - y|)

exactly (up to roundoff) for flat triangular panels.
"""

import math

import numpy as np

from .errors import DivergentIntegral
from .geometry import PolarDecomposition, decompose_polar, normalize_frame, roundoff_floor
from .radial_kernels import J1, J2, J3, R1, R2, R3, R4, R5, R6cubic, definite_radials
# a panel_integrals attribute that bench/layers.py traces; the moments
# evaluate every kind of a boundary at once through definite_radials
from .radial_kernels import definite_radial  # noqa: F401

FOUR_PI = 4.0 * math.pi

# Monomial exponent pairs (a, b) for s1^a s2^b, by total degree.
MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
             (3, 0), (2, 1), (1, 2), (0, 3))
_G_SLAB, _G_EDGE = (J1,), (J2, J3)  # the radial kinds of the 1/dist moments


class MomentSet(dict):
    """Moments of 1/dist^3 against s1^a s2^b, keyed by (a, b); 0.0 for the
    degrees not computed."""

    def k_moment(self, a: int, b: int) -> float:
        return self[(a, b)]


def _snap_height(c: float, dec: PolarDecomposition) -> float:
    """Treat sub-roundoff heights as exactly coplanar."""
    return 0.0 if abs(c) <= roundoff_floor(dec.slabs[-1].r_hi) else float(c)


def _k_radial_kinds(min_degree: int, max_degree: int):
    """The radial kinds a slab (d = 0) and an edge boundary need for the
    1/dist^3 moments of degrees min_degree..max_degree; R2, last, only
    for the degree-0 moment."""
    return ((R1, R4, J1)[:max(1, max_degree)],
            (R3, R5, J3, R6cubic)[:max_degree + (max_degree == 3)]
            + ((R2,) if min_degree == 0 else ()))


def _radials(kinds, r_lo, r_hi, c, d):
    """definite_radials, with a leading R1 or R3 taken as infinite where
    it diverges (c = 0 with the interval reaching r = 0): every use of
    it then carries a d = 0 or c = 0 coefficient, so it is never touched."""
    if c == 0.0 and r_lo == 0.0 and (kinds[0] is R1 or kinds[0] is R3):
        return [math.inf] + definite_radials(kinds[1:], r_lo, r_hi, c, d)
    return definite_radials(kinds, r_lo, r_hi, c, d)


def compute_k_moments(dec: PolarDecomposition, c: float, max_degree: int = 3,
                      min_degree: int = 0) -> MomentSet:
    """Assemble the 1/dist^3 moments of total degree min_degree..max_degree.

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
    on_triangle = c == 0.0 and dec.slabs[0].r_lo == 0.0
    if on_triangle and min_degree < 2:
        raise DivergentIntegral(
            "1/dist^3 moments below degree 2 diverge for a coplanar "
            "target on the triangle")
    slab_kinds, edge_kinds = _k_radial_kinds(min_degree, max_degree)
    m00 = m10 = m01 = m20 = m11 = m02 = m30 = m21 = m12 = m03 = 0.0
    for slab in dec.slabs:
        r0, r1 = slab.r_lo, slab.r_hi
        radial = _radials(slab_kinds, r0, r1, c, 0.0)
        dR1 = radial[0]
        dR4 = radial[1] if max_degree >= 2 else 0.0
        dJ1 = radial[2] if max_degree >= 3 else 0.0
        if slab.full_circle:
            if min_degree == 0:
                m00 += 2.0 * math.pi * dR1
            if max_degree >= 2 and min_degree <= 2:
                half = math.pi * dR4
                m20 += half
                m02 += half
            # odd angular moments vanish over the full circle
            continue
        for seg in slab.segments:
            if min_degree == 0:
                m00 += seg.dphi * dR1
            if max_degree >= 2 and min_degree <= 2:
                m20 += 0.5 * seg.dphi * dR4
                m02 += 0.5 * seg.dphi * dR4
            for sigma, bnd in ((1.0, seg.end), (-1.0, seg.start)):
                d, phi, sgn = bnd.d, bnd.phi, float(bnd.sign)
                lo = max(r0, d)  # r0 >= d up to merge rounding
                radial = _radials(edge_kinds, lo, r1, c, d)
                sin_p, cos_p = math.sin(phi), math.cos(phi)
                if min_degree == 0:
                    m00 += sigma * sgn * radial[-1]
                if max_degree < 1:
                    continue
                dR3 = radial[0]
                if min_degree <= 1:
                    m10 += sigma * (d * sin_p * dR1 + sgn * cos_p * dR3)
                    m01 += sigma * (-d * cos_p * dR1 + sgn * sin_p * dR3)
                if max_degree < 2:
                    continue
                sin2, cos2 = math.sin(2.0 * phi), math.cos(2.0 * phi)
                dR5 = radial[1]
                edge_part = (0.5 * d * d * sin2 * dR1
                             + 0.5 * sgn * d * cos2 * dR3) if d != 0.0 else 0.0
                m20 += sigma * (-0.25 * sin2 * dR4 + 0.5 * sgn * dR5 + edge_part)
                m02 += sigma * (0.25 * sin2 * dR4 + 0.5 * sgn * dR5 - edge_part)
                m11 += sigma * (-0.5 * sin_p * sin_p * dR4
                                + ((-0.5 * d * d * cos2 * dR1
                                    + 0.5 * sgn * d * sin2 * dR3)
                                   if d != 0.0 else 0.0))
                if max_degree < 3:
                    continue
                dJ3, dR6 = radial[2], radial[3]
                # dT integrates Q r^3 / S^3, dU integrates Q^2 r / S^3
                dT = dJ3 - c * c * dR3 if c != 0.0 else dJ3
                if d != 0.0:
                    dU = dJ1 - (c * c + d * d) * dR1
                    fB = (d ** 3 * sin_p ** 3 * dR1
                          + 3.0 * sgn * d * d * sin_p * sin_p * cos_p * dR3
                          + 3.0 * d * sin_p * cos_p * cos_p * dU
                          + sgn * cos_p ** 3 * dR6) / 3.0
                    fBp = (d ** 3 * cos_p ** 3 * dR1
                           - 3.0 * sgn * d * d * cos_p * cos_p * sin_p * dR3
                           + 3.0 * d * cos_p * sin_p * sin_p * dU
                           - sgn * sin_p ** 3 * dR6) / 3.0
                else:
                    fB = sgn * cos_p ** 3 * dR6 / 3.0
                    fBp = -sgn * sin_p ** 3 * dR6 / 3.0
                m30 += sigma * (d * sin_p * dR4 + sgn * cos_p * dT - fB)
                m12 += sigma * fB
                m21 += sigma * (-fBp)
                m03 += sigma * (-d * cos_p * dR4 + sgn * sin_p * dT + fBp)
    return MomentSet(zip(MONOMIALS, (m00, m10, m01, m20, m11, m02,
                                     m30, m21, m12, m03)))


def compute_g_moments(dec: PolarDecomposition, c: float) -> tuple[float, float, float]:
    """Assemble the 1/dist moments (j0, jx, jy); finite for any target."""
    c = _snap_height(c, dec)
    j0 = jx = jy = 0.0
    for slab in dec.slabs:
        r0, r1 = slab.r_lo, slab.r_hi
        dJ1 = definite_radials(_G_SLAB, r0, r1, c, 0.0)[0]
        if slab.full_circle:
            j0 += 2.0 * math.pi * dJ1
            continue
        for seg in slab.segments:
            j0 += seg.dphi * dJ1
            for sigma, bnd in ((1.0, seg.end), (-1.0, seg.start)):
                d, phi, sgn = bnd.d, bnd.phi, float(bnd.sign)
                lo = max(r0, d)
                sin_p, cos_p = math.sin(phi), math.cos(phi)
                dJ2, dJ3 = definite_radials(_G_EDGE, lo, r1, c, d)
                j0 += sigma * sgn * dJ2
                jx += sigma * (d * sin_p * dJ1 + sgn * cos_p * dJ3)
                jy += sigma * (-d * cos_p * dJ1 + sgn * sin_p * dJ3)
    return j0, jx, jy


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
        cof = ((y1 - y2, y2 - y0, y0 - y1), (x2 - x1, x0 - x2, x1 - x0),
               (x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0))
        aff = [[v / det for v in col] for col in cof]  # columns of the inverse
        form = self.form.tolist()
        fa = [[f[0] * col[0] + f[1] * col[1] + f[2] * col[2] for f in form] for col in aff]

        def cp(i, j):
            return aff[i][0] * fa[j][0] + aff[i][1] * fa[j][1] + aff[i][2] * fa[j][2]

        coeffs = {(0, 0): cp(2, 2), (1, 0): 2.0 * cp(0, 2), (0, 1): 2.0 * cp(1, 2),
                  (2, 0): cp(0, 0), (1, 1): 2.0 * cp(0, 1), (0, 2): cp(1, 1)}
        for (a, b) in coeffs:
            if a + b > self.degree:
                coeffs[(a, b)] = 0.0
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
        groups.insert(0, (nu[2], (((2, 0), -0.5 * kmat[0, 0]), ((1, 1), -kmat[0, 1]),
                                  ((0, 2), -0.5 * kmat[1, 1]))))
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


def _k_contract(dec, c, coefs, min_degree=0) -> list:
    """sum w_ab I_ab / (4 pi) for each weight set in coefs, from one moment
    set up to the highest degree any needs (lower-degree moments do not
    depend on it); an empty set gives 0.0."""
    degrees = [a + b for coef in coefs for a, b in coef]
    if not degrees:
        return [0.0] * len(coefs)
    m = compute_k_moments(dec, c, max_degree=max(degrees), min_degree=min_degree)
    return [sum(w * m.k_moment(a, b) for (a, b), w in coef.items()) / FOUR_PI
            for coef in coefs]


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
    dec = decompose_polar(frame.planar_triangle)
    c = _snap_height(frame.c, dec)
    if c == 0.0 and dec.slabs[0].r_lo == 0.0:
        raise DivergentIntegral(
            "coplanar target on the panel; use the on-surface (curved) path")
    nu = frame.rotated_target_normal
    coefs = [_k_coeffs(h.monomial_coeffs(frame.planar_points), c, nu)
             for h in densities]
    return _shaped(_k_contract(dec, c, coefs), many)


def integrate_g_panel(panel, target, p=None):
    """Closed-form integral of G(x, y) p(y) = -p(y) / (4 pi |x - y|).

    Valid for any target position, including on the panel; p must have
    degree <= 1.  p may be a list of densities, as in integrate_k_panel.
    """
    densities, many = _densities(p, 1, "G-kernel panel integrals")
    frame = normalize_frame(panel, target)
    dec = decompose_polar(frame.planar_triangle)
    c = _snap_height(frame.c, dec)
    j0, jx, jy = compute_g_moments(dec, c)
    vals = []
    for h in densities:
        q = h.monomial_coeffs(frame.planar_points)
        vals.append(-(q[(0, 0)] * j0 + q[(1, 0)] * jx + q[(0, 1)] * jy) / FOUR_PI)
    return _shaped(vals, many)
