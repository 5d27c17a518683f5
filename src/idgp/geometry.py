"""Sequential placement primitives, the signed dihedral and torsion sampling.

Torsion sign convention: tau = 0 is the cis (coplanar, same side as the
great-grandparent atom) placement, tau = pi is trans, and the placements
for tau and -tau are mirror images across the predecessor plane. The
signed dihedral below is the exact inverse of `place_atom` on (-pi, pi].
"""

import math

import numpy as np

from .model import DegenerateGeometryError

_COLLINEAR_TOL = 1e-12


def place_first_three(d12: float, d23: float, theta3: float):
    """Fix atoms 1-3 in the xy-plane, removing rigid-motion freedom."""
    if d12 <= 0 or d23 <= 0:
        raise DegenerateGeometryError("nonpositive bond length")
    if not (0.0 < theta3 < math.pi):
        raise DegenerateGeometryError("bond angle outside (0, pi)")
    x1 = np.zeros(3)
    x2 = np.array([-d12, 0.0, 0.0])
    x3 = np.array([-d12 + d23 * math.cos(theta3), d23 * math.sin(theta3), 0.0])
    return x1, x2, x3


def local_frame(x_im3, x_im2, x_im1) -> tuple:
    """Orthonormal frame at x_{i-1} of three points, each three floats, as
    nine Python floats: e (chain direction), n (predecessor-plane normal)
    and m = n x e (in-plane), three components each."""
    (a0, a1, a2), (b0, b1, b2), (p0, p1, p2) = x_im3, x_im2, x_im1
    v0, v1, v2 = p0 - b0, p1 - b1, p2 - b2
    w0, w1, w2 = a0 - b0, a1 - b1, a2 - b2
    c0, c1, c2 = v1 * w2 - v2 * w1, v2 * w0 - v0 * w2, v0 * w1 - v1 * w0
    cn = math.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    if cn <= _COLLINEAR_TOL:
        raise DegenerateGeometryError("collinear predecessors")
    vn = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    e0, e1, e2 = v0 / vn, v1 / vn, v2 / vn
    n0, n1, n2 = c0 / cn, c1 / cn, c2 / cn
    return (e0, e1, e2, n0, n1, n2,
            n1 * e2 - n2 * e1, n2 * e0 - n0 * e2, n0 * e1 - n1 * e0)


def place_local(frame, x_im1, local) -> tuple:
    """The point x_{i-1} + e l0 + n l1 + m l2 of local coordinates `local`
    (three floats) in `frame` (`local_frame`), as three floats summed left
    to right."""
    e0, e1, e2, n0, n1, n2, m0, m1, m2 = frame
    (p0, p1, p2), (l0, l1, l2) = x_im1, local
    return (p0 + e0 * l0 + n0 * l1 + m0 * l2,
            p1 + e1 * l0 + n1 * l1 + m1 * l2,
            p2 + e2 * l0 + n2 * l1 + m2 * l2)


def place_atom(x_im3, x_im2, x_im1, d: float, theta: float, tau: float):
    """Place atom i at distance d and bond angle theta from x_{i-1}, with
    torsion tau about the x_{i-2}->x_{i-1} axis."""
    if d <= 0:
        raise DegenerateGeometryError("nonpositive distance")
    if not (0.0 < theta < math.pi):
        raise DegenerateGeometryError("bond angle outside (0, pi)")
    points = [np.asarray(x, dtype=float).tolist() for x in (x_im3, x_im2, x_im1)]
    s = d * math.sin(theta)
    # sin(tau) rides the plane normal n; cos(tau) the in-plane axis m
    local = -d * math.cos(theta), s * math.sin(tau), s * math.cos(tau)
    return np.array(place_local(local_frame(*points), points[2], local))


def place_atoms_batch(frame, x_im1, local):
    """`place_local` over a 3 x k block of local coordinates; returns 3 x k.
    Each column takes `place_local`'s operations in its order, elementwise,
    so it equals `place_local` of that column bit for bit."""
    f = np.array((*x_im1, *frame)).reshape(4, 3, 1)  # p, e, n, m as 3 x 1 columns
    out = f[1] * local[0]
    out += f[0]  # e l0 + p rounds as p + e l0
    out += f[2] * local[1]
    out += f[3] * local[2]
    return out


def _local_table(axial, radial, taus) -> np.ndarray:
    """Local coordinates (k x 3 x size) of k atoms' k x size torsions `taus`: block
    r is (axial[r], radial[r] sin tau, radial[r] cos tau) for `place_atoms_batch`."""
    local = np.empty((taus.shape[0], 3, taus.shape[1]))
    local[:, 0] = axial[:, None]
    np.multiply(radial[:, None], np.sin(taus), out=local[:, 1])
    np.multiply(radial[:, None], np.cos(taus), out=local[:, 2])
    return local


def reflect_tail(X: np.ndarray, i: int) -> np.ndarray:
    """A copy of the float 3 x n coordinates X with atoms i..n (1-based, i >= 4)
    mirrored through the plane of atoms i-3, i-2, i-1.

    Atoms 1..i-1 are copied bit for bit. In exact arithmetic the mirror
    negates every torsion of atoms i..n and keeps every distance within
    atoms 1..i-1 and within atoms i-3..n; rounding moves the reflected
    atoms by a few ulps.
    """
    u = np.array(local_frame(*X[:, i - 4:i - 1].T.tolist())[3:6])  # plane normal
    Y = X.copy()
    tail = Y[:, i - 1:]
    tail -= np.outer(2.0 * u, u @ (tail - X[:, i - 2, None]))
    return Y


def dihedral(a, b, c, d) -> float:
    """Signed torsion of the quadruple (a, b, c, d) in (-pi, pi].

    Sign fixed so that dihedral(place_atom(..., tau)) == tau; with this
    convention a planar cis quadruple measures 0 and trans measures pi.
    """
    b1 = np.asarray(b) - np.asarray(a)
    b2 = np.asarray(c) - np.asarray(b)
    b3 = np.asarray(d) - np.asarray(c)
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    if np.linalg.norm(n1) <= _COLLINEAR_TOL or np.linalg.norm(n2) <= _COLLINEAR_TOL:
        raise DegenerateGeometryError("degenerate quadruple")
    m = np.cross(n1, b2 / np.linalg.norm(b2))
    x = float(np.dot(n1, n2))
    y = float(np.dot(m, n2))
    # negate y for the place_atom convention; keep signed zero out of atan2
    # so the trans case lands on +pi, not -pi
    return math.atan2(-y if y != 0.0 else 0.0, x)


def sample_torsions(lo, hi, symmetric, rng, size: int) -> np.ndarray:
    """Draw `size` torsions uniformly over each of k domains; returns k x size.

    Row r is the domain [lo[r], hi[r]] or, where `symmetric[r]`, the union
    [-hi[r], -lo[r]] u [lo[r], hi[r]]. Each torsion, point rows too, takes one
    64-bit word w of one `random_raw` call, in row order, so a call advances
    the generator by exactly k * size words. The torsion is
    lo + (hi - lo) * ((w >> 11) * 2**-53), as `rng.uniform` draws it, negated
    on a symmetric row when bit 0 of w is set; a symmetric {0} row may give
    -0.0. `random_raw` needs the PCG64 bit generator of
    `np.random.default_rng`; any other raises TypeError.
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64:
        raise TypeError(f"sample_torsions needs PCG64, not {type(bg).__name__}")
    lo = np.asarray(lo, dtype=float)[:, None]
    hi = np.asarray(hi, dtype=float)[:, None]
    words = bg.random_raw((lo.shape[0], size))
    out = lo + (hi - lo) * ((words >> np.uint64(11)) * 2.0**-53)
    negate = (words & np.uint64(1)).astype(bool) & np.asarray(symmetric, dtype=bool)[:, None]
    return np.where(negate, -out, out)
