"""Sequential placement primitives and torsion/distance conversions.

Torsion sign convention: tau = 0 is the cis (coplanar, same side as the
great-grandparent atom) placement, tau = pi is trans, and the placements
for tau and -tau are mirror images across the predecessor plane. The
signed dihedral below is the exact inverse of `place_atom` on (-pi, pi].
"""

import math

import numpy as np

from .model import (
    DegenerateGeometryError,
    InfeasibleDiscretizationError,
    TorsionDomain,
)

_COLLINEAR_TOL = 1e-12
_COS_CLAMP_TOL = 1e-9


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


def local_frame(x_im3, x_im2, x_im1) -> np.ndarray:
    """Orthonormal frame at x_{i-1}: columns u1 (chain direction),
    u2 (predecessor-plane normal), u3 = u2 x u1 (in-plane)."""
    (a0, a1, a2), (b0, b1, b2) = x_im3.tolist(), x_im2.tolist()
    p0, p1, p2 = x_im1.tolist()
    v0, v1, v2 = p0 - b0, p1 - b1, p2 - b2
    w0, w1, w2 = a0 - b0, a1 - b1, a2 - b2
    # the np.cross formula, term for term, in Python floats
    c0, c1, c2 = v1 * w2 - v2 * w1, v2 * w0 - v0 * w2, v0 * w1 - v1 * w0
    # norms as np.linalg.norm takes them: sqrt of ndarray.dot, the BLAS ddot,
    # which may fuse multiply-adds; a Python sum of squares rounds differently
    c = np.array((c0, c1, c2))
    cn = math.sqrt(c.dot(c))
    if cn <= _COLLINEAR_TOL:
        raise DegenerateGeometryError("collinear predecessors")
    v = np.array((v0, v1, v2))
    vn = math.sqrt(v.dot(v))
    e0, e1, e2 = v0 / vn, v1 / vn, v2 / vn
    n0, n1, n2 = c0 / cn, c1 / cn, c2 / cn
    return np.array((e0, n0, n1 * e2 - n2 * e1,
                     e1, n1, n2 * e0 - n0 * e2,
                     e2, n2, n0 * e1 - n1 * e0)).reshape(3, 3)


def place_atom(x_im3, x_im2, x_im1, d: float, theta: float, tau: float):
    """Place atom i at distance d and bond angle theta from x_{i-1}, with
    torsion tau about the x_{i-2}->x_{i-1} axis."""
    if d <= 0:
        raise DegenerateGeometryError("nonpositive distance")
    if not (0.0 < theta < math.pi):
        raise DegenerateGeometryError("bond angle outside (0, pi)")
    U = local_frame(x_im3, x_im2, x_im1)
    s = d * math.sin(theta)
    # sin(tau) rides the plane normal (u2); cos(tau) the in-plane axis (u3)
    local = np.array([-d * math.cos(theta), s * math.sin(tau), s * math.cos(tau)])
    return x_im1 + U @ local


def place_atoms_batch(x_im3, x_im2, x_im1, local):
    """`place_atom` over a 3 x k block of local coordinates; returns 3 x k."""
    return x_im1[:, None] + local_frame(x_im3, x_im2, x_im1) @ local


def _local_table(axial, radial, taus) -> np.ndarray:
    """Local coordinates (k x 3 x size) of k atoms' k x size torsions `taus`: block
    r is (axial[r], radial[r] sin tau, radial[r] cos tau) for `place_atoms_batch`."""
    local = np.empty((taus.shape[0], 3, taus.shape[1]))
    local[:, 0] = axial[:, None]
    np.multiply(radial[:, None], np.sin(taus), out=local[:, 1])
    np.multiply(radial[:, None], np.cos(taus), out=local[:, 2])
    return local


def reflect_tail(X, i: int) -> np.ndarray:
    """A copy of the 3 x n coordinates X with atoms i..n (1-based, i >= 4)
    mirrored through the plane of atoms i-3, i-2, i-1.

    Atoms 1..i-1 are copied bit for bit. In exact arithmetic the mirror
    negates every torsion of atoms i..n and keeps every distance within
    atoms 1..i-1 and within atoms i-3..n; rounding moves the reflected
    atoms by a few ulps.
    """
    X = np.asarray(X, dtype=float)
    u = local_frame(X[:, i - 4], X[:, i - 3], X[:, i - 2])[:, 1]  # plane normal
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


def cos_affine_coefficients(x_im3, x_im2, x_im1, d: float, theta: float):
    """Coefficients (a, b) of ||x_i - x_{i-3}||^2 = a + b cos(tau) for atom i
    placed at distance d and bond angle theta after the given predecessors.

    Computed from two placements (tau = 0 and pi); exact because the
    relation is affine in cos(tau).
    """
    d0 = float(np.linalg.norm(place_atom(x_im3, x_im2, x_im1, d, theta, 0.0) - x_im3))
    dpi = float(np.linalg.norm(place_atom(x_im3, x_im2, x_im1, d, theta, math.pi)
                               - x_im3))
    return 0.5 * (d0 * d0 + dpi * dpi), 0.5 * (d0 * d0 - dpi * dpi)


def torsion_domain_from_distance(inst, i: int) -> TorsionDomain:
    """Invert the d_{i-3,i} interval into a sign-symmetric torsion domain."""
    e = inst.edge(i - 3, i)
    # any predecessor triple with the instance's lengths and angle will do
    triple = place_first_three(inst.edge(i - 3, i - 2).lower,
                               inst.edge(i - 2, i - 1).lower, inst.bond_angles[i - 1])
    a, b = cos_affine_coefficients(*triple, inst.edge(i - 1, i).lower,
                                   inst.bond_angles[i])
    s_lo, s_up = e.lower * e.lower, e.upper * e.upper

    if abs(b) <= _COLLINEAR_TOL:
        # distance independent of tau; either everything or nothing is feasible
        if s_lo - _COS_CLAMP_TOL <= a <= s_up + _COS_CLAMP_TOL:
            return TorsionDomain.symmetric(0.0, math.pi)
        raise InfeasibleDiscretizationError(
            f"edge ({e.i},{e.j}) unreachable by any torsion")

    c1 = (s_lo - a) / b
    c2 = (s_up - a) / b
    c_lo, c_hi = min(c1, c2), max(c1, c2)
    if c_hi < -1.0 - _COS_CLAMP_TOL or c_lo > 1.0 + _COS_CLAMP_TOL:
        raise InfeasibleDiscretizationError(
            f"edge ({e.i},{e.j}) bounds [{e.lower},{e.upper}] outside the "
            f"reachable distance range")
    c_lo = min(1.0, max(-1.0, c_lo))
    c_hi = min(1.0, max(-1.0, c_hi))

    if e.exact:
        t = math.acos(min(1.0, max(-1.0, (s_lo - a) / b)))
        return TorsionDomain.symmetric(t, t)
    return TorsionDomain.symmetric(math.acos(c_hi), math.acos(c_lo))


def sample_torsions(lo, hi, symmetric, rng, size: int) -> np.ndarray:
    """Draw `size` torsions uniformly over each of k domains; returns k x size.

    Row r is the domain [lo[r], hi[r]] or, where `symmetric[r]`, the union
    [-hi[r], -lo[r]] u [lo[r], hi[r]], whose sides are picked with p = 1/2.
    Values, generator state and every later draw are bit-identical to k
    per-domain calls in row order, each `rng.integers(0, 2, size)` for the
    signs of a symmetric domain, then `rng.uniform(lo, hi, size)` unless the
    domain is a point; symmetric {0} draws nothing and gives +0.0.

    The draws come from one `random_raw` call, which needs the PCG64 bit
    generator of `np.random.default_rng`: a uniform is
    lo + (hi - lo) * ((w >> 11) * 2**-53) of one raw 64-bit word w, and a
    sign is bit 31 of a 32-bit word that PCG64 takes from the low half of a
    fresh raw word, keeping the high half (`has_uint32`/`uinteger` of its
    state) for the next one. Any other bit generator raises TypeError.
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64:
        raise TypeError(f"sample_torsions needs PCG64, not {type(bg).__name__}")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    symmetric = np.asarray(symmetric, dtype=bool)
    k = lo.size
    uniform = lo != hi
    signed = symmetric & (hi != 0.0)
    n_signs = np.count_nonzero(signed) * size
    # raw words of each row: its sign words first, then its uniforms
    counts = np.zeros((k, 2), dtype=np.int64)
    counts[:, 1] = uniform * size
    if n_signs:
        state = bg.state
        buffered = state["has_uint32"]
        # raw words the signs take through each row's end: the sign words
        # so far, less the buffered one if any, two to a raw word
        raw_to = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(signed, out=raw_to[1:])
        raw_to = (raw_to * size - buffered + 1) // 2
        counts[:, 0] = raw_to[1:] - raw_to[:-1]
    ends = counts.cumsum()
    words = bg.random_raw(counts.sum())

    if words.size:
        # a row's uniforms start where its sign words end; rows without
        # uniforms read clipped garbage, and keep lo
        at = ends[0::2, None] + np.arange(size)
        u = (words.take(at, mode="clip") >> np.uint64(11)) * 2.0**-53
        out = np.where(uniform[:, None], lo[:, None] + (hi - lo)[:, None] * u,
                       lo[:, None])
    else:
        out = np.repeat(lo[:, None], size, axis=1)
    if n_signs:
        is_sign = np.zeros((k, 2), dtype=bool)
        is_sign[:, 0] = True
        sign_words = words[is_sign.ravel().repeat(counts.ravel())]
        # the low then the high half of each raw word, bit 31 of each
        bits = sign_words.astype("<u8", copy=False).view("<u4") >> np.uint32(31)
        if buffered:
            bits = np.concatenate(((state["uinteger"] >> 31,), bits))
        out[signed] *= (2.0 * bits[:n_signs] - 1.0).reshape(-1, size)
        # an odd count of fresh words leaves the last high half buffered;
        # an even one has taken it, and PCG64 keeps it as a stale value
        state = bg.state
        state["has_uint32"] = (n_signs - buffered) % 2
        if sign_words.size:
            state["uinteger"] = int(sign_words[-1] >> np.uint64(32))
        bg.state = state
    out[symmetric & ~signed] = 0.0
    return out
