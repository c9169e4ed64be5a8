"""Per-mean upper bounds on the local L_q error, behind one entry,
error_bounds: the screen of every sweep (sweep._screened_max).  Each
bound's derivation is in its docstring."""

from __future__ import annotations

import math

import numpy as np

from .distribution import _folded_sines, _index_tables
from .numerics import _median_cdf

# Means x columns per numpy pass of the boosted bound, which measured fastest.
_BOUND_ENTRIES = 2**13


def error_bounds(M: int, q: float, n: int, a, sigma, s, integral) -> np.ndarray | None:
    """Upper bounds on the local L_q errors of the means a under 2n+1 runs,
    or None where n >= 1 and the boosted bound has more columns than the
    median step's floor(M/2) + 1 (M <= 29, but for 26 and 27): a bound
    that costs more columns than the kernel it would spare does not pay
    (the timings are in ROADMAP).  An integral row's error and bound are
    exactly 0; the bounds see sigma = s = 1/2 there, so every cotangent is
    finite."""
    sigma, s = (np.where(integral, 0.5, x) for x in (sigma, s))
    if not n:
        u = _error_bounds(M, q, a, sigma, s)
    else:
        columns = 2 * len(_bound_offsets(M))
        if columns > M // 2 + 1:
            return None
        rows = max(1, _BOUND_ENTRIES // columns)
        blocks = (slice(i, i + rows) for i in range(0, len(a), rows))
        u = np.concatenate([_median_error_bounds(M, q, n, a[b], sigma[b], s[b]) for b in blocks])
    return np.where(integral, 0.0, u)


def _error_bounds(M: int, q: float, a, sigma, s) -> np.ndarray:
    """Upper bounds U on the local L_q errors of the means a, of
    nonintegral sigma, in O(1) each.

    With x_j = pi (j - sigma)/M and y_j = pi (j + sigma)/M, the error
    |a - output(j)| is |sin x_j sin y_j| and p(j) = sin^2(pi s)/(2 M^2)
    (csc^2 x_j + csc^2 y_j), where y_j = x_j + 2 theta.

    q = 2: sum_j p(j) sin^2 x_j sin^2 y_j = sin^2(pi s)/(2 M^2) sum_j
    (sin^2 x_j + sin^2 y_j), and sum_j sin^2(pi (j -+ sigma)/M) = M/2
    for every sigma, so e_2 = |sin(pi s)| / sqrt(2 M) exactly.

    q = 1: e_1 = sin^2(pi s)/(2 M^2) sum_j (|sin y_j / sin x_j| +
    |sin x_j / sin y_j|), and sin(x + 2 theta)/sin x = f(x) = c + d cot x
    with c = cos 2 theta, d = sin 2 theta >= 0, a pi-periodic function.
    The offsets (j - sigma) mod M run over i + u, i = 0 .. M-1, with
    u = 1 - s_lo and s_lo = sigma - floor(sigma); the second ratio sum is
    the first with i -> M-1-i.  So e_1 = sin^2(pi s) S / M^2, with
    S = sum_i |f(x_i)|, x_i = h (i + u) and h = pi/M.
      f decreases on (0, pi) and vanishes once, at x0 = pi - 2 theta, and
    x_i < x0 iff i < K = M - 1 - 2 floor(sigma), an integer count.  Let A
    and B be the sums of |f| over the K points left of x0 and the M - K
    right of it.  sum_i cot(pi (i + u)/M) = M cot(pi u), so T = sum_i
    f(x_i) = M (c + d cot(pi u)) = A - B, and S = 2 A - T = 2 B + T.
      Bound the side on which |f| is convex.  When sigma > M/4, x0 <
    pi/2 and that side is A.  Otherwise it is B, which x -> pi - x turns
    into the same sum with c -> -c, u -> s_lo and K -> M - K.  On the
    bounded side keep the terms i = 0, 1 and K-1 exactly.  cot is convex
    on (0, pi/2], so by Hermite-Hadamard each term i = 2 .. K-2 is at
    most the mean of f over [x_i - h/2, x_i + h/2]; these cover
    [h (3/2 + u), h (K - 3/2 + u)], left of x0 - h/2, and integrating f
    gives c (K - 3) + (d/h) ln(sin(h (K - 3/2 + u)) / sin(h (3/2 + u)))
    for their sum.  Up to M = 6 every term is exact, and so is U_1 = e_1 =
    1/M at a = 1 with odd M; above, U_1 is close to e_1 (how close is
    measured in ROADMAP).
      Precision near a pole (s_lo or u near 0) and near a = 1: cot(pi u)
    is -+ 1/tan(pi s), the sign by the side of 1/2 that s_lo is on, not
    a cotangent of 1 - s_lo rounded; and d = 2 sin(pi sigma/M) sin(pi
    (M/2 - sigma)/M) and c = 1 - 2 sin^2(pi sigma/M) follow the sigma
    that the kernel uses, where 2 sqrt(a (1 - a)) does not.

    1 < q < 2: the L_q norm interpolates between L_1 and L_2 (Hoelder,
    1/q = (2/q - 1)/1 + (2 - 2/q)/2), so e_q <= U_1^(2/q-1) U_2^(2-2/q).

    q > 2: |a - output| <= max(a, 1 - a), so e_q^q <= max(a, 1 - a)^(q-2)
    e_2^2 and e_q <= max(a, 1 - a)^(1-2/q) U_2^(2/q); at q = inf this is
    max(a, 1 - a), which also bounds the supremum error.
    """
    sin2 = np.sin(np.pi * s) ** 2
    u2 = np.sqrt(sin2 / (2.0 * M))
    if q >= 2.0:
        return np.maximum(a, 1.0 - a) ** (1.0 - 2.0 / q) * u2 ** (2.0 / q)
    m = np.floor(sigma)
    s_lo = sigma - m
    K = M - 1 - 2 * m.astype(np.int64)
    t = math.pi / M
    sin_theta = np.sin(t * sigma)
    c = 1.0 - 2.0 * sin_theta**2
    d = 2.0 * sin_theta * np.sin(t * (M / 2.0 - sigma))
    T = M * (c + d * np.where(s_lo > 0.5, 1.0, -1.0) / np.tan(np.pi * s))
    left = sigma > M / 4.0
    part = _convex_side_bound(
        M, np.where(left, c, -c), d, np.where(left, 1.0 - s_lo, s_lo), np.where(left, K, M - K)
    )
    u1 = sin2 / (M * M) * (2.0 * part + np.where(left, -T, T))
    return u1 ** (2.0 / q - 1.0) * u2 ** (2.0 - 2.0 / q)


def _convex_side_bound(M: int, c, d, v, K) -> np.ndarray:
    """Upper bound on sum_{i<K} (c + d cot(x_i)), x_i = pi (i + v)/M, when
    the K points lie left of the zero of c + d cot and x_{K-1} - pi/(2M)
    <= pi/2 (_error_bounds): terms 0, 1 and K-1 exact, the ones between
    by their Hermite-Hadamard integral."""
    h = math.pi / M
    inner = np.maximum(K - 3, 0)
    lo = h * (1.5 + v)
    total = c * inner + d / h * np.log(np.sin(lo + h * inner) / np.sin(lo))
    for i, present in ((0, K > 0), (1, K > 1), (np.maximum(K - 1, 0), K > 2)):
        total += np.where(present, c + d / np.tan(h * (i + v)), 0.0)
    return total


# Atoms on each side of a mean that the boosted bound keeps exact; its tail
# blocks beyond them start at offsets that grow by a factor of 1.5.
_WINDOW = 4


def _bound_offsets(M: int) -> np.ndarray:
    """Offsets from a mean's first atom on one side: the _WINDOW exact
    atoms, then the tail breakpoints from _WINDOW on, up to floor(M/2)."""
    out = list(range(_WINDOW))
    o = _WINDOW
    while o <= M // 2:
        out.append(o)
        o = math.ceil(1.5 * o)
    return np.array(out)


def _median_error_bounds(M: int, q: float, n: int, a, sigma, s) -> np.ndarray:
    """Upper bounds U on the L_q errors of the median of 2n+1 runs at the
    means a, of nonintegral sigma, from 2 len(_bound_offsets(M)) columns
    each, for every n >= 1 and q >= 1.

    The folded outputs are alpha_i = sin^2(pi i/M), i = 0 .. R = M // 2,
    increasing, and read from distribution._index_tables; the first above
    a is alpha_i0, i0 = floor(sigma) + 1, and d_i = |alpha_i - a|^q.  With
    G+(i) = P(X >= alpha_i), G-(i) = P(X <= alpha_i) for one run X, and B_n
    the median polynomial (numerics._median_cdf), the median of 2n+1 runs
    is >= alpha_i exactly when n+1 of them are, so P(med >= alpha_i) =
    B_n(G+(i)).  Abel summation of e_n^q = sum_i m_i d_i over the median's
    masses m_i then gives, exactly,

        sum_{i >= i0} m_i d_i = sum_{i >= i0} (d_i - d_{i-1}) B_n(G+(i)),

    with d_{i0-1} = 0, and the mirror sum over i < i0 with G-.  Every
    difference is >= 0 and B_n increases, so upper bounds on G+ and G-
    give one on e_n^q.
      Window: the _WINDOW atoms on each side of a are exact, rho_i = w_i C
    (csc^2 h(i - sigma) + csc^2 h(i + sigma)), with C = sin^2(pi s)/(2
    M^2), h = pi/M and w_i = 2 except at i = 0 and i = M/2, where it is 1;
    their sines are the kernel's folded ones.
      Tails: G+(b) = C sum_{j=b..M-b} (csc^2 h(j - sigma) + csc^2 h(j +
    sigma)) over unfolded outcomes, and G-(b) = 2 C sum_{j=-b..b} csc^2
    h(j - sigma).  csc^2 is convex on each interval the sums run over, so
    by Hermite-Hadamard each term is at most its mean over the cell of
    width h around it, and the cells telescope: for b >= sigma + 1/2,
    G+(b) <= C/h [cot h(b - sigma - 1/2) - cot h(M - b - sigma + 1/2) +
    cot h(b + sigma - 1/2) - cot h(M - b + sigma + 1/2)], and since cot(pi
    - x) = -cot x the two halves are equal, so G+(b) <= 2 C/h [cot h(b -
    sigma - 1/2) + cot h(b + sigma - 1/2)].  For b <= sigma - 1/2, G-(b)
    <= 2 C/h [cot h(sigma - b - 1/2) - cot h(sigma + b + 1/2)].  The tail
    breakpoints sit at _bound_offsets beyond the window, more than 3.5 from
    sigma, so no cotangent is near a pole; over each block [b_k, b_k+1),
    G+(i) <= G+(b_k), and the block adds at most (d_{b_k+1 - 1} - d_{b_k -
    1}) B_n(min(1, bound on G+(b_k))).  A window atom's tail is the exact
    window atoms beyond it plus the first breakpoint's bound.
      The bound is finite for every n and q.  Where every atom lies in
    the windows it is exact up to rounding; elsewhere the Hermite-Hadamard
    cells keep it above e_n by more than the kernel's rounding.  At the
    theorem's n = ceil(q) + 1 it leaves 1-3 of the 2003 means of
    check_repetition_theorem's grid to the kernel at M = 86 and 342.
    """
    R, W = M // 2, _WINDOW
    h = math.pi / M
    c = np.sin(np.pi * s) ** 2 / (2.0 * M * M)
    # arrays are (side, column, mean): each side's boundaries, right then
    # left, are the atoms at the offsets from its first atom, i0 or i0 - 1,
    # then an offset past its last atom
    side = np.array([1, -1])[:, None, None]
    first = np.floor(sigma).astype(np.int64) + (side > 0)
    cols = first + side * np.append(_bound_offsets(M), M)[:, None]
    valid = (cols >= 0) & (cols <= R)
    i = np.clip(cols, 0, R)
    # the exact window atoms, from the kernel's folded sines
    near = i[:, :W].reshape(2 * W, -1)
    f = _folded_sines(np.concatenate([near, -near % M]).T.astype(float), sigma, M).T
    f *= f
    csc2 = (1.0 / f[: 2 * W] + 1.0 / f[2 * W :]).reshape(2, W, -1)
    w = np.where((i[:, :W] == 0) | (2 * i[:, :W] == M), 1.0, 2.0)
    rho = w * c * csc2 * valid[:, :W]
    # the tail bounds at the breakpoints; the second cotangent takes the
    # clipped column, whose argument is not 0 past the side's end either
    cot = 1.0 / np.tan(h * (side * (cols[:, W:-1] - sigma) - 0.5))
    cot += 1.0 / np.tan(h * (side * (i[:, W:-1] + sigma) - 0.5))
    tails = np.empty((2, cols.shape[1] - 1, len(sigma)))
    tails[:, W:] = 2.0 / h * c * cot * valid[:, W:-1]
    # a window atom's tail: the window atoms from it on, then the first bound
    acc = tails[:, W] if tails.shape[1] > W else 0.0
    for t in range(W - 1, -1, -1):
        acc = acc + rho[:, t]
        tails[:, t] = acc
    # d at the last atom before each boundary past the first (the side's
    # last atom at its end), differenced from d = 0 before its first atom
    ends = np.clip(cols[:, 1:], -1, R + 1) - side
    d = np.diff(np.abs(a - _index_tables(M)[2][ends]) ** q, axis=1, prepend=0.0)
    return np.einsum("ijk,ijk->k", d, _median_cdf(np.minimum(tails, 1.0), n)) ** (1.0 / q)
