"""Independent evaluation of the closed forms, to check qsum's outputs.

For a small instance (M <= 64) this recomputes, in 40-digit mpmath
arithmetic when mpmath is installed (double precision otherwise),

    p(j)   = sin^2(pi sigma)/(2 M^2) (csc^2(pi (j - sigma)/M) + csc^2(pi (j + sigma)/M)),
    e_q    = (sum_j p(j) |a - sin^2(pi j/M)|^q)^(1/q),
    rho_n  = I(F + rho) - I(F)   per output atom, with
    I(x)   = sum_{i=n+1}^{2n+1} C(2n+1, i) x^i (1 - x)^(2n+1-i),

from the formulas alone: none of qsum's code is used.  (sin^2(pi s) equals
sin^2(pi sigma), so the distance s to the nearest integer is not needed.)
"""

from __future__ import annotations

import math

import numpy as np

from qsum import distribution, error_analysis, repetitions
from qsum.model import MeanInstance

try:
    import mpmath
except ImportError:  # fall back to double precision
    mpmath = None

if mpmath is not None:
    _ctx = mpmath.mp.clone()
    _ctx.dps = 40
    _num, _sin, _asin, _sqrt, _pi = _ctx.mpf, _ctx.sin, _ctx.asin, _ctx.sqrt, _ctx.pi
    TOL = 1e-12
else:
    _num, _sin, _asin, _sqrt, _pi = float, math.sin, math.asin, math.sqrt, math.pi
    TOL = 1e-9

PRECISION = "mpmath 40 digits" if mpmath is not None else "double"
QS = (1.0, 1.5, 2.0, 3.0)
NS = (1, 2, 3)
_MIN_DISTANCE = 1e-6  # sample only sigma this far from an integer


def sample(seed: int, count: int) -> list[MeanInstance]:
    """A deterministic sample of instances with M <= 64, N <= 2^10 and
    sigma not within 1e-6 of an integer."""
    rng = np.random.default_rng([seed, 0x0AC1E])
    out = []
    while len(out) < count:
        M = int(rng.integers(3, 65))
        N = int(rng.integers(M + 1, 2**10 + 1))
        k = int(rng.integers(0, N + 1))
        sigma = M * _asin(_sqrt(_num(k) / N)) / _pi
        if abs(sigma - round(float(sigma))) > _MIN_DISTANCE:
            out.append(MeanInstance(k, N, M))
    return out


def _outcome_probabilities(inst: MeanInstance) -> list:
    M = inst.M
    sigma = M * _asin(_sqrt(_num(inst.k) / inst.N)) / _pi
    amp = _sin(_pi * sigma) ** 2 / (2 * M * M)
    return [
        amp * (1 / _sin(_pi * (j - sigma) / M) ** 2 + 1 / _sin(_pi * (j + sigma) / M) ** 2)
        for j in range(M)
    ]


def _median_cdf(x, n: int):
    m = 2 * n + 1
    return sum(math.comb(m, i) * x**i * (1 - x) ** (m - i) for i in range(n + 1, m + 1))


def check(inst: MeanInstance) -> str | None:
    """Compare qsum's p(j), e_q and median atoms with the oracle; None if
    all agree within TOL, else the first disagreement."""
    M = inst.M
    a = _num(inst.k) / inst.N
    p = _outcome_probabilities(inst)
    alpha = [_sin(_pi * j / M) ** 2 for j in range(M)]

    got_p = distribution.outcome_distribution(inst).p
    for j in range(M):
        if abs(float(p[j]) - got_p[j]) > TOL:
            return f"p({j}) = {got_p[j]!r}, oracle {float(p[j])!r} for {inst}"

    for q in QS:
        e = float(sum(p[j] * abs(a - alpha[j]) ** q for j in range(M)) ** (1 / _num(q)))
        got = error_analysis.local_avg_error(inst, q)
        if abs(got - e) > TOL * max(e, 1e-300):
            return f"e_{q} = {got!r}, oracle {e!r} for {inst}"

    # atoms over distinct outputs: j and M - j share sin^2(pi j/M)
    rho = [p[0]] + [p[j] + (p[M - j] if M - j != j else 0) for j in range(1, M // 2 + 1)]
    base = distribution.collapse_outputs(distribution.outcome_distribution(inst))
    for n in NS:
        got = repetitions.median_distribution(base, n).rhos
        cdf = _num(0)
        for i, r in enumerate(rho):
            want = _median_cdf(cdf + r, n) - _median_cdf(cdf, n)
            cdf += r
            if abs(float(want) - got[i]) > TOL:
                return f"n={n} median atom {i} = {got[i]!r}, oracle {float(want)!r} for {inst}"
    return None
