"""Hoelder-exponent calculus for semilinear kernel equations, the bootstrap
exponent sequence, and the scalar truncation inequality used by Moser-type
iterations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError

CASE_SUBCRITICAL = "subcritical_i"
CASE_SUPERCRITICAL = "supercritical_ii"


@dataclass(frozen=True)
class RegularityVerdict:
    """Exponent family guaranteed for solutions of L_K u = f(u) with f of
    Hoelder class C^beta.  The epsilon loss is structural (the guarantee is
    an open family C^(gamma - eps) for all eps > 0), so no epsilon value is
    ever chosen.  Whether the subcritical exponent is attained (eps
    removable) is an open question, recorded as a flag."""

    s: float
    beta: float
    case: str
    exponent_family: float  # 2s/(1-beta) in the subcritical case, else beta + 2s
    bootstrap_trace: tuple
    epsilon_open: bool = True
    sharpness_open: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def bootstrap_exponents(s: float, beta: float) -> tuple:
    """Gain exponents 2s * beta_k with beta_k = sum_{j<=k} beta^j, recorded
    until the bootstrap either crosses 1 or converges to 2s/(1-beta), for
    at most 100000 steps."""
    trace = []
    beta_k = 0.0
    power = 1.0
    limit = 1.0 / (1.0 - beta) if beta < 1 else np.inf
    for _ in range(100000):
        beta_k += power
        power *= beta
        trace.append(2.0 * s * beta_k)
        if trace[-1] >= 1.0:
            break
        if beta < 1 and abs(beta_k - limit) < 1e-14 * limit:
            break
    return tuple(trace)


def regularity_verdict(s: float, beta: float) -> RegularityVerdict:
    """Case split: the iteration gains 2s of smoothness per step against a
    beta-fold loss; it stalls below C^1 exactly when beta < 1 and
    2s < 1 - beta (subcritical), and otherwise reaches C^(beta + 2s - eps)."""
    if not 0 < s < 1:
        raise DomainError("s must lie in (0, 1)")
    if beta <= 0:
        raise DomainError("beta must be positive")
    trace = bootstrap_exponents(s, beta)
    if beta < 1 and 2.0 * s < 1.0 - beta:
        return RegularityVerdict(s=s, beta=beta, case=CASE_SUBCRITICAL,
                                 exponent_family=2.0 * s / (1.0 - beta),
                                 bootstrap_trace=trace, sharpness_open=True)
    return RegularityVerdict(s=s, beta=beta, case=CASE_SUPERCRITICAL,
                             exponent_family=beta + 2.0 * s,
                             bootstrap_trace=trace, sharpness_open=False)


def moser_scalar_check(a, b, M, r) -> dict:
    """Truncation inequality

        (a T^r(a) - b T^r(b))^2  <=  2(r+2) (a-b) (a T^(2r)(a) - b T^(2r)(b)),

    with T(x) = min(|x|, M).  Universal in a, b; vectorized over arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    M = np.asarray(M, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(M < 0) or np.any(r < 0):
        raise DomainError("need M >= 0 and r >= 0")
    ta = np.minimum(np.abs(a), M)
    tb = np.minimum(np.abs(b), M)
    lhs = (a * ta**r - b * tb**r) ** 2
    rhs = 2.0 * (r + 2.0) * (a - b) * (a * ta ** (2.0 * r) - b * tb ** (2.0 * r))
    holds = lhs <= rhs * (1 + 1e-12) + 1e-12
    if np.ndim(holds) == 0:
        return {"lhs": float(lhs), "rhs": float(rhs), "holds": bool(holds)}
    return {"lhs": lhs, "rhs": rhs, "holds": holds}
