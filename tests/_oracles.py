"""Independent oracles that the tests compare the library against."""

import numpy as np
from scipy import integrate
from scipy.special import beta, betainc


def cosine_normalization(s: float) -> float:
    """int_R (1 - cos z)/|z|^(1+2s) dz, which equals 1/c_s."""
    # near part termwise from the cosine series: sum (-1)^(m+1)/((2m)!(2m-2s))
    near = 0.0
    fact = 1.0
    for m in range(1, 30):
        fact *= (2 * m - 1) * (2 * m)
        near += (-1.0) ** (m + 1) / (fact * (2 * m - 2.0 * s))
    tail = 1.0 / (2.0 * s)  # int_1^inf z^(-1-2s) dz
    osc, _ = integrate.quad(lambda z: z ** (-1.0 - 2.0 * s), 1.0, np.inf,
                            weight="cos", wvar=1.0, limit=200)
    return 2.0 * (near + tail - osc)


def fraclap_tail(kernel, a: float) -> float:
    """int_a^inf c_s t^(-1-2s) dt = c_s a^(-2s)/(2s) for a FractionalKernel."""
    return kernel.constant * a ** (-2.0 * kernel.s) / (2.0 * kernel.s)


def delaunay_tail(kernel, a: float) -> float:
    """int_a^inf (t^2 + c^2)^(-mu) dt for a DelaunayKernel of core width c,
    mu = (n+s)/2: with u = c^2/(t^2 + c^2) it is
    c^(1-2mu)/2 B(nu, 1/2) I_x(nu, 1/2) at x = c^2/(a^2 + c^2), nu = mu - 1/2
    (I the regularized incomplete beta function)."""
    c = kernel.a
    nu = 0.5 * (kernel.n + kernel.s) - 0.5
    x = c * c / (a * a + c * c)
    return float(0.5 * c ** (-2.0 * nu) * beta(nu, 0.5) * betainc(nu, 0.5, x))
