"""Independent oracles that the tests compare the library against."""

import numpy as np
from scipy import integrate


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
