"""The uniform (trapezoidal) rule on a full period, for test oracles.

On m nodes it integrates trigonometric polynomials of degree < m exactly, so
it checks the Jackson kernel's closed-form constants independently: J_N has
degree 2 floor(N/2) <= N, and J_N(t) cos(q t) has degree <= 2N for q <= N.
"""

from __future__ import annotations

import numpy as np

from ckomega.jackson import kernel_normalize


def periodic_nodes(m: int) -> tuple[np.ndarray, float]:
    """Uniform nodes on [-pi, pi) and the common weight 2*pi/m."""
    t = -np.pi + 2.0 * np.pi * np.arange(m) / m
    return t, 2.0 * np.pi / m


def cosine_multipliers(N: int) -> np.ndarray:
    """Fourier multipliers c_q / c_0 of J_N for q = 0..degree, from the
    (4N+1)-node rule applied to J_N(t) cos(q t)."""
    kernel = kernel_normalize(N)
    t, _ = periodic_nodes(4 * N + 1)
    c = np.cos(np.outer(np.arange(kernel.degree + 1), t)) @ kernel(t)
    return c / c[0]
