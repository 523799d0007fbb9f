"""Quadrature of one chirped integral int_{y0}^{y1} env(y) exp(i(a y^2 + b y)) dy.

No package code calls :func:`chirp_integral`: the module stays only while
the benchmark tracer (perfbench/tracer.py) wraps that name.  The panels
come from ``quantum._chirp_panels``, the rule of every quadrature route.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .quantum import ChirpResolutionError, _chirp_panels

__all__ = ["chirp_integral", "ChirpResolutionError"]


def chirp_integral(env: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                   y0: float, y1: float, env_scale: float | None = None) -> complex:
    """Integral of env(y)*exp(i*(a*y^2 + b*y)) over [y0, y1]: the panel rule
    on 64 equal cells with b_max = |b|.  env takes an ndarray of nodes and
    may return complex values; env_scale, the smallest length on which env
    varies, defaults to 1/8 of the interval.
    """
    if y1 <= y0:
        return 0.0 + 0.0j
    if env_scale is None or not env_scale > 0:
        env_scale = (y1 - y0) / 8.0
    nodes, weights = _chirp_panels(np.linspace(y0, y1, 65), a, abs(b), env_scale)
    return complex(np.dot(weights, env(nodes) * np.exp(1j * (a * nodes * nodes + b * nodes))))
