"""Quadrature for chirped oscillatory integrals

    I = int_{y0}^{y1} env(y) * exp(i*(a*y^2 + b*y)) dy.

Composite Gauss-Legendre panels are sized so that no panel spans more
than 1/8 of a local phase period (local frequency |2*a*y + b| / 2pi) nor
more than half of the envelope's variation scale.  With 8 nodes per
panel the per-panel error is far below double-precision roundoff.  The
panel split :func:`_gl_panels` also serves the whole-grid amplitudes
of ``quantum._ladder_amplitudes`` and the Weyl-overlap characteristic
functions of ``quantum._overlap_characteristic``, whose cells need not
be uniform; each caller brings its own phase estimate and panel cap.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["chirp_integral", "ChirpResolutionError", "MAX_PANELS"]

MAX_PANELS = 2_000_000
_PHASE_PER_PANEL = math.pi / 4.0  # 1/8 of a period

# np.polynomial.legendre.leggauss(8), bit for bit (importing numpy.polynomial
# costs several ms of every CLI start)
_GL_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
                      0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
                        0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])


class ChirpResolutionError(RuntimeError):
    """The requested integral needs more quadrature panels than allowed."""

    def __init__(self, needed: int, allowed: int):
        self.needed = needed
        self.allowed = allowed
        super().__init__(
            f"chirp quadrature needs {needed} panels "
            f"({8 * needed} nodes) but only {allowed} are allowed"
        )


def _gl_panels(coarse: np.ndarray, dphase: np.ndarray, env_scale: float,
               max_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights over the coarse cells (any widths,
    increasing edges), each split into equal panels that keep its phase
    change dphase under 1/8 of a period and its width under half the
    envelope scale (env_scale = inf: no envelope split).

    The panel edges are built for all cells at once; inside each cell
    they are the values np.linspace(left, right, nsplit + 1) gives.
    """
    width = np.diff(coarse)
    nsplit = np.maximum(
        np.maximum(np.ceil(dphase / _PHASE_PER_PANEL),
                   np.ceil(width / (0.5 * env_scale))),
        1,
    ).astype(int)
    total = int(nsplit.sum())
    if total > max_panels:
        raise ChirpResolutionError(total, max_panels)
    cell = np.repeat(np.arange(width.size), nsplit)
    k = np.arange(1, total + 1) - np.repeat(np.cumsum(nsplit) - nsplit, nsplit)
    right = k * (width / nsplit)[cell] + coarse[cell]
    right[k == nsplit[cell]] = coarse[1:]  # each cell ends exactly on its edge
    edges = np.concatenate((coarse[:1], right))
    centers = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = (centers[:, None] + halves[:, None] * _GL_NODES[None, :]).ravel()
    weights = (halves[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def chirp_integral(
    env: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    y0: float,
    y1: float,
    env_scale: float | None = None,
    max_panels: int = MAX_PANELS,
) -> complex:
    """Integral of env(y)*exp(i*(a*y^2 + b*y)) over [y0, y1].

    env must accept an ndarray of nodes and may return complex values;
    env_scale is the smallest length scale on which env varies (defaults
    to 1/8 of the interval).
    """
    if y1 <= y0:
        return 0.0 + 0.0j
    if env_scale is None or not env_scale > 0:
        env_scale = (y1 - y0) / 8.0
    # coarse uniform cells, each with its exact phase change; a stationary
    # point inside a cell hides phase variation from the endpoint
    # difference, so add the peak-to-edge contribution there
    width = y1 - y0
    ncoarse = 64
    coarse = np.linspace(y0, y1, ncoarse + 1)
    phase = a * coarse * coarse + b * coarse
    dphase = np.abs(np.diff(phase))
    if a != 0.0:
        ys = -b / (2.0 * a)
        if y0 < ys < y1:
            j = min(int((ys - y0) / (width / ncoarse)), ncoarse - 1)
            pk = a * ys * ys + b * ys
            dphase[j] = abs(phase[j] - pk) + abs(phase[j + 1] - pk)
    nodes, weights = _gl_panels(coarse, dphase, env_scale, max_panels)
    f = env(nodes) * np.exp(1j * (a * nodes * nodes + b * nodes))
    return complex(np.dot(weights, f))
