"""Quantum tomograms: amplitude closed forms, oscillatory-quadrature routes,
the Weyl-overlap characteristic function, Wigner-function maps, and the
inverse reconstructions back to Wigner functions and density matrices.

For a pure state the tomogram is |A|^2 / (2 pi hbar |nu|) with the
amplitude

    A(X, mu, nu) = int psi(y) exp(i mu y^2/(2 hbar nu) - i X y/(hbar nu)) dy

(nu != 0); nu = 0 and mu = 0 reduce exactly to the position and momentum
marginals and (mu, nu) = (0, 0) to the unit atom delta(X).  Oscillator
closed forms are written with zeta = nu + i*mu at mass times frequency
varpi = 1; all fractional powers of zeta-ratios are taken so the
amplitudes agree with the defining integral in every (mu, nu) quadrant
(regression-tested against quadrature).  Canonical maps act on the frame: a varpi oscillator state
takes the varpi = 1 form in the frame (mu/sqrt(varpi), nu sqrt(varpi)),
and the Fourier turn q -> p, p -> -q makes the momentum-side quadrature
the position-side one applied to psihat in the frame (nu, -mu).  Every
quadrature splits its Gauss-Legendre panels by one phase rule, :func:`_phase_change`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .classical import (FrameSamples, _box_indicators, _phases, _radon_slice, _weighted_phases,
                        characteristic_quadrature)
from .kernel import (
    DeltaAtom,
    GridFunction2D,
    TomographyFrame,
    Tomogram,
    TomogramError,
    _check_uniform_grid,
    _distinct,
)
from .specfun import chirp_sum, faddeeva
from .states import (
    BoxEigen,
    CatEven,
    CatOdd,
    Coherent,
    HOEigen,
    State,
    Superposition,
    _basis_rows,
    _box_wave_number,
    _segment,
    coherent_center,
    momentum_wavefunction,
    natural_scales,
    position_extent,
    position_wavefunction,
)

__all__ = [
    "hermite_amplitude",
    "hermite_tomogram",
    "coherent_tomogram",
    "coherent_tomogram_peak",
    "superposition_tomogram",
    "superposition_cross_term",
    "cat_tomogram",
    "cat_interference",
    "tomogram_from_wavefunction",
    "state_tomogram",
    "default_x_grid",
    "box_tomogram",
    "box_tomogram_stationary_phase",
    "interval_chirp",
    "ehrenfest_hbar",
    "oscillator_ehrenfest_hbar",
    "rho_grid",
    "wigner_grid_from_density",
    "tomogram_from_wigner",
    "build_state_family",
    "wigner_from_tomogram_grid",
    "build_state_slices",
    "density_grid_from_tomogram",
    "reconstruct_wigner",
    "reconstruct_density",
]


# ---------------------------------------------------------------------------
# amplitude closed forms
# ---------------------------------------------------------------------------

def hermite_amplitude(n: int, frame: TomographyFrame, X, hbar: float):
    """Closed-form amplitude A_n of the n-th oscillator eigenstate.

    The unimodular factor (-i e^{i arg zeta})^n keeps the principal branch
    of the prefactor consistent with the defining integral for nu < 0 as
    well; |A_n|^2/(2 pi hbar |nu|) reproduces the Hermite tomogram.
    Accepts scalar or array X.
    """
    if frame.nu == 0.0:
        raise TomogramError("hermite_amplitude requires nu != 0 (nu = 0 is the exact position branch)")
    zc = complex(frame.nu, -frame.mu)  # conj(zeta)
    scalar = np.isscalar(X)
    Xv = np.asarray(X, dtype=float)
    Q = Xv / (frame.norm * math.sqrt(hbar))
    pref = (1.0 / (math.pi * hbar)) ** 0.25 * cmath.sqrt(2.0 * math.pi * hbar * frame.nu / zc)
    # exp(-X^2/(2 hbar nu zeta*)) = exp(-i (mu/nu) Q^2/2) exp(-Q^2/2); the decay is
    # folded into phi_n(Q) and X^2 is never formed, so nothing overflows at large |X|
    phase = np.exp(-0.5j * frame.mu / frame.nu * Q * Q)
    # phi_n(Q) and its turn phase c_0 = n arg(mu - i nu): (-i e^{i arg zeta})^n = e^{i c_0}
    (phi,), (c0, _) = _basis_rows("fock", [n], hbar, 1.0 / frame.norm, complex(frame.mu, -frame.nu) / frame.norm, Xv)
    out = pref * phase * cmath.exp(1j * c0) * math.pi ** 0.25 * phi
    return complex(out) if scalar else out


# ---------------------------------------------------------------------------
# closed-form tomograms
# ---------------------------------------------------------------------------

def _rows(basis: str, labels, frame: TomographyFrame, X, hbar: float):
    """sqrt(kappa) = 1/(|zeta| sqrt(hbar)) and the rows u_a(X) of the basis vectors |a>,
    so that sum_a w_a |a> has the tomogram sqrt(kappa) |sum_a w_a u_a|^2: X = mu q + nu p
    is the position after the map that turns and scales (q, p) onto X, so they are
    the rows of :func:`states._basis_rows` at rw = 1/|zeta|, turn = (mu - i nu)/|zeta|."""
    z = frame.norm
    if z == 0.0:
        raise TomogramError("closed-form tomogram rejected for the zero frame")
    rows, _ = _basis_rows(basis, labels, hbar, 1.0 / z, complex(frame.mu, -frame.nu) / z, np.asarray(X, float))
    return 1.0 / (z * math.sqrt(hbar)), rows


def _tomogram(state: State, frame: TomographyFrame, X, hbar: float):
    """sqrt(kappa) |sum_a w_a u_a(X)|^2 of a catalog state at varpi = 1:
    one closed form for every oscillator state, never negative."""
    terms = state.terms
    root, rows = _rows(state.basis, [a for _, a in terms], frame, X, hbar)
    amp = sum(w * u for (w, _), u in zip(terms, rows))
    out = root * (amp.real ** 2 + amp.imag ** 2)
    return float(out) if np.isscalar(X) else out


def _cross_term(basis: str, a, b, frame: TomographyFrame, X, hbar: float):
    """sqrt(kappa) Re(u_a u_b*), the interference of |a> and |b> in the
    tomogram of w (|a> + |b>) per unit 2 w^2."""
    root, (ua, ub) = _rows(basis, (a, b), frame, X, hbar)
    out = root * (ua * np.conj(ub)).real
    return float(out) if np.isscalar(X) else out


def hermite_tomogram(n: int, frame: TomographyFrame, X, hbar: float):
    """Tomogram of the n-th oscillator eigenstate,

        W_n(X) = sqrt(kappa) * phi_n(sqrt(kappa) X)^2,
        kappa  = 1 / (hbar (nu^2 + mu^2)),

    the squared scaled Hermite function with its normalizing Jacobian.
    """
    return _tomogram(HOEigen(n), frame, X, hbar)


def coherent_tomogram_peak(alpha: complex, frame: TomographyFrame, hbar: float) -> float:
    """Peak location mu*<q> + nu*<p> of the coherent-state tomogram."""
    qbar, pbar = coherent_center(alpha, hbar)
    return frame.mu * qbar + frame.nu * pbar


def coherent_tomogram(alpha: complex, frame: TomographyFrame, X, hbar: float):
    """Gaussian tomogram of |alpha>, with kappa = 1/(hbar (nu^2 + mu^2)):

        sqrt(kappa/pi) exp[-kappa (X - sqrt(2 hbar) (mu Re alpha + nu Im alpha))^2]
    """
    return _tomogram(Coherent(alpha), frame, X, hbar)


def superposition_cross_term(n: int, m: int, frame: TomographyFrame, X, hbar: float):
    """Interference term sqrt(kappa) Re(u_n u_m*) of (|n>+|m>)/sqrt2, in every nonzero frame,

        sqrt(kappa) cos((n - m)(arg zeta - pi/2)) phi_n(Q) phi_m(Q),   Q = sqrt(kappa) X.
    """
    return _cross_term("fock", n, m, frame, X, hbar)


def superposition_tomogram(n: int, m: int, frame: TomographyFrame, X, hbar: float):
    """Tomogram of (|n> + |m>)/sqrt2: the half-half mixture plus the
    amplitude interference term, in every nonzero frame."""
    return _tomogram(Superposition(n, m), frame, X, hbar)


def cat_interference(alpha: complex, frame: TomographyFrame, X, hbar: float):
    """Interference term I = 2 sqrt(kappa) Re(u_alpha u_{-alpha}*) of a cat
    state in every nonzero frame; its integral is 2 exp(-2|alpha|^2) at any hbar."""
    return 2.0 * _cross_term("coherent", alpha, -alpha, frame, X, hbar)


def cat_tomogram(alpha: complex, parity: str, frame: TomographyFrame, X, hbar: float):
    """Even/odd cat tomogram N^2 [W_alpha + W_{-alpha} +- I]."""
    if parity not in ("even", "odd"):
        raise TomogramError(f"cat parity must be 'even' or 'odd', got {parity!r}")
    return _tomogram((CatEven if parity == "even" else CatOdd)(alpha), frame, X, hbar)


# ---------------------------------------------------------------------------
# the Weyl-overlap characteristic function G(mu, nu) = <exp(i(mu q + nu p))>
# ---------------------------------------------------------------------------

# nodes x mu entries of one phase block in _overlap_characteristic
_OVERLAP_BLOCK = 1 << 20


def _overlap_characteristic(state, mu_grid, nu_grid, hbar):
    """G(mu, nu) = int psi*(y - s) psi(y + s) e^{i mu y} dy, s = hbar nu/2,
    by Gauss-Legendre quadrature for any state.

    For each nu the panels cover the overlap of the two shifted supports;
    their coarse edges are the state's cell edges (:func:`_cells`) shifted
    by -s and +s, so each sub-cell of a sampled state holds a quadratic
    times e^{i mu y}, and they are split so that no panel spans more than
    pi/4 of phase at the largest |mu|.  All mu then take one matrix
    product with the phase table e^{i mu y} (:func:`classical._phases`),
    in blocks of bounded size; nu and -nu share the panels and the table.
    """
    mu = np.asarray(mu_grid, dtype=float)
    nu = np.asarray(nu_grid, dtype=float)
    psi = position_wavefunction(state, hbar)
    edges, env_scale = _cells(state, hbar)
    mu_max = float(np.max(np.abs(mu), initial=0.0))
    G = np.zeros((mu.size, nu.size), dtype=complex)
    for a in _distinct(np.abs(nu)):
        # nu and -nu shift the supports by -+s alike, so they share the cut
        # set, the panels and the phase table; each keeps its own f
        js = np.flatnonzero(np.abs(nu) == a)
        h = 0.5 * hbar * a
        lo, hi = edges[0] + h, edges[-1] - h
        if hi <= lo:
            continue  # the shifted supports do not overlap
        cuts = np.concatenate((edges - h, edges + h))
        coarse = _distinct(cuts[(cuts >= lo) & (cuts <= hi)])
        nodes, weights = _chirp_panels(coarse, 0.0, mu_max, env_scale)
        fs = [np.conj(psi(nodes - s)) * psi(nodes + s) * weights for s in 0.5 * hbar * nu[js]]
        rows = max(1, _OVERLAP_BLOCK // nodes.size)
        for i in range(0, mu.size, rows):
            E = _phases(mu[i:i + rows], nodes)
            for j, f in zip(js, fs):
                G[i:i + rows, j] = E @ f
    return G


# ---------------------------------------------------------------------------
# quadrature route (representation-dispatched) and grid helpers
# ---------------------------------------------------------------------------

def ehrenfest_hbar(n: int, L: float = 1.0) -> float:
    """hbar pinned by unit energy for the box eigenstate: sqrt2 L/(n pi)."""
    return math.sqrt(2.0) * L / (n * math.pi)


def oscillator_ehrenfest_hbar(n: int) -> float:
    """hbar of the oscillator eigenstate n in the Ehrenfest studies: 1/n,
    so its energy hbar(n + 1/2) = 1 + 1/(2n) tends to that of the E = 1
    orbit it is compared with."""
    if n < 1:
        raise ValueError(f"the oscillator Ehrenfest hbar 1/n needs n >= 1, got n = {n}")
    return 1.0 / n


def box_tomogram(n: int, L: float, frame: TomographyFrame, x_grid,
                 hbar: float) -> Tomogram:
    """Exact box-eigenstate tomogram from the two interval chirp integrals
    A_-+ = int_0^L exp(i(a y^2 + (b -+ k) y)) dy with a = mu/(2 hbar nu),
    b = -X/(hbar nu), k = n pi/L (:func:`interval_chirp`, Faddeeva
    closed form); W = |A_- - A_+|^2 / (4 pi L hbar |nu|).  From |a| L^2 = 10
    on, each branch is taken about its own stationary point, J_-+ = A_-+
    e^{i(b -+ k)^2/4a} (:func:`_chirp`), and W = |e^{ikX/mu} J_- -
    e^{-ikX/mu} J_+|^2 / (4 pi L hbar |nu|): the phases of size a L^2 cancel.

    nu = 0, the zero frame included, takes the exact branches of
    :func:`tomogram_from_wavefunction`; mu = 0 (a = 0) is the linear branch
    of :func:`interval_chirp`.  The cost is independent of n.
    """
    x = np.asarray(x_grid, dtype=float)
    k = _box_wave_number(n, L)
    if frame.nu == 0.0:
        return tomogram_from_wavefunction(BoxEigen(n, L), frame, x, hbar)
    pref = 1.0 / (4.0 * math.pi * L * hbar * abs(frame.nu))
    a = frame.mu / (2.0 * hbar * frame.nu)
    b = -x / (hbar * frame.nu)
    if abs(a) * L * L < _CENTRED_CHIRP:
        am, ap = interval_chirp(a, b + k, L), interval_chirp(a, b - k, L)
    else:
        turn = np.exp(1j * k * x / frame.mu)
        am, ap = turn * _chirp(a, b + k, L, True), _chirp(a, b - k, L, True) / turn
    return Tomogram(frame, x, pref * np.abs(am - ap) ** 2)


# |a| L^2 below which interval_chirp drops the quadratic phase: the error
# of that, <= |a| L^2/3 relative, and the cancellation in the Faddeeva
# form, ~eps/sqrt(|a| L^2), cross near eps^(2/3)
_LINEAR_CHIRP = 1e-10
# |a| L^2 from which box_tomogram centres each branch on its stationary
# point.  Subtracting A_-+ as they are loses eps a L^2 of the peak (phases
# b^2/4a and (aL + b)L of size a L^2 on terms of modulus 1); the centred
# form leaves the large phases t^2 only on end terms of modulus at most
# 1/(sqrt(pi) |t|) and loses about eps n/(a L^2).  Against a 60-digit erf
# oracle the two cross near 10, and the centred form stays within 1e-8 of
# the peak up to a L^2 = 1e17
_CENTRED_CHIRP = 10.0
_RAY = cmath.exp(0.25j * math.pi)


def interval_chirp(a: float, b, L: float) -> np.ndarray:
    """I(a, b) = int_0^L exp(i(a y^2 + b y)) dy, exactly, for an array of b.

    For a > 0, with phi(y) = a y^2 + b y and t(y) = (2 a y + b)/(2 sqrt a)
    (so t^2 = phi - phi(y_s) about the stationary point y_s = -b/2a),

        int_{y0}^{y1} = sqrt(pi)/(2 sqrt a) e^{i pi/4}
                        [e^{i phi(y0)} w(e^{i pi/4} t0) - e^{i phi(y1)} w(e^{i pi/4} t1)]

    when y_s <= y0 (DLMF 7.2-7.3 in terms of the Faddeeva function w).
    The mirror image about y_s covers y_s >= L (t -> |t|, ends swapped)
    and an interior y_s splits [0, L] there, so every w argument lies on
    the ray e^{i pi/4} |t|, nothing large cancels, and the phase b^2/4a is
    formed only for an interior y_s, where it is at most a L^2.  a < 0 is
    the conjugate of I(-a, -b); |a| L^2 < 1e-10 uses the linear phase
    (e^{ibL} - 1)/(ib) = L e^{ibL/2} sinc(bL/2), the segment :func:`states._segment`.
    """
    b = np.asarray(b, dtype=float)
    if abs(a) * L * L < _LINEAR_CHIRP:
        return _segment(b, L, L)
    return _chirp(a, b, L, False)


def _chirp(a: float, b: np.ndarray, L: float, centred: bool) -> np.ndarray:
    """The Faddeeva form of :func:`interval_chirp`; centred, times e^{i b^2/4a}
    (phases from the stationary point's: t^2 on the end terms, 0 on its own)."""
    if a < 0.0:
        return np.conj(_chirp(-a, -b, L, centred))
    ra = math.sqrt(a)
    t0 = b / (2.0 * ra)
    t1 = (2.0 * a * L + b) / (2.0 * ra)
    inner = (t0 < 0.0) & (t1 > 0.0)
    # the phases of the two end terms and of the stationary point's, from phi(y_s) or phi(0) = 0
    p0, p1, ps = ((t0 * t0, t1 * t1, 0.0) if centred
                  else (0.0, (a * L + b) * L, -0.25 * np.where(inner, b, 0.0) ** 2 / a))
    f0 = np.exp(1j * p0) * faddeeva(_RAY * np.abs(t0))
    f1 = np.exp(1j * p1) * faddeeva(_RAY * np.abs(t1))
    out = np.where(t0 >= 0.0, f0, -f0) + np.where(t1 > 0.0, -f1, f1) + inner * (2.0 * np.exp(1j * ps))
    return (math.sqrt(math.pi) / (2.0 * ra)) * _RAY * out


def _require_stationary_phase(n: int, frame: TomographyFrame) -> None:
    """Refuse what the box stationary-phase form does not hold for."""
    if frame.mu == 0.0 or frame.nu == 0.0:
        raise TomogramError("stationary-phase route requires mu != 0 and nu != 0")
    if n < 10:
        raise TomogramError(f"stationary phase validated for n >= 10, got {n}")


def box_tomogram_stationary_phase(n: int, L: float, frame: TomographyFrame, X):
    """Large-n stationary-phase form of the box tomogram at the
    unit-energy hbar = sqrt2 L/(n pi):

        [chi_- + chi_+ - 2 chi_- chi_+ cos(2 pi n X/(mu L))] / (2 |mu| L),

    chi_-+ the indicators of the two classical plateaus (`box_plateaus`).
    The two branch phases differ by exactly 2 pi n X/(mu L), so the fringe
    has period |mu| L/n and averages out over one period where the
    plateaus overlap.  Vanishes off both plateaus; requires mu != 0,
    nu != 0 and n >= 10.
    """
    _require_stationary_phase(n, frame)
    Xv = np.asarray(X, dtype=float)
    chim, chip = _box_indicators(Xv, frame, L)
    fringe = np.cos(2.0 * math.pi * n * Xv / (frame.mu * L))
    out = (chim + chip - 2.0 * chim * chip * fringe) / (2.0 * abs(frame.mu) * L)
    return float(out) if np.isscalar(X) else out


# at most this many Gauss-Legendre panels (8 nodes each) per panel set
_MAX_PANELS = 4_000_000
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
        self.needed, self.allowed = needed, allowed
        super().__init__(f"chirp quadrature needs {needed} panels ({8 * needed} nodes) "
                         f"but only {allowed} are allowed")


def _gl_panels(coarse: np.ndarray, dphase: np.ndarray,
               env_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights over the coarse cells (any widths,
    increasing edges), each split into equal panels that keep its phase
    change dphase under 1/8 of a period and its width under half the
    envelope scale (env_scale = inf: no envelope split).  Inside each cell
    the panel edges are the values np.linspace(left, right, nsplit + 1) gives.
    """
    width = np.diff(coarse)
    nsplit = np.maximum(np.maximum(np.ceil(dphase / _PHASE_PER_PANEL),
                                   np.ceil(width / (0.5 * env_scale))), 1).astype(int)
    total = int(nsplit.sum())
    if total > _MAX_PANELS:
        raise ChirpResolutionError(total, _MAX_PANELS)
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


def _chirp_panels(cells: np.ndarray, a: float, b_max: float,
                  env_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The panel rule of every chirped quadrature: one panel set for all
    env(y) e^{i(a y^2 + b y)} with |b| <= b_max, split by :func:`_phase_change`."""
    return _gl_panels(cells, _phase_change(cells, a, b_max), env_scale)


def _phase_change(cells: np.ndarray, a: float, b_max: float) -> np.ndarray:
    """Most a y^2 + b y, |b| <= b_max, changes across each cell wherever
    y = -b/2a lies: |a| |Delta(y|y|)| + b_max Delta y."""
    return abs(a) * np.abs(np.diff(cells * np.abs(cells))) + b_max * np.diff(cells)


def _cells(state: State, hbar: float) -> tuple[np.ndarray, float]:
    """Edges of the position cells inside which psi is smooth, and the
    envelope scale that splits them.  A sampled state's interpolant is
    linear between its samples, so its cells are the sample grid and need
    no envelope split; other states get 64 equal cells of their extent."""
    if state.sampled:
        return state.x_grid, math.inf
    lo, hi = position_extent(state, hbar)
    return np.linspace(lo, hi, 65), state.envelope_scale(hbar)


def _ladder_amplitudes(env, a: float, slope: float, x: np.ndarray,
                       cells: np.ndarray, env_scale: float) -> np.ndarray:
    """Amplitudes int env(y) e^{i(a y^2 + b_k y)} dy over [cells[0], cells[-1]]
    for the whole uniform family b_k = slope * x_k, sharing one
    Gauss-Legendre panel set over the equal coarse cells (edges `cells`).

    Every cell is split like the one whose phase changes most over the
    family, so the panels are equal, of width h, end on the cell edges,
    and node r of panel p sits at y_r + p h.  With e^{i(a y^2 + slope x_0 y)}
    folded into the weights g, the amplitude at x_k = x_0 + k dx is
    sum_r e^{i k s y_r} sum_p g_{p,r} e^{i k s h p}, s = slope dx: eight
    chirp sums in one :func:`specfun.chirp_sum` call.
    """
    x = np.asarray(x, dtype=float)
    # one panel set for the family: the stationary point sweeps with X
    worst = _phase_change(cells, a, max(abs(slope * x[0]), abs(slope * x[-1]))).max()
    first, weights = _gl_panels(cells[:2], np.array([worst]), env_scale)
    panels = first.size // 8 * (cells.size - 1)
    if panels > _MAX_PANELS:
        raise ChirpResolutionError(panels, _MAX_PANELS)
    y, h, s = first[:8], (cells[-1] - cells[0]) / panels, slope * _check_uniform_grid(x)
    nodes = y + h * np.arange(panels)[:, None]
    g = env(nodes.ravel()).reshape(nodes.shape) * np.exp(1j * (a * nodes + slope * x[0]) * nodes)
    sums = chirp_sum(g.T * weights[:8, None], 0.5 * s * h, x.size)
    return (_phases(y, s * np.arange(x.size)) * sums).sum(axis=0)


def tomogram_from_wavefunction(state: State, frame: TomographyFrame,
                               x_grid, hbar: float) -> Tomogram:
    """Tomogram by quadrature of the defining amplitude integral, for
    every state: the reference route closed forms are checked against.

    The zero frame is the unit atom at X = 0; nu = 0 is the exact
    position marginal |psi(X/mu)|^2/|mu|; otherwise the amplitude integral
    of psi, with the prefactor 1/(2 pi hbar |nu|).  The representation is
    chosen so that prefactor stays bounded: the Fourier turn q -> p,
    p -> -q takes the frame to (nu, -mu) and psi to psihat, and is taken
    when mu = 0 (so the exact momentum marginal |psihat(X/nu)|^2/|nu|) or
    when |nu|*sigma_p < |mu|*sigma_q; ties stay on the position side.
    Sampled states always integrate on the position side, where their
    support is compact, mu = 0 included: every frame then integrates the
    same linear interpolant.
    """
    x = np.asarray(x_grid, dtype=float)
    if frame.is_zero:
        return Tomogram(frame, x, np.zeros_like(x), (DeltaAtom(1.0, 0.0),))
    sq, sp = natural_scales(state, hbar)
    fourier = not state.sampled and frame.nu != 0.0 and (
        frame.mu == 0.0 or abs(frame.nu) * sp < abs(frame.mu) * sq)
    mu, nu = (frame.nu, -frame.mu) if fourier else (frame.mu, frame.nu)
    env = (momentum_wavefunction if fourier else position_wavefunction)(state, hbar)
    if nu == 0.0:
        return Tomogram(frame, x, np.abs(env(x / mu)) ** 2 / abs(mu))
    # psihat's cells span the momentum extent; it varies on psi's scale times sigma_p/sigma_q
    cells = ((np.linspace(*state.momentum_extent(hbar), 65), state.envelope_scale(hbar) * sp / sq)
             if fourier else _cells(state, hbar))
    amps = _ladder_amplitudes(env, mu / (2.0 * hbar * nu), -1.0 / (hbar * nu), x, *cells)
    return Tomogram(frame, x, np.abs(amps) ** 2 * (1.0 / (2.0 * math.pi * hbar * abs(nu))))


def default_x_grid(state: State, frame: TomographyFrame, hbar: float,
                   count: int = 2001, tails: float = 8.0) -> np.ndarray:
    """Uniform X grid covering mu*[q support] + nu*[p support], with at
    least 3n + 1 points for a state of largest order n, about three for
    each node of its tomogram (2n + 1 left 5e-5 of the mass off at
    n = 3000)."""
    lo, hi = state.x_extent(frame, hbar, tails)
    if hi <= lo:  # the zero frame: the tomogram is the unit atom at X = 0
        lo -= 1.0
        hi += 1.0
    return np.linspace(lo, hi, max(count, 3 * state.max_order() + 1))


# Closed-form tomograms, keyed by class here because states.py cannot import
# this module; the entries call the module functions by global name, so
# rebinding one of those names (tracing, tests) reaches every route.  The
# oscillator entries are written at varpi = 1 and receive the frame that
# state_tomogram maps each state to.
_ROUTES = {
    HOEigen: lambda s, fr, x, h: hermite_tomogram(s.n, fr, x, h),
    Coherent: lambda s, fr, x, h: coherent_tomogram(s.alpha, fr, x, h),
    **dict.fromkeys((CatEven, CatOdd), lambda s, fr, x, h: cat_tomogram(s.alpha, s.parity, fr, x, h)),
    Superposition: lambda s, fr, x, h: superposition_tomogram(s.n, s.m, fr, x, h),
    BoxEigen: lambda s, fr, x, h: box_tomogram(s.n, s.L, fr, x, h).values,
}


def state_tomogram(state: State, frame: TomographyFrame, x_grid,
                   hbar: float) -> Tomogram:
    """Tomogram of any state, and the one place its route is chosen: the
    zero frame is the unit atom delta(X); a state in the route table takes
    its closed form (a varpi oscillator state at varpi = 1 in the frame
    (mu/sqrt(varpi), nu sqrt(varpi)), a box state exactly in every frame);
    every other state the quadrature of :func:`tomogram_from_wavefunction`."""
    x = np.asarray(x_grid, dtype=float)
    if frame.is_zero:
        return Tomogram(frame, x, np.zeros_like(x), (DeltaAtom(1.0, 0.0),))
    route = _ROUTES.get(type(state))
    if route is not None:
        r = math.sqrt(getattr(state, "varpi", 1.0))
        return Tomogram(frame, x, route(state, TomographyFrame(frame.mu / r, frame.nu * r), x, hbar))
    return tomogram_from_wavefunction(state, frame, x, hbar)


# ---------------------------------------------------------------------------
# Wigner maps
# ---------------------------------------------------------------------------

def rho_grid(state: State, hbar: float, x_grid) -> GridFunction2D:
    """Pure-state density matrix rho(x, x') = psi(x) psi*(x') on a grid."""
    x = np.asarray(x_grid, dtype=float)
    psi = position_wavefunction(state, hbar)(x)
    return GridFunction2D(x, x, np.outer(psi, np.conj(psi)))


_HERMITIAN_ROWS = 64  # rows of rho - rho^dagger built at once by _hermitian_residual


def _hermitian_residual(v: np.ndarray) -> tuple[float, float]:
    """(max |v - v^dagger|, max |v|) of a square matrix; the residual is NaN for a NaN entry."""
    # |v - v^dagger|^2 from the parts, (Re v - Re v^T)^2 + (Im v + Im v^T)^2,
    # in blocks of rows: three n x n temporaries cost more in page faults than
    # in arithmetic; |v_ij - conj v_ji| is symmetric, so each block of rows
    # is compared from its own diagonal on, the upper triangle only, and
    # |v|^2 is read from the parts of its whole rows (past |v| ~ 1e154 it
    # overflows to inf, as the residual's squares already did)
    worst, big = [], []
    for i in range(0, v.shape[0], _HERMITIAN_ROWS):
        r = slice(i, i + _HERMITIAN_ROWS)
        d = np.square(v.real[r, i:] - v.real[i:, r].T)
        d += np.square(v.imag[r, i:] + v.imag[i:, r].T)
        worst.append(np.max(d))
        d = np.square(v.real[r])
        d += np.square(v.imag[r])
        big.append(np.max(d))
    return math.sqrt(float(np.max(worst))), math.sqrt(float(np.max(big)))


def _check_hermitian(rho: GridFunction2D) -> float:
    """The Hermiticity residual of rho, refused past 1e-6 max(1, max |rho|)."""
    if rho.values.shape[0] != rho.values.shape[1] or not np.array_equal(rho.x_grid, rho.y_grid):
        raise TomogramError("density matrix grid must be square with equal axes")
    resid, scale = _hermitian_residual(rho.values)
    if not resid <= 1e-6 * max(1.0, scale):  # a NaN fails
        raise TomogramError(f"density matrix is non-Hermitian (residual {resid:.3e})")
    return resid


def wigner_grid_from_density(rho: GridFunction2D, q_grid, p_grid,
                             hbar: float) -> tuple[GridFunction2D, float]:
    """Wigner samples W[iq, ip] = int rho(q + u/2, q - u/2) e^{-i p u/hbar} du
    plus the worst imaginary residual, from grid values of rho only.

    On the density grid x_a = x0 + a h the anti-diagonal rho[a, m - a] holds
    exact samples of the half-grid row q_m = x0 + m h/2, at u = (2a - m) h.
    The trapezoid rule in u (step 2h, end weights 1/2, rho zero off the grid)
    gives R_m(p) = sum_u w_u rho(q_m + u/2, q_m - u/2) e^{-i p u/hbar}, summed
    over the Hermitian pairs u = +-kh, k = 2j + m mod 2 <= kmax = min(m,
    2n - 2 - m): with c+- = rho[(m +- k)/2, (m -+ k)/2], s = w (c+ + conj c-)
    and d = w (c+ - conj c-) (the centre k = 0 at half weight), Re R_m =
    sum_k Re s cos(pkh/hbar) + Im s sin(pkh/hbar) and Im R_m = sum_k Im d
    cos(pkh/hbar) - Re d sin(pkh/hbar).  W(q, p) = sum_r l_r(q) R_{m_r}(p),
    the cubic Lagrange interpolant over the 4 rows nearest q (0 off the
    grid); the 2 rows of one parity share their k, so l_r s and l_r d are
    summed over them first, and each parity is one real matrix product.  A
    rho of Hermiticity residual exactly 0 (as from `rho_grid`) has c- = conj
    c+ bit for bit: s = 2 w c+ from one sample per pair, and no d.
    The error is the trapezoid rule's (spectral for a rho that decays inside
    the grid) plus O(h^4) from the q interpolation: below 2e-6 for HOEigen(0..3)
    and a coherent state on 401 points over +-6 sqrt(hbar).  The step 2h
    aliases W(q, p) with W(q, p +- pi hbar/h), so |p| > pi*hbar/(2h) is
    refused.  The residual, max |Im W| over the output grid, is the
    anti-Hermitian part of rho: exactly 0 for a rho with none.
    """
    q = np.asarray(q_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    pairs = 1 if _check_hermitian(rho) == 0.0 else 2  # samples read per Hermitian pair
    x, h, n = rho.x_grid, rho.dx, rho.x_grid.size
    pmax, bound = float(np.max(np.abs(p), initial=0.0)), math.pi * hbar / (2.0 * h)
    if pmax > bound:
        raise TomogramError(f"|p| up to {pmax:.4g} exceeds the aliasing bound pi*hbar/(2h) = "
                            f"{bound:.4g} of the density grid (h = {h:.4g})")
    inside = (q >= x[0]) & (q <= x[-1])
    t = (q[inside] - x[0]) / (0.5 * h)
    k = min(4, 2 * n - 1)
    n0 = np.clip(np.floor(t).astype(int) - 1, 0, 2 * n - 1 - k)  # the first of the k rows nearest q
    v = np.ascontiguousarray(rho.values).ravel()
    j, iq, nq = np.arange((n + 1) // 2), np.arange(t.size), t.size
    E = _phases(j, p * (-2.0 * h / hbar))  # e^{-2i p j h/hbar}
    # cos and sin rows e^{-i p (2j + odd) h/hbar} of each row parity, interleaved as [cos_j, sin_j]
    CS = [np.stack([T.real, -T.imag], 1).reshape(-1, p.size) for T in (E, E * np.exp(-1j * h / hbar * p))]
    Z = np.zeros((2, nq, pairs, j.size), complex)  # sum_r l_r s and sum_r -i l_r d over each parity of r
    for r in range(k):
        m, l = n0 + r, np.prod([(t - (n0 + i)) / (r - i) for i in range(k) if i != r], axis=0)
        odd, kmax = m % 2, np.minimum(m, 2 * n - 2 - m)
        # l_r(q) times the trapezoid weights of step 2h over the pairs k = 2j + odd
        # <= kmax: 2h inside, h at the ends +-kmax, 0 on a one-sample row; twice
        # that when s = 2 w c+ is read from one sample
        hl = (2.0 / pairs) * h * l
        w = np.where(2 * j + odd[:, None] <= kmax[:, None], 2.0 * hl[:, None], 0.0)
        w[iq, kmax // 2] = hl * (kmax > 0)
        w[:, 0] /= 2 - odd  # the centre k = 0 of an even row is both c+ and c-
        # c+ = rho[a, m - a] and c- = rho[m - a, a], a = (m + k)/2 = (m + odd)/2 + j,
        # are flat elements m + a (n - 1) and m (n + 1) less that; a pair past
        # kmax has weight 0 and reads any element of the buffer
        b = ((m + odd) // 2 * (n - 1) + m)[:, None] + j * (n - 1)
        c = v.take(b, mode="clip")
        if pairs == 2:
            cm = np.conj(v.take((m * (n + 1))[:, None] - b, mode="clip"))
            Z[r % 2, :, 1] += -1j * w * (c - cm)
            c += cm
        c *= w
        Z[r % 2, :, 0] += c
    S = Z[(np.arange(2)[:, None] + n0) % 2, iq].reshape(2, -1, j.size)  # by row parity, (n0 + r) % 2
    # rows [Re s, Im s] over [Im d, -Re d] as interleaved float columns, on cos and sin rows alike
    W = (S[0].view(float) @ CS[0] + S[1].view(float) @ CS[1]).reshape(nq, pairs, p.size)
    out = np.zeros((q.size, p.size))
    out[inside] = W[:, 0]
    return GridFunction2D(q, p, out), float(np.max(np.abs(W[:, 1:]), initial=0.0))


def tomogram_from_wigner(w: GridFunction2D, frame: TomographyFrame, x_grid,
                         hbar: float) -> Tomogram:
    """Radon transform of a Wigner grid, (1/2 pi hbar) int W delta(X - mu q - nu p);
    the zero frame returns the unit atom delta(X)."""
    x = np.asarray(x_grid, dtype=float)
    if frame.is_zero:
        return Tomogram(frame, x, np.zeros_like(x), (DeltaAtom(1.0, 0.0),))
    line = _radon_slice(w, frame, x) / (2.0 * math.pi * hbar)
    np.maximum(line, 0.0, out=line)
    return Tomogram(frame, x, line)


# ---------------------------------------------------------------------------
# tomogram families and the inverse maps
# ---------------------------------------------------------------------------

def build_state_family(state: State, hbar: float, mu_grid, nu_grid) -> FrameSamples:
    """Characteristic samples G(mu, nu) = int W(X; mu, nu) e^{iX} dX =
    <exp(i(mu q + nu p))> of one state over a rectangular (mu, nu) grid,
    with no tomogram built.

    A state with a closed form, :meth:`State.characteristic`, gives G in
    one vectorised call (the oscillator catalog from <D(beta)>, box states
    from three elementary integrals); every other state takes the Weyl
    overlap quadrature of :func:`_overlap_characteristic`.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    nu_grid = np.asarray(nu_grid, dtype=float)
    G = state.characteristic(mu_grid, nu_grid, hbar)
    G = _overlap_characteristic(state, mu_grid, nu_grid, hbar) if G is None else np.array(G, dtype=complex)
    G[(mu_grid == 0.0)[:, None] & (nu_grid == 0.0)[None, :]] = 1.0  # unit atom at X = 0
    return FrameSamples(mu_grid, nu_grid, G, *_support_radii(state, hbar))


def _support_radii(state: State, hbar: float) -> tuple[float, float]:
    # the 4-sigma q and p radii: what the Nyquist check and the frame step
    # need, not the 8-sigma quadrature padding
    qlo, qhi = position_extent(state, hbar, tails=4.0)
    plo, phi = state.momentum_extent(hbar, tails=4.0)
    return max(abs(qlo), abs(qhi)), max(abs(plo), abs(phi))


def wigner_from_tomogram_grid(family: FrameSamples, q_grid, p_grid,
                              hbar: float) -> tuple[GridFunction2D, float]:
    """Wigner reconstruction W[iq, ip] plus the worst imaginary residual."""
    q = np.asarray(q_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    acc = characteristic_quadrature(family, q, p)
    acc *= hbar / (2.0 * math.pi)
    return GridFunction2D(q, p, acc.real), float(np.max(np.abs(acc.imag)))


def build_state_slices(state: State, hbar: float, nu_values, mu_grid) -> FrameSamples:
    """The family at the nu slices nu = (x - x')/hbar that the density-matrix
    reconstruction reads: d h/hbar, |d| < n, on an n-point grid of step h."""
    return build_state_family(state, hbar, mu_grid, nu_values)


def density_grid_from_tomogram(samples: FrameSamples, x_points,
                               hbar: float) -> tuple[np.ndarray, float]:
    """rho(x, x') on the pairs of x_points, the trapezoid mu integral of
    G(mu, (x - x')/hbar) e^{-i mu (x + x')/2} / 2 pi; returns (matrix,
    Hermiticity residual).

    On the uniform increasing grid x_k = x0 + k h the pair (x_i, x_j) lies
    on the half-grid row m = i + j, (x + x')/2 = x0 + m h/2, at the offset
    d = i - j, nu = d h/hbar.  samples must hold exactly those 2n - 1 slices,
    ascending.  M = (weighted phases over the 2n - 1 rows) G is one einsum in
    numpy's own loop, so rho does not depend on the BLAS build, and
    rho[i, j] = M[i + j, i - j + n - 1].
    """
    xs = np.asarray(x_points, dtype=float)
    n, h = xs.size, _check_uniform_grid(xs, "x_points")
    nus = np.arange(1 - n, n) * (h / hbar)
    got = samples.nu_grid
    if got.shape != nus.shape or not np.all(np.abs(got - nus) <= 1e-9 * np.maximum(1.0, np.abs(nus))):
        raise TomogramError(
            f"tomogram slices do not fit x_points: its pairs need exactly the {nus.size} slices "
            f"nu = d h/hbar, |d| < {n}, h/hbar = {h / hbar:.12g}, ascending; the family has {got.size}"
        )
    u = xs[0] + 0.5 * h * np.arange(2 * n - 1)
    mu = samples.mu_grid
    dmu = samples.frame_step()[0]
    smax = float(np.max(np.abs(u)))
    if dmu * smax > math.pi:
        raise TomogramError(
            f"mu grid too coarse for |x + x'|/2 = {smax:.3f} "
            f"(need dmu <= {math.pi / smax:.3f})"
        )
    M = np.einsum("ma,ad->md", _weighted_phases(-u, mu), samples.values)
    i = np.arange(n)
    rho = M[i[:, None] + i, i[:, None] - i + n - 1] * (dmu / (2.0 * math.pi))
    return rho, _hermitian_residual(rho)[0]


# ---------------------------------------------------------------------------
# reconstructions of a state from its own tomogram family
# ---------------------------------------------------------------------------

# largest |G| a Wigner reconstruction may leave on the edge of its frame
# box, and how often each axis may double to get there
FRAME_TAIL_TOL = 1e-3
FRAME_BOX_DOUBLINGS = 6


def _frame_axis(reach: float, radius: float) -> np.ndarray:
    """-reach to reach in an odd count of steps of at most 2.5/radius, the
    Radon sampling condition for a support of that radius (Natterer, The
    Mathematics of Computerized Tomography, ch. III)."""
    n = 2 * int(math.ceil(reach * radius / 2.5)) + 1
    # exactly symmetric with its centre exactly 0: np.linspace can leave it
    # at +-4e-16, a frame whose tomogram is a needle of width ~1e-15 that no
    # X grid resolves
    h = (n - 1) / 2
    return reach * (np.arange(n) - h) / h if n > 1 else np.zeros(1)


def reconstruct_wigner(state: State, hbar: float, q_grid=None) -> tuple[GridFunction2D, dict]:
    """W from the state's frame family on q_grid (default 41 points over 0.6
    of the q support radius) by q scaled to the p radius, and the fields
    imag_residual, frame_box_tail and (exact W known) max_error_vs_exact."""
    qext, pext = _support_radii(state, hbar)
    # the characteristic function of |n> decays like L_n(lam) e^{-lam/2}
    # with lam = (mu^2 sq^2 + nu^2 sp^2)/2; size the frame box so the
    # discarded tail is ~1e-6
    lam_cut = 32.0 + 8.0 * state.max_order()
    sq, sp = natural_scales(state, hbar)
    mu_max = math.sqrt(lam_cut) / (sq / math.sqrt(2.0))
    nu_max = math.sqrt(lam_cut) / (sp / math.sqrt(2.0))
    # double each axis whose edge frames still carry |G| over
    # FRAME_TAIL_TOL: a box eigenstate's G decays only like 1/mu^2
    for _ in range(FRAME_BOX_DOUBLINGS + 1):
        fam = build_state_family(state, hbar, _frame_axis(mu_max, qext), _frame_axis(nu_max, pext))
        wide_mu, wide_nu = (tail > FRAME_TAIL_TOL for tail in fam.edge_tails())
        if not (wide_mu or wide_nu):
            break
        mu_max *= 2.0 if wide_mu else 1.0
        nu_max *= 2.0 if wide_nu else 1.0
    q = np.linspace(-0.6 * qext, 0.6 * qext, 41) if q_grid is None else np.asarray(q_grid, dtype=float)
    p = q * pext / qext
    wrec, resid = wigner_from_tomogram_grid(fam, q, p, hbar)
    report = {"imag_residual": resid, "frame_box_tail": max(fam.edge_tails())}
    exact = state.exact_wigner(hbar)
    if exact is not None:
        report["max_error_vs_exact"] = float(np.max(np.abs(wrec.values - exact(p[None, :], q[:, None]))))
    return wrec, report


def reconstruct_density(state: State, hbar: float, x_points=None) -> tuple[GridFunction2D, dict]:
    """rho on the pairs of x_points (uniform and increasing; default 31 over
    the 3-sigma position support) from the 2n - 1 slices nu = d h/hbar,
    |d| < n, |mu| <= 6/sigma_q, and the fields hermiticity_residual,
    frame_box_tail, trace and (not sampled) max_error_vs_exact,
    max |rho - rho_grid| in units of max(1, max |rho_grid|)."""
    xs = (np.linspace(*position_extent(state, hbar, tails=3.0), 31) if x_points is None
          else np.asarray(x_points, dtype=float))
    nus = np.arange(1 - xs.size, xs.size) * (_check_uniform_grid(xs, "x_points") / hbar)
    sq, _ = natural_scales(state, hbar)
    slices = build_state_slices(state, hbar, nus, _frame_axis(6.0 / sq, max(np.abs(xs))))
    rho, herm = density_grid_from_tomogram(slices, xs, hbar)
    report = {"hermiticity_residual": herm, "frame_box_tail": max(slices.edge_tails()),
              "trace": float(np.trapezoid(np.real(np.diag(rho)), xs))}
    if not state.sampled:
        exact = rho_grid(state, hbar, xs).values
        report["max_error_vs_exact"] = float(np.max(np.abs(rho - exact))) / max(1.0, float(np.max(np.abs(exact))))
    return GridFunction2D(xs, xs, rho), report
