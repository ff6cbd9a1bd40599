"""Cavity-assisted adiabatic passage and single-photon emission.

Two atom-cavity nodes are modeled:

- the *source* node ("alice" in configs) holds the qubit in two Zeeman ground
  states gL, gR; a classical field Omega(t) and two circularly polarized
  cavity modes drive Raman passage into a common final state g0, depositing
  the qubit onto the polarization of an intracavity photon:

      H_A = -(Delta + i gamma/2)(|eL><eL| + |eR><eR|)
            + [ Omega(t)(|eL><gL| + |eR><gR|)
              + g (a_L |eL><g0| + a_R |eR><g0|) + h.c. ]

- the *remote* node ("bob") starts in a single ground state gp0 and branches
  into gL, gR while emitting the opposite circular polarization:

      H_B = -(Delta + i gamma/2)|e0><e0|
            + [ Omega(t)|e0><gp0|
              + g (a_R |e0><gL| + a_L |e0><gR|) + h.c. ]

Each node has an exact dark manifold (zero excited-state component, null for
every real detuning).  Slow ramps of Omega rotate the dark states from the
bare atomic levels onto one-photon cavity states; cavity decay kappa then
releases the photon with the analytic envelope

    f(t) = sqrt(kappa) sin(theta(t)) exp(-(kappa/2) int_0^t sin^2(theta)) .

Each node is one three-level Lambda system.  A passage moves exactly one
excitation.  At the source node the states it reaches split into two blocks
that share no state, {gL, eL, g0 + 1_L} and {gR, eR, g0 + 1_R}, with the
same generator, so a|gL> + b|gR> evolves into a times the gL block plus b
times the gR block.  At the remote node e0 couples only to the bright
combination (|gL>|1_R> + |gR>|1_L>)/sqrt(2), with strength sqrt(2) g; the
dark combination is never reached.  Either way the node is the block
{g, e, c} (driven ground level, excited level, ground level holding the
photon) with

    H_eff = -(Delta + i gamma/2)|e><e| - i (kappa/2)|c><c|
            + [ Omega(t)|e><g| + sqrt(fanout) g(t)|e><c| + h.c. ] ,

fanout being the number of cavity couplings per excited level (1 at the
source node, 2 at the remote one).  The photon is exactly the node's (L, R)
split times the block's envelope sqrt(kappa) c(t): the input (a, b) at the
source, (1, 1)/sqrt(2) at the remote node.  The envelope does not depend on
the split, and the emission and loss fluxes are diagonal, so they come from
the block alone.

Time evolution is an error-controlled uniform-step RK4 integration of the
non-Hermitian Schrodinger equation i d|psi>/dt = H_eff |psi> of the block.
A step-doubling (Richardson) estimate of the local error bounds the error of
every grid state; the grid is refined until that bound is below
``STEP_TOL``.  Probability bookkeeping (cavity emission flux and
spontaneous-emission flux) is integrated as extra RK4 components so that
emission + spontaneous loss + final norm^2  closes to the initial norm at
integrator order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Side",
    "SystemParams",
    "PulseSchedule",
    "MixingAngle",
    "FANOUT",
    "PULSE_SHAPES",
    "MAX_STEPS",
    "STEP_TOL",
    "dark_state",
    "mixing_angle",
    "DynamicsReport",
    "step_count",
    "evolve",
    "pulse_shape_analytic",
    "pulse_overlap",
    "pulse_overlap_complex",
    "emission_identity_check",
]

PULSE_SHAPES = ("sin2", "tanh", "linear")

# integrator: first-guess steps per unit of the fastest rate in the problem
_RATE_RESOLUTION = 10.0
# the summed step-doubling error estimate an accepted grid stays under
STEP_TOL = 1e-7
# refinement aims this far below STEP_TOL so one rerun usually suffices
_STEP_SAFETY = 0.9
NORM_INCREASE_TOL = 1e-10

# A passage keeps about this many bytes per step alive: time and drive grids,
# two complex channel records, the envelope temporaries and the text of its
# pulse CSV.  MAX_STEPS holds that to 512 MiB per node.
_BYTES_PER_STEP = 256
MAX_STEPS = (512 << 20) // _BYTES_PER_STEP
# RK4 steps whose one-step propagators ``evolve`` builds together
_CHUNK = 256


class Side(str, Enum):
    ALICE = "alice"   # source node: qubit in gL/gR, passage into g0 + photon
    BOB = "bob"       # remote node: gp0 branches into gL/gR + photon


# cavity couplings per excited level: the dark state weighs Omega against
# sqrt(fanout) g, and the remote photon splits evenly over its two couplings
FANOUT = {Side.ALICE: 1, Side.BOB: 2}


@dataclass(frozen=True)
class SystemParams:
    """Atom-cavity node parameters in units of the static coupling g.

    ``epsilon``/``nu`` describe an optional slow modulation of the coupling,
    g(t) = g (1 + epsilon sin(nu t)), used for robustness sweeps.
    """

    side: Side = Side.ALICE
    g: float = 1.0
    kappa: float = 1.0
    gamma: float = 0.1
    delta: float = 0.0
    epsilon: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "side", Side(self.side))
        # each check is written so that nan fails it
        if not self.g > 0:
            raise ValueError("g must be positive")
        if not (self.kappa >= 0 and self.gamma >= 0):
            raise ValueError("kappa and gamma must be non-negative")
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError("epsilon must lie in [0, 1)")
        if not (math.isfinite(self.delta) and math.isfinite(self.nu)):
            raise ValueError("delta and nu must be finite")

    def g_at(self, t):
        """Coupling at time t; exactly ``g`` when modulation is off."""
        return self.g * (1.0 + self.epsilon * np.sin(self.nu * np.asarray(t)))


@dataclass(frozen=True)
class PulseSchedule:
    """Classical drive envelope: monotone ramp 0 -> omega_max, then hold.

    The ramp occupies t_total (1 - hold_fraction); afterwards the drive sits
    at omega_max.  Shapes: sin2 (default), tanh, linear; all satisfy
    Omega(0) = 0 and Omega(t_ramp) = omega_max exactly.
    """

    omega_max: float = 20.0
    t_total: float = 200.0
    hold_fraction: float = 0.25
    shape: str = "sin2"

    def __post_init__(self):
        if not (self.omega_max > 0 and self.t_total > 0):     # also refuses nan
            raise ValueError("omega_max and t_total must be positive")
        if not (0.0 <= self.hold_fraction < 1.0):
            raise ValueError("hold_fraction must lie in [0, 1)")
        if self.shape not in PULSE_SHAPES:
            raise ValueError(f"unknown pulse shape {self.shape!r}; pick from {PULSE_SHAPES}")

    @property
    def t_ramp(self) -> float:
        return self.t_total * (1.0 - self.hold_fraction)

    def value(self, t):
        """Omega(t); vectorized over numpy arrays."""
        t = np.asarray(t, dtype=float)
        x = np.clip(t / self.t_ramp, 0.0, 1.0)
        if self.shape == "sin2":
            ramp = np.sin(0.5 * math.pi * x) ** 2
        elif self.shape == "tanh":
            ramp = np.tanh(3.0 * x) / math.tanh(3.0)
        else:  # linear
            ramp = x
        out = self.omega_max * ramp
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MixingAngle:
    """Dark-state rotation angle theta between bare atom and one-photon states."""

    theta: float

    @property
    def cos(self) -> float:
        return math.cos(self.theta)

    @property
    def sin(self) -> float:
        return math.sin(self.theta)

    @classmethod
    def for_side(cls, side: Side, g: float, omega: float) -> "MixingAngle":
        """cos(theta) = sqrt(f) g / sqrt(f g^2 + Omega^2), f the node's fanout."""
        return cls(math.atan2(omega, math.sqrt(FANOUT[Side(side)]) * g))


def mixing_angle(p: SystemParams, omega: PulseSchedule, t: float) -> MixingAngle:
    return MixingAngle.for_side(p.side, float(p.g_at(t)), float(omega.value(t)))


def _dark_norm_sq(p: SystemParams, g, om):
    """f g^2 + Omega^2: sin(theta)^2 = Omega^2 / this (vectorized)."""
    return FANOUT[p.side] * g ** 2 + om ** 2


# ---------------------------------------------------------------------------
# the Lambda block {g, e, c}: Hamiltonian pieces and dark state
# ---------------------------------------------------------------------------

_E, _C = 1, 2         # excited level, photon state; the block starts in g = 0
_DRIVE = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
_CAVITY = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)


def _parts(p: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pieces of the block's H(t) = static + Omega(t) drive + g(t) cavity:
    -(Delta + i gamma/2) on e, the unit-Omega g-e coupling and the e-c
    coupling sqrt(fanout) per unit g.  ``evolve`` adds -i kappa/2 on c."""
    static = np.diag([0.0, -(p.delta + 0.5j * p.gamma), 0.0])
    return static, _DRIVE, math.sqrt(FANOUT[p.side]) * _CAVITY


def dark_state(p: SystemParams, omega: PulseSchedule, t: float) -> np.ndarray:
    """Analytic dark state of the block at time t: (cos th, 0, -sin th) on
    {g, e, c}.

    On the full node it is D1 = cos|gL> - sin|g0>|1,0> and
    D2 = cos|gR> - sin|g0>|0,1> at the source node, and
    D = cos|gp0> - sin/sqrt(2) (|gL>|0,1> + |gR>|1,0>) at the remote one.
    """
    ang = mixing_angle(p, omega, t)
    return np.array([ang.cos, 0.0, -ang.sin], dtype=complex)


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicsReport:
    """Everything one passage produces, on the integration grid.

    The emitted photon is the node's (L, R) split, as given to ``evolve``,
    times the envelope ``pulse_shape``, which does not depend on the split;
    ``channel_pulses`` holds the two products.  Every array is read-only.
    """

    final_state: np.ndarray       # block amplitudes (g, e, c) at t_total
    emission_prob: float          # integral of the cavity output flux
    spont_loss: float             # integral of the spontaneous-emission flux
    excited_pop_max: float
    closure_error: float          # |emission + loss + final norm^2 - initial norm^2|
    error_bound: float            # summed step-doubling estimate, <= STEP_TOL
    t_grid: np.ndarray
    pulse_shape: np.ndarray       # sqrt(kappa) c(t) of the block, common to both channels
    channel_pulses: dict          # 'L'/'R' -> sqrt(kappa) * cavity amplitude samples
    params: SystemParams
    omega: PulseSchedule


def step_count(p: SystemParams, omega: PulseSchedule, dt: float) -> float:
    """First guess of the RK4 steps ``evolve`` takes over [0, t_total].

    The requested step is clamped to resolve the fastest rate,
    h = min(dt, 1 / (10 fastest)) with fastest = max(g (1 + epsilon),
    omega_max, kappa, |Delta|), plus the modulation rate |nu| when epsilon is
    non-zero, and at least 1000 steps are taken, so the step used never
    exceeds t_total/1000.  ``evolve`` refines this grid when its error
    estimate is above ``STEP_TOL``.  A float, so that rates too large to
    count read as inf.
    """
    fastest = max(p.g * (1.0 + p.epsilon), omega.omega_max, p.kappa, abs(p.delta))
    if p.epsilon != 0.0:
        fastest += abs(p.nu)
    h_req = min(dt, 1.0 / (_RATE_RESOLUTION * fastest))
    n = omega.t_total / h_req if h_req > 0 else math.inf
    return float(max(1000, math.ceil(n))) if math.isfinite(n) else math.inf


def _rk4(a0: np.ndarray, ah: np.ndarray, a1: np.ndarray, h: float):
    """RK4 propagators of steps of size h, batched over the leading axis.

    ``a0``, ``ah``, ``a1`` hold -i H_eff at the start, middle and end of each
    step.  The stages are linear in psi: stage s starts from y_s @ psi.
    Returns (step matrices, (y2, y3, y4)).
    """
    eye = np.eye(a0.shape[-1])
    y2 = eye + (0.5 * h) * a0
    b2 = ah @ y2
    y3 = eye + (0.5 * h) * b2
    b3 = ah @ y3
    y4 = eye + h * b3
    step = eye + (h / 6.0) * (a0 + 2.0 * b2 + 2.0 * b3 + a1 @ y4)
    return step, (y2, y3, y4)


def _chunks(n_steps: int) -> list[tuple[int, int]]:
    """[lo, hi) step ranges of ``_CHUNK`` steps over n_steps >= 2 steps; a
    lone last step joins the range before it, so every step has a neighbour
    in its own range."""
    bounds = list(range(0, n_steps, _CHUNK)) + [n_steps]
    if bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def evolve(split, p: SystemParams, omega: PulseSchedule,
           dt: float) -> DynamicsReport:
    """Error-controlled uniform-step RK4 integration of one node over [0, t_total].

    The node is its Lambda block {g, e, c}, started in g (see the module
    docstring); ``split`` holds the photon's (L, R) channel amplitudes and
    must be unit-norm, else ValueError.  The first grid has
    ``step_count(p, omega, dt)`` equal steps landing exactly on t_total.
    H_eff is linear in psi, so each RK4 step is a matrix: the propagators of
    ``_CHUNK`` steps are built together with batched products from the
    generator -i (H_base + Omega(t) H_drive + g(t) H_cav) and then applied
    in turn, one matrix-vector product per step.  The flux quadratures use
    the same RK4 stage states.  Cavity emission is recorded as the amplitude
    density sqrt(kappa) c(t) at every grid point; each polarization channel
    is its split amplitude times that envelope, so the photon is the split
    times one envelope that every split of the node shares.  The returned
    arrays are read-only.

    Error control: over each pair of steps the two h-step result is compared
    with one RK4 step of size 2h built from the same grid generators; the
    local error of the pair is estimated as |psi_(2k+2) - M_2h psi_(2k)| / 15
    (an odd last step is paired with the one before it).  H_eff only removes
    norm, so the propagators are contractions and the summed estimate,
    ``DynamicsReport.error_bound``, bounds the error of every grid state.
    While it is above ``STEP_TOL`` the grid is refined to
    n / (0.9 (STEP_TOL / bound)^(1/4)) steps and the passage is run again.

    Raises on more steps than MAX_STEPS and on integrator norm growth.  The
    accepted grid's peak excited population is the report's ``excited_pop_max``;
    ``protocol.run_dynamic`` notes it when it exceeds ``EXCITED_POP_WARN``.
    """
    split = np.asarray(split, dtype=complex)
    if split.shape != (2,):
        raise ValueError("split must hold the photon's two (L, R) amplitudes")
    if not abs(np.linalg.norm(split) - 1.0) <= 1e-9:     # also refuses nan
        raise ValueError("split must be unit-norm")
    if not dt > 0:
        raise ValueError("dt must be positive")

    h_diag, h_drv, h_cv = _parts(p)
    dim = 3
    h_base = h_diag - 0.5j * p.kappa * np.diag([0.0, 0.0, 1.0])
    flux_w = np.zeros((dim, 2))                                    # emission, spontaneous
    flux_w[_C, 0], flux_w[_E, 1] = p.kappa, p.gamma

    # -i H_eff(t) = A_base + Omega(t) A_drive + g(t) A_cav as one product per
    # batch; the three parts have disjoint supports, so each entry is a single
    # product and matches the element-wise sum bit for bit
    parts = (-1j * np.stack([h_base, h_drv, h_cv])).reshape(3, -1)

    def generator(om, g_t):
        """-i H_eff at each of the given times, shape (len(om), dim, dim)."""
        coef = np.stack([np.ones_like(om), om, g_t], axis=1)
        return (coef @ parts).reshape(len(om), dim, dim)

    def integrate(n_steps: int):
        """One pass over an n_steps grid; returns its records and error bound."""
        h = omega.t_total / n_steps
        t_grid = np.linspace(0.0, omega.t_total, n_steps + 1)
        t_half = t_grid[:-1] + 0.5 * h
        om_grid, om_half = omega.value(t_grid), omega.value(t_half)
        g_grid, g_half = p.g_at(t_grid), p.g_at(t_half)
        photon = np.zeros(n_steps + 1, dtype=complex)
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)   # norm^2 exactly 1
        e_flux = np.zeros(2)                               # emission, spontaneous
        bound = exc_max = 0.0
        for lo, hi in _chunks(n_steps):
            a = generator(om_grid[lo:hi + 1], g_grid[lo:hi + 1])
            a0, a1 = a[:-1], a[1:]
            step, ys = _rk4(a0, generator(om_half[lo:hi], g_half[lo:hi]), a1, h)

            vecs = np.empty((hi - lo + 1, dim), dtype=complex)
            vecs[0] = psi
            rows = list(vecs)                              # views: dot writes in place
            for j, m in enumerate(step):
                np.dot(m, rows[j], out=rows[j + 1])
            psi = vecs[-1]

            starts = vecs[:-1]
            stages = (starts, *(np.einsum("mij,mj->mi", y, starts) for y in ys))
            f1, f2, f3, f4 = ((v.real ** 2 + v.imag ** 2) @ flux_w for v in stages)
            e_flux += (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4).sum(axis=0)

            # step doubling: one 2h step over each pair, generators from the grid
            pairs = np.arange(0, hi - lo - 1, 2)
            if (hi - lo) % 2:
                pairs = np.append(pairs, hi - lo - 2)
            double, _ = _rk4(a0[pairs], a1[pairs], a1[pairs + 1], 2.0 * h)
            miss = vecs[pairs + 2] - np.einsum("mij,mj->mi", double, vecs[pairs])
            bound += np.sqrt((miss.real ** 2 + miss.imag ** 2).sum(axis=1)).sum() / 15.0

            photon[lo + 1:hi + 1] = vecs[1:, _C]
            p2 = vecs[1:].real ** 2 + vecs[1:].imag ** 2
            exc_max = max(exc_max, p2[:, _E].max())
            norm_sq = p2.sum(axis=1)
            grown = np.flatnonzero(norm_sq > 1.0 + NORM_INCREASE_TOL)
            if grown.size:
                i = int(grown[0])
                raise RuntimeError(
                    f"integrator fault: norm^2 grew to {norm_sq[i]:.12g} at "
                    f"t = {t_grid[lo + 1 + i]:.6g}")
        closure = abs(e_flux[0] + e_flux[1] + norm_sq[-1] - 1.0)
        return t_grid, psi, photon, exc_max, e_flux, closure, float(bound)

    n_steps = step_count(p, omega, dt)
    while True:
        if n_steps > MAX_STEPS:
            raise ValueError(f"{n_steps:.6g} RK4 steps exceed the budget of {MAX_STEPS}")
        t_grid, psi, photon, exc_max, (e_emit, e_spont), closure, bound = integrate(int(n_steps))
        if bound <= STEP_TOL:
            break
        n_steps = math.ceil(n_steps / (_STEP_SAFETY * (STEP_TOL / bound) ** 0.25))

    envelope = math.sqrt(p.kappa) * photon + 0.0     # + 0.0: no signed zeros
    channels = {name: s * envelope for name, s in zip(("L", "R"), split)}
    for arr in (t_grid, envelope, psi, *channels.values()):
        arr.flags.writeable = False

    return DynamicsReport(
        final_state=psi,
        emission_prob=float(e_emit),
        spont_loss=float(e_spont),
        excited_pop_max=float(exc_max),
        closure_error=float(closure),
        error_bound=bound,
        t_grid=t_grid,
        pulse_shape=envelope,
        channel_pulses=channels,
        params=p,
        omega=omega,
    )


def pulse_shape_analytic(p: SystemParams, omega: PulseSchedule,
                         grid: np.ndarray) -> np.ndarray:
    """Adiabatic-limit emission envelope on the given grid.

    f(t) = sqrt(kappa) sin(theta(t)) exp(-(kappa/2) int_0^t sin^2 theta),
    with theta the node's dark-state mixing angle.  Satisfies
    int |f|^2 dt = 1 - exp(-kappa int_0^T sin^2 theta dt) up to quadrature
    error (the inner integral uses cumulative Simpson, O(h^4)).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 3:
        raise ValueError("grid must be a 1-D array with at least 3 points")
    if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must increase strictly from 0")
    from scipy.integrate import cumulative_simpson  # here: scipy costs ~0.7 s to import

    om = omega.value(grid)
    sin_th = om / np.sqrt(_dark_norm_sq(p, p.g_at(grid), om))
    s2 = sin_th ** 2
    cum = cumulative_simpson(s2, x=grid, initial=0.0)
    return np.sqrt(p.kappa) * sin_th * np.exp(-0.5 * p.kappa * cum)


def _resample(t_ref: np.ndarray, t: np.ndarray, f: np.ndarray) -> np.ndarray:
    if len(t) == len(t_ref) and np.array_equal(t, t_ref):
        return f
    re = np.interp(t_ref, t, f.real, left=0.0, right=0.0)
    im = np.interp(t_ref, t, f.imag, left=0.0, right=0.0)
    return re + 1j * im


def pulse_overlap_complex(t1: np.ndarray, f1: np.ndarray,
                          t2: np.ndarray, f2: np.ndarray) -> complex:
    """Normalized complex overlap <f1|f2> of two emission envelopes.

    Envelopes on different grids are linearly resampled onto the first grid
    (zero outside its support).  The second envelope's norm also counts its
    tail past the first grid's end, on its own grid, so the overlap does not
    depend on the argument order; that tail is exactly 0.0 when the second
    grid ends no later than the first.
    """
    t2, f2 = np.asarray(t2, float), np.asarray(f2)
    f2r = _resample(np.asarray(t1, float), t2, f2)
    f1 = np.asarray(f1)
    n1 = np.trapezoid(np.abs(f1) ** 2, t1)
    tail = t2 >= t1[-1]
    n2 = np.trapezoid(np.abs(f2r) ** 2, t1) + np.trapezoid(np.abs(f2[tail]) ** 2, t2[tail])
    if n1 <= 0 or n2 <= 0:
        return 0.0 + 0.0j
    return complex(np.trapezoid(np.conj(f1) * f2r, t1) / math.sqrt(n1 * n2))


def pulse_overlap(t1: np.ndarray, f1: np.ndarray,
                  t2: np.ndarray, f2: np.ndarray) -> float:
    """|<f1|f2>|^2 in [0, 1]: the two-photon interference visibility."""
    c = pulse_overlap_complex(t1, f1, t2, f2)
    return min(1.0, abs(c) ** 2)


def emission_identity_check(p: SystemParams, omega: PulseSchedule,
                            grid: np.ndarray) -> tuple[float, float]:
    """(int |f|^2 dt, 1 - exp(-kappa int sin^2 theta dt)) for the analytic pulse."""
    from scipy.integrate import simpson  # here: scipy costs ~0.7 s to import

    grid = np.asarray(grid, dtype=float)
    f = pulse_shape_analytic(p, omega, grid)
    om = omega.value(grid)
    s2 = om ** 2 / _dark_norm_sq(p, p.g_at(grid), om)
    lhs = float(simpson(np.abs(f) ** 2, x=grid))
    rhs = 1.0 - math.exp(-p.kappa * float(simpson(s2, x=grid)))
    return lhs, rhs
