"""Renormalizers, test functions, and weak-form residual ledgers.

The composition rule behind every renormalizer here: with

    G(z) = z Gamma'(z) - Gamma(z),      H(z) = z G'(z) - G(z),

a smooth solution of the conservative equation satisfies the renormalized
identity whose weak form is assembled term by term below.  Both derived
functions are evaluated from closed-form derivatives of Gamma, never by
numerical differentiation, so the pointwise identities are exact.

Residual ledgers integrate deterministic terms by left-endpoint quadrature
and stochastic terms by Ito sums against the driving path's own increments.
A ledger's residual is (pairing at time t) - (pairing at 0) - (sum of all
right-hand terms); for a true solution it vanishes as (dt, h) refine.
residual_renormalized is the one ledger function: with the linear
renormalizer Gamma(z) = z, g and h vanish and its ledger is the plain weak
form's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import (
    Grid,
    GridScalar,
    TimeGridVector,
    _blocks,
    _finite_float,
    _positive_float,
    divergence_and_twist,
    gradient,
    hessian_stack,
    jacobian_stack,
)
from .flow import BrownianPath, FlowEnsemble, _mean_stderr, pushforward_path

__all__ = [
    "WeakFormError",
    "Renormalizer",
    "WeakFormLedger",
    "StabilitySeries",
    "make_renormalizer",
    "bump_test_function",
    "residual_renormalized",
    "weighted_l1_masses",
    "weighted_l1_stability",
    "RENORMALIZED_TERMS",
]


class WeakFormError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Renormalizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Renormalizer:
    """Gamma with closed-form first and second derivatives.

    derivatives(z) returns (Gamma, Gamma', Gamma'') at z from one pass.
    derived gives g and h, the derived combinations; h uses
    G'(z) = z Gamma''(z), so h(z) = z^2 Gamma''(z) - z Gamma'(z) + Gamma(z).
    """

    derivatives: object

    def derived(self, z) -> tuple:
        """Gamma, g and h at z, from one call of derivatives."""
        z = np.asarray(z, dtype=np.float64)
        gamma, first, second = self.derivatives(z)
        z_first = z * first
        return gamma, z_first - gamma, z**2 * second - z_first + gamma


def _quintic_step(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C^2 smoothstep on [0, 1] with value, first and second derivative."""
    t = np.clip(t, 0.0, 1.0)
    s = t**3 * (10.0 - 15.0 * t + 6.0 * t**2)
    ds = 30.0 * t**2 * (1.0 - t) ** 2
    d2s = 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t)
    return s, ds, d2s


_PLATEAU_WIDTH = 3.0  # transition of the cutoff spans [1, 1 + width] in u = eps*z


def _plateau(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cutoff B(u): 1 on |u| <= 1, 0 beyond |u| >= 1 + width, C^2 between.

    The wide transition keeps sup|B'| < 1 and sup|B''| < 1, so the scaled
    cutoff B(eps z) obeys the |B'| <= eps, |B''| <= eps^2 budget.
    """
    a = np.abs(u)
    t = (a - 1.0) / _PLATEAU_WIDTH
    s, ds, d2s = _quintic_step(t)
    value = 1.0 - s
    first = -np.sign(u) * ds / _PLATEAU_WIDTH
    second = -d2s / _PLATEAU_WIDTH**2
    return value, first, second


def _abs_eps_family(eps: float) -> Renormalizer:
    def derivatives(z):
        z = np.asarray(z, dtype=np.float64)
        inner = np.abs(z) < eps
        A = np.where(inner, z**2 / (2 * eps) + eps / 2, np.abs(z))
        A1, A2 = np.where(inner, z / eps, np.sign(z)), np.where(inner, 1.0 / eps, 0.0)
        B, B1, B2 = _plateau(eps * z)
        return A * B, A1 * B + A * eps * B1, A2 * B + 2.0 * A1 * eps * B1 + A * eps**2 * B2

    return Renormalizer(derivatives)


def _tanh(z):
    t, c2 = np.tanh(z), np.cosh(np.asarray(z, dtype=np.float64)) ** 2
    return t, 1.0 / c2, -2.0 * t / c2


def _linear(z):
    z = np.asarray(z, dtype=np.float64)
    return z, np.ones_like(z), np.zeros_like(z)


def make_renormalizer(tag: str, epsilon: float | None = None) -> Renormalizer:
    """Build one of the named Gamma families.

    tanh: bounded with bounded z Gamma' and z^2 Gamma''.  abs_eps: parabolic
    regularization of |z| (value eps/2 at 0) times a plateau cutoff; tends to
    |z| pointwise with g, h tending to 0.  linear is the degenerate member
    that collapses the renormalized ledger onto the plain one.  abs_eps's
    epsilon must be a finite positive number.
    """
    if tag == "tanh":
        return Renormalizer(_tanh)
    if tag == "abs_eps":
        return _abs_eps_family(_positive_float(WeakFormError, "abs_eps's epsilon", epsilon))
    if tag == "linear":
        return Renormalizer(_linear)
    raise WeakFormError(f"unknown renormalizer tag {tag!r}")


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

def bump_test_function(grid: Grid, center, radius: float) -> GridScalar:
    """Test function exp(1 - 1/(1 - |x-c|^2/r^2)): peak 1, support inside the central half."""
    radius = _positive_float(WeakFormError, "radius", radius)
    center = np.atleast_1d(center).tolist()
    center = tuple(_finite_float(WeakFormError, "center", c) for c in center)
    if len(center) != grid.dim:
        raise WeakFormError(f"center {center} has wrong dimension for grid dim {grid.dim}")
    lo, hi = grid.L / 4.0, 3.0 * grid.L / 4.0
    for c in center:
        if not (lo < c - radius and c + radius < hi):
            raise WeakFormError(
                f"ball(center={center}, radius={radius}) leaves the central half "
                f"({lo}, {hi}) of the box"
            )
    mesh = grid.coordinates()
    u = np.zeros(grid.shape)
    for axis, c in enumerate(center):
        diff = mesh[axis] - c
        diff = diff - grid.L * np.round(diff / grid.L)
        u = u + (diff / radius) ** 2
    values = np.zeros(grid.shape)
    inside = u < 1.0
    values[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside]))
    return GridScalar(grid, values)


# ---------------------------------------------------------------------------
# Residual ledgers
# ---------------------------------------------------------------------------

RENORMALIZED_TERMS = (
    "gamma_drift",
    "gamma_diffusion",
    "gamma_ito",
    "g_div_sigma_ito",
    "g_div_b",
    "g_div_sigma_transport",
    "g_gradsigma",
    "h_divsigma_sq",
)
# at each step a term adds scale * (its integrand summed over the grid) * vol * weight,
# the weight being the noise increment dW for the Ito terms and dt for the others
_SCALES = dict(zip(RENORMALIZED_TERMS, (1.0, 0.5, 1.0, -1.0, -1.0, -1.0, 0.5, 0.5)))
_ITO_TERMS = ("gamma_ito", "g_div_sigma_ito")


@dataclass
class WeakFormLedger:
    """Signed time-integral of every right-hand term, plus the residual."""

    terms: dict
    lhs_delta: float
    residual: float

    def __post_init__(self):
        if tuple(self.terms.keys()) != RENORMALIZED_TERMS:
            raise WeakFormError(
                f"a ledger must carry terms {RENORMALIZED_TERMS}, got {tuple(self.terms)}"
            )
        values = [self.lhs_delta, self.residual, *self.terms.values()]
        if not all(math.isfinite(v) for v in values):
            raise WeakFormError("non-finite ledger entry")

    @classmethod
    def from_terms(cls, terms: dict, lhs_delta: float) -> "WeakFormLedger":
        """The ledger whose residual is lhs_delta minus the sum of the terms."""
        return cls(terms, lhs_delta, lhs_delta - sum(terms.values()))

    def flipped(self, term: str) -> "WeakFormLedger":
        """This ledger with one right-hand term negated and the residual re-formed.

        It certifies that a check watches the sign of each term: a flipped
        live term moves the residual by twice its value.
        """
        if term not in self.terms:
            raise WeakFormError(f"cannot flip unknown term {term!r}")
        terms = {name: -v if name == term else v for name, v in self.terms.items()}
        return WeakFormLedger.from_terms(terms, self.lhs_delta)


def _check_coefficients(grid: Grid, b: TimeGridVector, sigmas, against: str) -> None:
    """Refuse a drift or noise field that does not live on ``grid``, by name."""
    for name, c in (("drift", b), *((f"noise field {k}", s) for k, s in enumerate(sigmas))):
        if c.grid != grid:
            raise WeakFormError(f"{name} lives on a different grid than the {against}")


def _check_sampling(fpath, sigmas, grid: Grid, path: BrownianPath):
    if len(fpath) != path.steps + 1:
        raise WeakFormError(
            f"solution path has {len(fpath)} slices, Brownian path wants {path.steps + 1}"
        )
    for f in fpath:
        if f.grid != grid:
            raise WeakFormError("solution slices live on a different grid")
    if len(sigmas) != path.k_count:
        raise WeakFormError("noise field count does not match the path")


def _row_terms(grid: Grid, rows: np.ndarray, grad_phi: np.ndarray, hess_phi: np.ndarray):
    """Per row v of a block: v . grad phi, v v : hess phi, div v and the twist."""
    div, twist = divergence_and_twist(grid, jacobian_stack(grid, rows))
    adv = np.einsum("ri...,i...->r...", rows, grad_phi)
    pair = np.einsum("ri...,rj...,ij...->r...", rows, rows, hess_phi)
    return zip(adv, pair, div, twist)


def residual_renormalized(
    fpath,
    b: TimeGridVector,
    sigmas,
    phi: GridScalar,
    renorm: Renormalizer,
    path: BrownianPath,
) -> WeakFormLedger:
    """Ledger of the renormalized weak form (all eight right-hand terms).

    With make_renormalizer("linear") it is the plain weak form's: drift,
    diffusion and Ito terms are gamma_drift, gamma_diffusion and gamma_ito,
    and the other five read 0.  Each distinct coefficient row meets the test
    function once; Gamma, g, h and the grid sums are taken a block of steps
    at a time (field's block rule), and each term adds its parts one at a
    time, step by step and, within a step, noise field by noise field.
    """
    grid = phi.grid
    _check_sampling(fpath, sigmas, grid, path)
    _check_coefficients(grid, b, sigmas, "test function")
    grad_phi, hess_phi = gradient(phi).values, hessian_stack(grid, phi.values)
    phi_vals = phi.values
    vol, dt = grid.cell_volume, path.dt
    times = np.arange(path.steps) * dt
    in_force = [
        c.per_sample(lambda rows: _row_terms(c.grid, rows, grad_phi, hess_phi), times)
        for c in (b, *sigmas)
    ]
    cells = tuple(range(1, grid.dim + 1))

    sums = dict.fromkeys(RENORMALIZED_TERMS, 0.0)
    for steps in _blocks(grid, path.steps):
        f = np.array([fpath[l].values for l in steps])
        gamma_f, g_f, h_f = renorm.derived(f)
        (adv_b, _, div_b, _), *noise = (  # each row term, stacked a step per leading entry
            [np.array(term) for term in zip(*per_step[steps.start : steps.stop])]
            for per_step in in_force
        )
        grid_sums = {
            "gamma_drift": [(gamma_f * adv_b).sum(axis=cells)],
            "g_div_b": [(g_f * div_b * phi_vals).sum(axis=cells)],
        }
        for adv_s, pair, div_s, twist in noise:
            g_div_s = g_f * div_s
            for name, integrand in (
                ("gamma_diffusion", gamma_f * pair),
                ("gamma_ito", gamma_f * adv_s),
                ("g_div_sigma_ito", g_div_s * phi_vals),
                ("g_div_sigma_transport", g_div_s * adv_s),
                ("g_gradsigma", g_f * twist * phi_vals),
                ("h_divsigma_sq", h_f * div_s**2 * phi_vals),
            ):
                grid_sums.setdefault(name, []).append(integrand.sum(axis=cells))
        dW = path.increments[steps.start : steps.stop]
        for name in RENORMALIZED_TERMS:
            weight = dW if name in _ITO_TERMS else dt
            by_step = _SCALES[name] * np.array(grid_sums.get(name, [])).T * vol * weight
            for value in by_step.ravel().tolist():  # a row per step, a column per noise field
                sums[name] += value

    gamma_0, gamma_T = (renorm.derivatives(f.values)[0] for f in (fpath[0], fpath[-1]))
    return WeakFormLedger.from_terms(sums, float(np.sum((gamma_T - gamma_0) * phi_vals)) * vol)


# ---------------------------------------------------------------------------
# Weighted-L1 stability functional
# ---------------------------------------------------------------------------

@dataclass
class StabilitySeries:
    """Monte Carlo series of the weighted L1 mass against its growth envelope."""

    mean: np.ndarray
    stderr: np.ndarray
    envelope: np.ndarray


def _center_distance_sq(grid: Grid) -> np.ndarray:
    """|x - c|^2 at every node, c the box center."""
    sq = np.zeros(grid.shape)
    for axis in grid.coordinates():
        sq = sq + (axis - grid.L / 2.0) ** 2
    return sq


def _stability_weight(grid: Grid, r_exponent: float) -> np.ndarray:
    r_exponent = _finite_float(WeakFormError, "weight exponent", r_exponent)
    if r_exponent != 0.0 and r_exponent <= grid.dim:
        raise WeakFormError(
            f"weight exponent must be 0 (flat) or > dim = {grid.dim}, got {r_exponent}"
        )
    return (1.0 + _center_distance_sq(grid)) ** (-r_exponent / 2.0)


def weighted_l1_masses(f0: GridScalar, ensemble: FlowEnsemble, r_exponent: float) -> list[float]:
    """One member's weighted L1 mass of |f| at every step of its pushforward of f0.

    The per-member reduce behind weighted_l1_stability, with its weight.
    """
    weight = _stability_weight(f0.grid, r_exponent)
    vol = f0.grid.cell_volume
    return [
        float(np.sum(weight * np.abs(f_l.values))) * vol for f_l in pushforward_path(f0, ensemble)
    ]


def weighted_l1_stability(
    masses,
    f0: GridScalar,
    b: TimeGridVector,
    sigmas,
    r_exponent: float,
    dt: float,
) -> StabilitySeries:
    """Per-step Monte Carlo estimate of the weighted L1 mass of |f|.

    masses holds each member's weighted_l1_masses of f0 at r_exponent, at
    the steps 0..steps of step dt.  The weight is
    (1 + |x - box center|^2)^(-r/2); r_exponent = 0 is the flat-weight
    override (the natural choice on a torus, where integrability at infinity
    is not in play).  Otherwise r_exponent must exceed the dimension.  The
    envelope is the left-endpoint Gronwall product of
    sup|b|/(1 + |x|) + sum_k sup(|sigma^k|/(1 + |x|))^2 applied to the
    initial weighted mass.
    """
    grid = f0.grid
    _check_coefficients(grid, b, sigmas, "datum")
    weight = _stability_weight(grid, r_exponent)
    series = np.array(masses, dtype=np.float64)  # numpy refuses rows of unequal length
    if series.ndim != 2:
        raise WeakFormError(f"masses must be one row per member, got shape {series.shape}")
    steps = series.shape[1] - 1
    times = np.arange(steps + 1) * dt
    mean, stderr = np.array([_mean_stderr(series[:, l]) for l in range(steps + 1)]).T

    one_plus = 1.0 + np.sqrt(_center_distance_sq(grid))

    def reach(rows: np.ndarray) -> list:  # sup |v| / (1 + |x - center|) of each row v
        return [float(np.max(np.sqrt(np.einsum("i...,i...->...", v, v)) / one_plus)) for v in rows]

    b_reach = b.per_sample(reach, times[:-1])
    s_reach = [sigma.per_sample(reach, times[:-1]) for sigma in sigmas]
    rate = np.empty(steps)
    for l in range(steps):
        total = b_reach[l]
        for sigma_reach in s_reach:
            total += sigma_reach[l] ** 2
        rate[l] = total
    base = float(np.sum(weight * np.abs(f0.values))) * grid.cell_volume
    envelope = np.empty(steps + 1)
    envelope[0] = base
    acc = 0.0
    for l in range(steps):
        acc += rate[l] * dt
        envelope[l + 1] = base * math.exp(acc)
    return StabilitySeries(mean=mean, stderr=stderr, envelope=envelope)
