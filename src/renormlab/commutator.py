"""Mollification commutators of first- and second-order transport operators.

For a vector field sigma and density f, with f_eps = eta_eps * f:

    T_eps(f) = sigma . grad f_eps  -  (Div(sigma f))_eps
    S_eps(f) = L f_eps  -  sigma . grad (Div(sigma f))_eps  +  (L* f)_eps

where L g = (1/2) sigma_i sigma_j d_i d_j g and L* g = (1/2) d_i d_j
(sigma_i sigma_j g).  Both vanish for constant sigma and converge, for smooth
data, to

    T_eps(f) -> -(Div sigma) f
    S_eps(f) -> (1/2) (d_i sigma_j d_j sigma_i + (Div sigma)^2) f.

``mollify(sigma, f, epsilon)`` checks the grids and returns the one
``Mollified`` record that the commutators and chain-rule defects below read:
rebuilding R2 from T_eps, S_eps and R1 builds one mollifier.

The sign of the T-limit and the index pairing in the S-limit are fixed by the
smooth-case expansion oracle in the test suite (moments of x tensor grad eta),
not taken on faith; the renormalized-residual checks downstream only close for
this sign set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import parallel
from .field import (
    FieldError,
    GridScalar,
    GridVector,
    _check_exponents,
    _finite_float,
    _partials,
    _spectral,
    central_half,
    convolve,
    divergence,
    divergence_and_twist,
    gradient,
    hessian_stack,
    jacobian,
    lp_norm,
    mollifier,
)

__all__ = [
    "LIMIT_SIGN_T",
    "CommutatorStudy",
    "Mollified",
    "mollify",
    "op_T",
    "op_S",
    "commutator_limits",
    "convergence_study",
]

# Sign of the first-order commutator limit, fixed once by the smooth-case
# expansion oracle (integral of x tensor grad eta = -identity).
LIMIT_SIGN_T = -1.0

TAG_T = "T"
TAG_S = "S"

# Threshold below which a study is the constant-coefficient degenerate case.
_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class Mollified:
    """sigma and f on one grid, the kernel eta_eps, f_eps and (Div(sigma f))_eps."""

    sigma: GridVector
    f: GridScalar
    kernel: GridScalar
    f_eps: GridScalar
    div_sf_eps: GridScalar


def mollify(sigma: GridVector, f: GridScalar, epsilon: float) -> Mollified:
    """Mollify f and Div(sigma f) at epsilon, once for every operator that reads them."""
    g = f.grid
    if sigma.grid != g:
        raise FieldError(f"grid mismatch: {sigma.grid} vs {g}")
    kernel = mollifier(g, epsilon)
    div_sf = divergence(GridVector(g, sigma.values * f.values[None, ...]))
    return Mollified(sigma, f, kernel, convolve(kernel, f), convolve(kernel, div_sf))


def _advect(sigma: GridVector, g: GridScalar) -> np.ndarray:
    """sigma . grad g, gradient taken spectrally."""
    grad = gradient(g)
    return np.einsum("i...,i...->...", sigma.values, grad.values)


def op_T(m: Mollified) -> GridScalar:
    """First-order commutator sigma.grad(f_eps) - (Div(sigma f))_eps."""
    return GridScalar(m.f.grid, _advect(m.sigma, m.f_eps) - m.div_sf_eps.values)


def op_S(m: Mollified) -> GridScalar:
    """Second-order commutator L(f_eps) - sigma.grad(Div(sigma f))_eps + (L* f)_eps."""
    g, sigma = m.f.grid, m.sigma

    # L f_eps = (1/2) sigma_i sigma_j d_i d_j f_eps
    hess = hessian_stack(g, m.f_eps.values)
    pairs = itertools.product(range(g.dim), repeat=2)  # (i, j) in the order they are added
    forward = 0.5 * sum(sigma.values[i] * sigma.values[j] * hess[i, j] for i, j in pairs)

    middle = _advect(sigma, m.div_sf_eps)

    # L* f = (1/2) d_i d_j (sigma_i sigma_j f), mollified afterwards
    adjoint = _adjoint_second_order(sigma, m.f.values)

    return GridScalar(g, forward - middle + convolve(m.kernel, GridScalar(g, adjoint)).values)


def commutator_limits(sigma: GridVector, f: GridScalar) -> tuple[GridScalar, GridScalar]:
    """Smooth-case limits of (T_eps, S_eps) as eps -> 0."""
    g = f.grid
    if sigma.grid != g:
        raise FieldError(f"grid mismatch: {sigma.grid} vs {g}")
    div_sigma, cross = divergence_and_twist(g, jacobian(sigma))
    limit_t = LIMIT_SIGN_T * div_sigma * f.values
    limit_s = 0.5 * (cross + div_sigma**2) * f.values
    return GridScalar(g, limit_t), GridScalar(g, limit_s)


@dataclass
class CommutatorStudy:
    """Convergence record for one operator over a decreasing epsilon ladder."""

    epsilons: list[float]
    errors: list[float]
    fitted_rate: float
    bound_ratios: list[float]

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        if not np.all(np.diff(eps) < 0):
            raise FieldError("epsilons must be strictly decreasing")
        errs = np.asarray(self.errors, dtype=float)
        if not (np.all(np.isfinite(errs)) and np.all(errs >= 0)):
            raise FieldError("errors must be finite and nonnegative")


def convergence_study(
    operator_tag: str,
    sigma: GridVector,
    f: GridScalar,
    epsilon_list,
    r: float,
) -> CommutatorStudy:
    """Measure ||op_eps - limit||_{L^r(K)} over an epsilon ladder, K the central half.

    Also forms the uniform-bound ratio ||op_eps||_{L^r} / (||grad sigma||_{L^q}^m
    ||f||_{L^p}) with m = 1 for T and 2 for S and q = p = (m + 1) r, the
    Hoelder split 1/r = m/q + 1/p.  A degenerate study (grad sigma or all errors
    negligible) fits rate 0.  Per-epsilon work runs through the ordered thread
    map, so results are independent of the worker count.
    """
    if operator_tag not in (TAG_T, TAG_S):
        raise FieldError(f"unknown operator tag {operator_tag!r}")
    epsilons = [_finite_float(FieldError, "epsilons", e) for e in epsilon_list]
    if len(epsilons) < 3:
        raise FieldError(f"need at least 3 epsilons, got {len(epsilons)}")
    _check_exponents(FieldError, "r", r)
    limit_t, limit_s = commutator_limits(sigma, f)

    grid = f.grid
    region = central_half(grid)
    order = 2.0 if operator_tag == TAG_S else 1.0
    q = p = (order + 1.0) * r  # the Hoelder split 1/r = order/q + 1/p
    apply_op = op_S if operator_tag == TAG_S else op_T
    limit = limit_s if operator_tag == TAG_S else limit_t

    jac = jacobian(sigma)
    grad_sigma_frob = GridScalar(grid, np.sqrt(np.einsum("ij...,ij...->...", jac, jac)))
    denom = lp_norm(grad_sigma_frob, q, region) ** order * lp_norm(f, p, region)

    def one_epsilon(eps: float) -> tuple[float, float]:
        value = apply_op(mollify(sigma, f, eps))
        err = lp_norm(GridScalar(grid, value.values - limit.values), r, region)
        norm = lp_norm(value, r, region)
        ratio = norm / denom if denom > _DEGENERATE_TOL else 0.0
        return err, ratio

    results = parallel.ordered_map(one_epsilon, epsilons)
    errors = [res[0] for res in results]
    ratios = [res[1] for res in results]

    scale = max(lp_norm(f, r, region), 1.0)
    degenerate = denom <= _DEGENERATE_TOL or max(errors) <= _DEGENERATE_TOL * scale
    if degenerate:
        rate = 0.0
    else:
        slope, _ = np.polyfit(np.log(epsilons), np.log(np.maximum(errors, 1e-300)), 1)
        rate = float(slope)

    return CommutatorStudy(
        epsilons=epsilons,
        errors=errors,
        fitted_rate=rate,
        bound_ratios=ratios,
    )


# ---------------------------------------------------------------------------
# Renormalization remainders
#
# With u = f_eps, the chain-rule defects of a renormalizer Gamma are
#
#   R1 = Div(sigma Gamma(u)) - Gamma'(u) (Div(sigma f))_eps
#   R2 = Gamma'(u) (L* f)_eps - L* Gamma(u) + (1/2) Gamma''(u) (Div(sigma f))_eps^2
#
# and exact pointwise identities rebuild them from the commutators:
#
#   R1 = Gamma'(u) T_eps(f) + (Div sigma) Gamma(u)
#   R2 = Gamma'(u) S_eps(f) + (1/2) Gamma''(u) T_eps(f)^2
#        - sigma . grad R1 - (1/2) Gamma(u) (d_i sigma_j d_j sigma_i + (Div sigma)^2)
#
# (verified symbolically in the test suite).  Each carries a `sign` switch on
# its contested term so the suite can certify that exactly one choice closes.
# ---------------------------------------------------------------------------


def _adjoint_second_order(sigma: GridVector, values: np.ndarray) -> np.ndarray:
    """(1/2) d_i d_j (sigma_i sigma_j values), derivatives spectral."""
    g = sigma.grid
    return 0.5 * sum(
        _spectral(g, sigma.values[i] * sigma.values[j] * values, _partials(g, [(i, j)]))[0]
        for i, j in itertools.product(range(g.dim), repeat=2)
    )


def r1_remainder(m: Mollified, renorm) -> GridScalar:
    """First-order chain-rule defect, from its definition."""
    g, (gamma, first, _) = m.f.grid, renorm.derivatives(m.f_eps.values)
    div_s_gamma = divergence(GridVector(g, m.sigma.values * gamma[None, ...]))
    return GridScalar(g, div_s_gamma.values - first * m.div_sf_eps.values)


def r1_reconstruction(m: Mollified, renorm, sign: float = 1.0) -> GridScalar:
    """Rebuild R1 from T_eps; sign multiplies the (Div sigma) Gamma term."""
    gamma, first, _ = renorm.derivatives(m.f_eps.values)
    div_sigma = divergence(m.sigma).values
    out = first * op_T(m).values + sign * div_sigma * gamma
    return GridScalar(m.f.grid, out)


def r2_remainder(m: Mollified, renorm) -> GridScalar:
    """Second-order chain-rule defect, from its definition."""
    g, (gamma, first, second) = m.f.grid, renorm.derivatives(m.f_eps.values)
    adjoint_f = _adjoint_second_order(m.sigma, m.f.values)
    adjoint_f_eps = convolve(m.kernel, GridScalar(g, adjoint_f)).values
    adjoint_gamma = _adjoint_second_order(m.sigma, gamma)
    out = first * adjoint_f_eps - adjoint_gamma + 0.5 * second * m.div_sf_eps.values**2
    return GridScalar(g, out)


def r2_reconstruction(m: Mollified, renorm, sign: float = 1.0) -> GridScalar:
    """Rebuild R2 from T_eps, S_eps, R1; sign multiplies the Gamma(u) Q term."""
    g, (gamma, first, second) = m.f.grid, renorm.derivatives(m.f_eps.values)
    div_sigma, twist = divergence_and_twist(g, jacobian(m.sigma))
    out = (
        first * op_S(m).values
        + 0.5 * second * op_T(m).values ** 2
        - _advect(m.sigma, r1_remainder(m, renorm))
        - sign * 0.5 * gamma * (twist + div_sigma**2)
    )
    return GridScalar(g, out)
