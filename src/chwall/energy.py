"""Free energy, chemical potential and the ledger row of a state.

The total free energy is

    E(u) = int_bulk ( |grad u|^2 / 2 + F(u) ) dx
         + int_wall ( alpha |grad_par u|^2 / 2 + beta u^2 / 2 ) dS

with the assembled quadratic forms of ``grid.forms``: its quadratic part is
u.(K_lin u)/2 with K_lin = ``grid.forms.k_lin(alpha, beta)``, and its
Hessian is K_lin + diag(bulk_mass f'(u)).  The chemical potential returned
here is the exact gradient of this exact discrete E in the (1/b-weighted)
product inner product.  Interior rows of the gradient read -Lap(u) + f(u);
wall rows read b*(-alpha*Lap_par(u) + normal_flux(u) + beta*u) in their
discrete form.

The energy itself depends on the surface constants only, so
``energy_and_gradient``, ``energy_value`` and ``energy_hessian`` take
(grid, pot, u, alpha, beta) with both constants required; u, like every
field, is a flat array of shape (n_nodes,).  Everything that also needs
the wall's b, c (the chemical potential, the ledger row) takes the
``operators.WentzellOperator`` that carries all four.
"""

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .grid import dot


class PotentialKind(Enum):
    DOUBLE_WELL = "double_well"
    POLYNOMIAL_CUSTOM = "polynomial_custom"


# the far-field band TAIL_LO <= |s| <= TAIL_HI of the dissipativity check
TAIL_LO = 2.0
TAIL_HI = 10.0


@dataclass(frozen=True)
class Potential:
    """Analytic nonlinearity bundle (f, f', F) with validation data.

    dissipativity_margin is the sampled minimum of f' over the far-field
    band TAIL_LO <= |s| <= TAIL_HI; it must be positive (the mixture has to
    push back at large concentration for the energy to be coercive).
    """

    f: callable
    f_prime: callable
    F: callable
    kind: PotentialKind
    dissipativity_margin: float


def _validate(f, f_prime, F, kind, growth_p):
    """The dissipativity margin; growth_p feeds the advisory growth check.

    Each test is written so that a nan sample fails it: a potential whose
    sampled values overflow is refused, not passed."""
    s = np.linspace(-TAIL_HI, TAIL_HI, 4001)
    # antiderivative / derivative consistency via central differences
    eps = 1e-5
    fd_F = (F(s + eps) - F(s - eps)) / (2 * eps)
    scale = 1.0 + np.abs(f(s))
    if not np.max(np.abs(fd_F - f(s)) / scale) <= 1e-6:
        raise ValueError(f"{kind.value}: F' does not match f (sampled check)")
    fd_f = (f(s + eps) - f(s - eps)) / (2 * eps)
    scale = 1.0 + np.abs(f_prime(s))
    if not np.max(np.abs(fd_f - f_prime(s)) / scale) <= 1e-6:
        raise ValueError(f"{kind.value}: f' does not match derivative of f")
    tail = np.concatenate([
        np.linspace(TAIL_LO, TAIL_HI, 500),
        np.linspace(-TAIL_HI, -TAIL_LO, 500),
    ])
    margin = float(np.min(f_prime(tail)))
    if not margin > 0:
        raise ValueError(
            f"{kind.value}: dissipativity violated, min f' = {margin:.3g} "
            f"on {TAIL_LO} <= |s| <= {TAIL_HI}"
        )
    if growth_p >= 5:
        warnings.warn(
            f"{kind.value}: growth exponent p={growth_p} is supercritical for "
            "3-D theory (advisory only at desk scale)",
            RuntimeWarning,
        )
    return margin


def double_well():
    """The standard double-well: f(s) = s^3 - s, F(s) = (s^2-1)^2 / 4.

    Note F(0) = 1/4 with this closed form; the constant-zero field on the
    unit strip therefore has energy exactly 0.25.

    The cubic is written with multiplications.  numpy evaluates ``s ** 2``
    as a square but sends any other exponent to libm ``pow``, whose cost
    depends on the sign of s: about 4 ns per element for s > 0 and over
    100 ns for s < 0, against 1 ns for ``s * s * s``.  A phase-separating
    field has both signs, so f, f' and F use no ``**`` with an exponent
    other than 2.  The product is also exactly odd: f(-s) == -f(s).
    """
    f = lambda s: s * s * s - s
    fp = lambda s: 3.0 * s ** 2 - 1.0
    F = lambda s: 0.25 * (s ** 2 - 1.0) ** 2
    margin = _validate(f, fp, F, PotentialKind.DOUBLE_WELL, 3.0)
    return Potential(f, fp, F, PotentialKind.DOUBLE_WELL, margin)


def polynomial_potential(coeffs):
    """Potential from polynomial f given highest-order-first coefficients.

    F is the antiderivative with F(0) = 0.  The dissipativity check
    rejects polynomials whose f' is not eventually positive.
    """
    cf = np.asarray(coeffs, dtype=float)
    if cf.ndim != 1 or cf.size < 2:
        raise ValueError("need at least a linear polynomial for f")
    dcf = np.polyder(cf)
    Fcf = np.polyint(cf)
    f = lambda s: np.polyval(cf, s)
    fp = lambda s: np.polyval(dcf, s)
    F = lambda s: np.polyval(Fcf, s)
    margin = _validate(f, fp, F, PotentialKind.POLYNOMIAL_CUSTOM, float(cf.size - 1))
    return Potential(f, fp, F, PotentialKind.POLYNOMIAL_CUSTOM, margin)


def make_potential(kind, coeffs=None):
    if isinstance(kind, str):
        kind = PotentialKind(kind.lower())
    if kind is PotentialKind.DOUBLE_WELL:
        return double_well()
    if coeffs is None:
        raise ValueError("polynomial_custom requires coefficients")
    return polynomial_potential(coeffs)


@dataclass(frozen=True)
class EnergyReport:
    """One row of the run diagnostics ledger."""

    e_bulk: float
    e_surf: float
    e_total: float
    dissipation: float
    mass_bulk: float
    mass_total: float
    flux: float
    bulk_res: float
    bdry_res: float

    CSV_COLUMNS = (
        "t,e_bulk,e_surf,e_total,dissipation,mass_bulk,mass_total,flux,"
        "bulk_res,bdry_res"
    )


def energy_and_gradient(grid, pot, u, alpha, beta):
    """(E, g): the energy of a state and its Euclidean gradient.

    Both come from one product Ku = K_lin u: E = u.Ku/2 + sum w F(u) and
    g = Ku + M_bulk f(u).  Every other energetic quantity of the state is
    derived from this pair: mu = g/W, the residual norms, the flux and the
    dissipation (``state_report``).
    """
    forms = grid.forms
    Ku = forms.k_lin(alpha, beta) @ u
    e = 0.5 * dot(u, Ku) + dot(grid.bulk_weights, pot.F(u))
    return e, Ku + forms.bulk_mass * pot.f(u)


def energy_value(grid, pot, u, alpha, beta):
    """Just E(u)."""
    return energy_and_gradient(grid, pot, u, alpha, beta)[0]


def residual_norms(grid, g):
    """(bulk, wall) L2 norms of the stationary residual, from the gradient g.

    The bulk rows of mu = g/W and the wall rows of mu/b do not depend on b:
    bulk^2 = sum g^2/w_bulk over the bulk nodes and wall^2 = sum g^2/w_wall
    over the wall nodes.  At b = 1 they are the two parts of |mu|_H, which
    is therefore hypot(bulk, wall).
    """
    r = g / grid.h_weights(1.0)
    tr = r[grid.bdry_idx]
    bulk = math.sqrt(dot(grid.bulk_weights, r * r))
    return bulk, math.sqrt(dot(grid.bdry_weights, tr * tr))


def state_report(op, u, evaluation):
    """(row, K_A mu): the ledger row of a state from its evaluation (E, g).

    op is the ``operators.WentzellOperator`` of the run.  Adds only two
    sparse products to the one behind (E, g): the surface gradient k_par u
    for the surface energy (the bulk energy is E minus it) and K_A mu for
    the dissipation a(mu, mu) = mu.K_A mu.  K_A mu is returned too, since
    a semi-implicit step from this state needs the same product.
    """
    grid = op.grid
    e, g = evaluation
    forms = grid.forms
    e_surf = 0.5 * op.alpha * dot(u, forms.k_par @ u)
    e_surf += 0.5 * op.beta * dot(u, forms.bdry_mass * u)
    mu = g / op.mass_weights
    kmu = op.K_A @ mu
    mass_bulk = dot(grid.bulk_weights, u)
    bulk_res, bdry_res = residual_norms(grid, g)
    return EnergyReport(
        e_bulk=e - e_surf,
        e_surf=e_surf,
        e_total=e,
        dissipation=dot(mu, kmu),
        mass_bulk=mass_bulk,
        mass_total=mass_bulk + dot(grid.bdry_weights, u[grid.bdry_idx]),
        flux=-dot(grid.bdry_weights, mu[grid.bdry_idx]),
        bulk_res=bulk_res,
        bdry_res=bdry_res,
    ), kmu


def energy_hessian(grid, pot, u, alpha, beta):
    """The energy Hessian K_lin + diag(bulk_mass f'(u)) as a sparse matrix.

    Bulk rows read -Lap + f'(u) and wall rows the discrete trace operator,
    all in the Euclidean pairing (divide by the product-space weights to
    get the linearized chemical potential).
    """
    forms = grid.forms
    curvature = forms.bulk_mass * pot.f_prime(u)
    return (forms.k_lin(alpha, beta) + sp.diags(curvature)).tocsr()


def chemical_potential(op, pot, u):
    """The chemical potential mu, an array: the exact gradient of the discrete energy.

    Interior rows evaluate to -Lap(u) + f(u) with the scheme's Laplacian;
    wall rows evaluate to b*(-alpha*Lap_par u + normal_flux u + beta*u),
    i.e. the trace relation of the permeable-wall model, with the constants
    of the operator op.  For every direction W, <mu, W>_H (b-weighted)
    equals the directional derivative of E.  Its dissipation rate is
    ``op.a_form(mu, mu)``.
    """
    g = energy_and_gradient(op.grid, pot, u, op.alpha, op.beta)[1]
    return g / op.mass_weights
