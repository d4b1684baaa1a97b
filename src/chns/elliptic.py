"""Elliptic solves shared across the package.

Every linear operator the time step inverts has constant coefficients on
the uniform rectangle: the five-point Neumann Laplacian ``-lap`` behind
the inverse ``N`` (which defines the dual norm of the nonlocal
interaction energy) and the pressure projection, the solute Helmholtz
operator ``I - c lap`` with the same zero-flux walls, and the component
Helmholtz operators on the velocity faces with no-slip walls.  A fast
sine or cosine transform diagonalizes each of them exactly (Schumann &
Sweet, J. Comput. Phys. 75, 1988), so the solves here are direct:

* cell-centered, zero-flux wall (mirrored ghost): DCT-II;
* cell-centered, zero-value wall (antisymmetric ghost): DST-II;
* interior faces between two pinned wall faces: DST-I.

All three share the 1-D eigenvalues ``(2 sin(pi k / (2 n)) / h)^2``; only
the wavenumber range differs.  The transforms are orthonormal, so the
inverse transform is the transpose and the solves are exact to rounding.
The 2-D eigenvalue table of each wall treatment is cached per grid and
read-only.  The cell-centred Neumann solves transform both axes in one
2-D call; the face solves mix DST-I and DST-II, so they transform one
axis at a time.  The same transforms invert any function of the Neumann
Laplacian (``neumann_symbol_solve``, given the function's values on
``neumann_eigenvalues``); the phase-field Newton iteration builds that
symbol once per Krylov solve to precondition its variable-coefficient
Jacobian.

The Neumann operator annihilates constants, so the inverse works on the
zero-mean subspace: right-hand sides must be compatible and the solution
has zero mean.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .grid import GridSpec, ScalarField

__all__ = [
    "SolverConfig",
    "SolverError",
    "face_helmholtz",
    "fluctuation_potential",
    "inverse_neumann_laplacian",
    "neumann_eigenvalues",
    "neumann_helmholtz",
    "neumann_solve",
    "neumann_symbol_solve",
]

# perfbench/tracing.py (WRAPS) patches these names, which nothing calls;
# ROADMAP item 2 drops them with the tracer's entries
cg_raw = solve_spd = None


class SolverError(RuntimeError):
    """Linear solve failed or was handed an incompatible right-hand side."""


@dataclass(frozen=True)
class SolverConfig:
    """Residual target of :func:`~chns.stationary.solve_stationary`.

    The transform solves are exact and take no tolerance.  The stationary
    solve stops once its residual is at most ``rel_tol * theta0``;
    ``rel_tol`` must lie in ``(0, 1e-4]``.
    """

    rel_tol: float = 1.0e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1.0e-4):
            raise ValueError(f"rel_tol must lie in (0, 1e-4], got {self.rel_tol}")


# fast-transform solves

# wall treatment along one axis -> (forward, inverse, transform type,
# first wavenumber); the wavenumbers run over as many values as the axis
# has unknowns
_BASES = {
    "mirror": (sfft.dctn, sfft.idctn, 2, 0),
    "odd": (sfft.dstn, sfft.idstn, 2, 1),
    "pinned": (sfft.dstn, sfft.idstn, 1, 1),
}

_NEUMANN = ("mirror", "mirror")


@functools.lru_cache(maxsize=16)
def _eigenvalues(spec: GridSpec, bases: tuple[str, str]) -> np.ndarray:
    """Eigenvalues of ``-lap`` with the wall treatment ``bases`` along x
    and y, one per transform mode, cached per grid; the table is
    read-only."""
    lam = []
    for basis, n, h in zip(bases, (spec.nx, spec.ny), (spec.hx, spec.hy)):
        _, _, kind, k0 = _BASES[basis]
        k = np.arange(k0, k0 + (n - 1 if kind == 1 else n))
        lam.append((2.0 * np.sin(0.5 * np.pi * k / n) / h) ** 2)
    table = lam[0][:, None] + lam[1][None, :]
    table.flags.writeable = False
    return table


def neumann_eigenvalues(spec: GridSpec) -> np.ndarray:
    """Eigenvalues of the Neumann operator ``-lap`` on each cosine mode of
    the cells, as a read-only ``(nx, ny)`` table cached per grid."""
    return _eigenvalues(spec, _NEUMANN)


def _transform(coef: np.ndarray, bases: tuple[str, str], inverse: bool) -> np.ndarray:
    """Forward or inverse orthonormal transform of ``coef`` along both
    axes: one 2-D call when both axes share a basis, one call per axis
    otherwise.  ``coef`` is overwritten only by an inverse transform."""
    groups = [((0, 1), bases[0])] if bases[0] == bases[1] else list(enumerate(bases))
    for axes, basis in groups:
        forward, backward, kind, _ = _BASES[basis]
        fn = backward if inverse else forward
        coef = fn(coef, type=kind, axes=axes, norm="ortho", overwrite_x=inverse)
    return coef


def _solve_diagonal(rhs: np.ndarray, bases: tuple[str, str], symbol: np.ndarray) -> np.ndarray:
    """Solve ``A x = rhs`` for an operator ``A`` that the transforms of
    ``bases`` along x and y diagonalize, with eigenvalue ``symbol`` on
    each mode.

    ``symbol`` is only read; it may be a cached table.  A symbol that
    vanishes on the first mode means the singular Neumann problem: the
    constant mode is dropped, so the result has zero mean.
    """
    coef = _transform(rhs, bases, inverse=False)
    if symbol[0, 0] == 0.0:
        coef[0, 0] = 0.0
        coef[0, 1:] /= symbol[0, 1:]
        coef[1:] /= symbol[1:]
    else:
        coef /= symbol
    return _transform(coef, bases, inverse=True)


def neumann_symbol_solve(rhs: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Solve ``A u = rhs`` on the cells with zero-flux walls, for a
    function ``A`` of the Neumann operator ``-lap``.

    ``symbol`` holds the eigenvalue of ``A`` on each cosine mode, built
    elementwise from :func:`neumann_eigenvalues`.  A symbol that vanishes
    on the constant mode gives the zero-mean solution of the singular
    problem.
    """
    return _solve_diagonal(rhs, _NEUMANN, symbol)


def inverse_neumann_laplacian(f: ScalarField) -> ScalarField:
    """Zero-mean solution ``u`` of ``-lap u = f`` with zero-flux walls.

    The right-hand side must be compatible: its mean may not exceed
    ``1e-10 * |f|_inf``.  The solve is exact to rounding.
    """
    vals = f.values
    f_inf = float(np.max(np.abs(vals))) if vals.size else 0.0
    f_mean = float(vals.mean())
    if abs(f_mean) > 1.0e-10 * max(f_inf, 1.0e-300):
        raise SolverError(
            "mean-incompatible right-hand side for the Neumann solve: "
            f"mean {f_mean:.3e} vs |f|_inf {f_inf:.3e}"
        )
    return fluctuation_potential(f)


def fluctuation_potential(f: ScalarField) -> ScalarField:
    """``N(f - mean f)``: the zero-mean solution ``u`` of ``-lap u = f -
    mean f`` with zero-flux walls, for any ``f``.

    The transform drops the constant mode, so no compatibility check is
    needed.
    """
    u = neumann_symbol_solve(f.values, neumann_eigenvalues(f.grid))
    u -= u.mean()
    return ScalarField(f.grid, u)


# ``hydro.neumann_solve`` is patched by name in perfbench/tracing.py (WRAPS)
neumann_solve = inverse_neumann_laplacian


def neumann_helmholtz(f: ScalarField, coeff: float) -> ScalarField:
    """Solution ``u`` of ``u - coeff * lap u = f`` with zero-flux walls.

    ``coeff`` must be nonnegative.  The constant mode passes through
    unscaled, so ``mean(u) == mean(f)`` up to rounding.
    """
    u = neumann_symbol_solve(f.values, 1.0 + coeff * neumann_eigenvalues(f.grid))
    return ScalarField(f.grid, u)


def face_helmholtz(
    spec: GridSpec, rhs_u: np.ndarray, rhs_v: np.ndarray, coeff: float
) -> tuple[np.ndarray, np.ndarray]:
    """Component Helmholtz solves ``w - coeff * lap w = rhs`` on the MAC faces.

    The Laplacian is the no-slip component operator of
    :func:`chns.hydro._lap_u` / ``_lap_v``: boundary-normal faces are
    pinned to zero (their right-hand side entries are ignored) and
    tangential walls use antisymmetric ghosts.  ``coeff`` must be
    nonnegative.
    """
    u = np.zeros((spec.nx + 1, spec.ny))
    v = np.zeros((spec.nx, spec.ny + 1))

    def solve(rhs, bases):
        return _solve_diagonal(rhs, bases, 1.0 + coeff * _eigenvalues(spec, bases))

    u[1:-1, :] = solve(rhs_u[1:-1, :], ("pinned", "odd"))
    v[:, 1:-1] = solve(rhs_v[:, 1:-1], ("odd", "pinned"))
    return u, v
