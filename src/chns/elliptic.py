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
The same transforms invert any function of the Neumann Laplacian
(``neumann_symbol_solve``); the phase-field Newton iteration uses that to
precondition its variable-coefficient Jacobian.

The Neumann operator annihilates constants, so the inverse works on the
zero-mean subspace: right-hand sides must be compatible and the solution
has zero mean.

A conjugate-gradient routine for general SPD operators stays available
(``solve_spd``, ``cg_raw``), with a dense mode that test oracles use to
cross-check it.  No solve inside the time step goes through it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.fft as sfft

from .grid import GridSpec, ScalarField, inner_raw, l2_inner

__all__ = [
    "SolverConfig",
    "SolverError",
    "cg_raw",
    "face_helmholtz",
    "fluctuation_potential",
    "inverse_neumann_laplacian",
    "neumann_helmholtz",
    "neumann_solve",
    "neumann_symbol_solve",
    "solve_spd",
    "v0_norm_sq",
]

_DENSE_LIMIT = 4096  # dense mode is for test-sized problems only


class SolverError(RuntimeError):
    """Linear solve failed or was handed an incompatible right-hand side."""


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and mode for the conjugate-gradient solves.

    The transform solves are exact and take no tolerance; ``rel_tol``
    also sets the residual target of :func:`~chns.stationary.solve_stationary`.
    ``max_iter`` of ``None`` resolves to ``10 * n`` for an ``n``-unknown
    system.  ``rel_tol`` is relative to the right-hand side norm and must
    lie in ``(0, 1e-4]``.
    """

    rel_tol: float = 1.0e-10
    max_iter: int | None = None
    mode: str = "iterative"

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1.0e-4):
            raise ValueError(f"rel_tol must lie in (0, 1e-4], got {self.rel_tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")
        if self.mode not in ("iterative", "dense"):
            raise ValueError(f"mode must be 'iterative' or 'dense', got {self.mode!r}")

    def resolve_max_iter(self, n: int) -> int:
        return self.max_iter if self.max_iter is not None else 10 * n


# fast-transform solves

# wall treatment along one axis -> (forward, inverse, transform type,
# first wavenumber); the wavenumbers run over as many values as the axis
# has unknowns
_BASES = {
    "mirror": (sfft.dct, sfft.idct, 2, 0),
    "odd": (sfft.dst, sfft.idst, 2, 1),
    "pinned": (sfft.dst, sfft.idst, 1, 1),
}


@functools.lru_cache(maxsize=8)
def _eigenvalues(spec: GridSpec) -> dict:
    """1-D eigenvalues of ``-d^2`` per axis and wall treatment, cached per
    grid.  Keys are ``(axis, basis)``; the tables are read-only."""
    tables = {}
    for axis, (n, h) in enumerate(((spec.nx, spec.hx), (spec.ny, spec.hy))):
        for basis, (_, _, kind, k0) in _BASES.items():
            count = n - 1 if kind == 1 else n
            k = np.arange(k0, k0 + count)
            lam = (2.0 * np.sin(0.5 * np.pi * k / n) / h) ** 2
            lam.flags.writeable = False
            tables[axis, basis] = lam
    return tables


def _solve_diagonal(
    spec: GridSpec,
    rhs: np.ndarray,
    bases: tuple[str, str],
    symbol: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Solve ``symbol(-lap) x = rhs`` on one unknown set.

    ``lap`` is the five-point Laplacian with the wall treatment ``bases``
    along x and y.  ``symbol`` maps the eigenvalues of ``-lap`` (a fresh
    array it may overwrite) to those of the operator.  A symbol that
    vanishes on the first mode means the singular Neumann problem: the
    constant mode is dropped, so the result has zero mean.
    """
    coef = rhs
    for axis, basis in enumerate(bases):
        forward, _, kind, _ = _BASES[basis]
        coef = forward(coef, type=kind, axis=axis, norm="ortho")
    tables = _eigenvalues(spec)
    diag = symbol(tables[0, bases[0]][:, None] + tables[1, bases[1]][None, :])
    if diag[0, 0] == 0.0:
        coef[0, 0] = 0.0
        diag[0, 0] = 1.0
    coef /= diag
    for axis, basis in enumerate(bases):
        _, inverse, kind, _ = _BASES[basis]
        coef = inverse(coef, type=kind, axis=axis, norm="ortho")
    return coef


def neumann_symbol_solve(
    spec: GridSpec, rhs: np.ndarray, symbol: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Solve ``symbol(-lap) u = rhs`` on the cells with zero-flux walls.

    ``symbol`` maps the eigenvalues of the Neumann operator ``-lap`` to
    those of the operator to invert, elementwise; a symbol that vanishes
    on the constant mode gives the zero-mean solution of the singular
    problem.
    """
    return _solve_diagonal(spec, rhs, ("mirror", "mirror"), symbol)


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
    u = neumann_symbol_solve(f.grid, f.values, lambda lam: lam)
    u -= u.mean()
    return ScalarField(f.grid, u)


# ``hydro.neumann_solve`` is patched by name in perfbench/tracing.py (WRAPS)
neumann_solve = inverse_neumann_laplacian


def neumann_helmholtz(f: ScalarField, coeff: float) -> ScalarField:
    """Solution ``u`` of ``u - coeff * lap u = f`` with zero-flux walls.

    ``coeff`` must be nonnegative.  The constant mode passes through
    unscaled, so ``mean(u) == mean(f)`` up to rounding.
    """
    u = neumann_symbol_solve(f.grid, f.values, lambda lam: 1.0 + coeff * lam)
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

    def symbol(lam):
        return 1.0 + coeff * lam

    u[1:-1, :] = _solve_diagonal(spec, rhs_u[1:-1, :], ("pinned", "odd"), symbol)
    v[:, 1:-1] = _solve_diagonal(spec, rhs_v[:, 1:-1], ("odd", "pinned"), symbol)
    return u, v


def v0_norm_sq(f: ScalarField) -> float:
    """Squared dual seminorm ``(f, N f)`` of a zero-mean field.

    Equals the Dirichlet energy of ``N f`` by the discrete adjointness,
    and scales exactly quadratically in ``f``.
    """
    nf = inverse_neumann_laplacian(f)
    return l2_inner(f, nf)


# conjugate gradients for general SPD operators


def _project_mean(x: np.ndarray) -> np.ndarray:
    return x - x.mean()


def cg_raw(
    apply_fn: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: np.ndarray | None = None,
    *,
    rel_tol: float = 1.0e-10,
    max_iter: int = 1000,
    singular: bool = False,
) -> tuple[np.ndarray, int]:
    """Conjugate gradients on raw arrays of any shape.

    ``singular`` handles operators whose kernel is the constants: right
    hand side, initial guess and returned solution are projected onto the
    zero-mean subspace, on which the operator must be definite.
    """
    b = np.asarray(b, dtype=np.float64)
    if singular:
        b = _project_mean(b)
    b_norm = float(np.sqrt(inner_raw(b, b)))
    if b_norm == 0.0:
        return np.zeros_like(b), 0
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64)
    if singular:
        x = _project_mean(x)
    r = b - apply_fn(x)
    if singular:
        r = _project_mean(r)
    tol = rel_tol * b_norm
    rs = inner_raw(r, r)
    if np.sqrt(rs) <= tol:
        return x, 0
    p = r.copy()
    for k in range(1, max_iter + 1):
        ap = apply_fn(p)
        denom = inner_raw(p, ap)
        if denom <= 0.0:
            raise SolverError(
                f"operator not positive definite on the search space (p.Ap = {denom:.3e})"
            )
        alpha = rs / denom
        x += alpha * p
        r -= alpha * ap
        if singular:
            r = _project_mean(r)
        rs_new = inner_raw(r, r)
        if np.sqrt(rs_new) <= tol:
            if singular:
                x = _project_mean(x)
            return x, k
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise SolverError(
        f"conjugate gradients stalled after {max_iter} iterations, "
        f"relative residual {np.sqrt(rs) / b_norm:.3e} (target {rel_tol:.1e})"
    )


def _solve_dense(
    apply_fn: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    singular: bool,
) -> np.ndarray:
    n = b.size
    if n > _DENSE_LIMIT:
        raise SolverError(f"dense mode supports at most {_DENSE_LIMIT} unknowns, got {n}")
    shape = b.shape
    mat = np.empty((n, n))
    e = np.zeros(shape)
    flat = e.reshape(-1)
    for j in range(n):
        flat[j] = 1.0
        mat[:, j] = apply_fn(e).reshape(-1)
        flat[j] = 0.0
    rhs = b.reshape(-1)
    if singular:
        # shift the constant kernel to make the system invertible, then
        # project the mean back out
        scale = np.trace(mat) / n
        mat = mat + scale * np.ones((n, n)) / n
        rhs = rhs - rhs.mean()
    x = np.linalg.solve(mat, rhs)
    if singular:
        x = x - x.mean()
    return x.reshape(shape)


def solve_spd(
    apply_fn: Callable[[np.ndarray], np.ndarray],
    rhs: ScalarField,
    cfg: SolverConfig = SolverConfig(),
    x0: ScalarField | None = None,
    *,
    singular: bool = False,
) -> tuple[ScalarField, int]:
    """Solve ``A x = rhs`` for a symmetric positive (semi)definite ``A``
    by conjugate gradients (or densely, in dense mode).

    ``apply_fn`` acts on raw cell arrays.  Returns the solution and the
    iteration count (zero in dense mode).
    """
    if cfg.mode == "dense":
        x = _solve_dense(apply_fn, rhs.values, singular)
        return ScalarField(rhs.grid, x), 0
    x, iters = cg_raw(
        apply_fn,
        rhs.values,
        None if x0 is None else x0.values,
        rel_tol=cfg.rel_tol,
        max_iter=cfg.resolve_max_iter(rhs.values.size),
        singular=singular,
    )
    return ScalarField(rhs.grid, x), iters
