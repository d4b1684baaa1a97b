"""Uniform staggered (MAC) grid on a closed rectangle.

Scalars (phase field, chemical potential, solute, pressure) live at cell
centers, velocity components live on the faces they are normal to.  With
``nx`` by ``ny`` cells on ``[0, lx] x [0, ly]``:

* cell centers ``x_i = (i + 1/2) hx``, ``y_j = (j + 1/2) hy``,
  arrays of shape ``(nx, ny)`` indexed ``[i, j]``;
* ``u`` (x-component) on vertical faces, shape ``(nx + 1, ny)``;
* ``v`` (y-component) on horizontal faces, shape ``(nx, ny + 1)``.

Boundary conditions are baked into the operators: homogeneous Neumann for
scalars via mirrored ghost cells, no penetration for face vectors by
pinning boundary-normal faces to zero.  The operators work on raw arrays
and ``laplacian_raw`` equals ``div_raw(grad_raw(.))`` bit for bit, so the
summation-by-parts identities the energy bookkeeping relies on hold to
rounding error:

* ``inner_raw(f, div_raw(spec, u, v)) == -(inner_raw(gu, u) +
  inner_raw(gv, v))`` with ``gu, gv = grad_raw(spec, f)``,
* ``laplacian_raw`` equals the mirrored five-point stencil,
* constants are annihilated and every image field has zero discrete mean.

Quadrature is midpoint throughout: ``integrate(f) = hx * hy * sum(f)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "GridMismatchError",
    "GridSpec",
    "MacVelocity",
    "ScalarField",
    "advect_scalar",
    "check_finite",
    "div_raw",
    "face_inner",
    "grad_norm_sq",
    "grad_raw",
    "inner_raw",
    "integrate",
    "l2_inner",
    "laplacian_raw",
    "mean",
]


class GridMismatchError(ValueError):
    """Fields defined on different grids were combined."""


def check_finite(config) -> None:
    """Reject a dataclass whose float fields are not all finite.

    Raises ``ValueError`` naming the first offending field.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{type(config).__name__}.{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the uniform cell grid.

    Parameters
    ----------
    nx, ny : int
        Cell counts per direction, at least 4 each.
    lx, ly : float
        Side lengths of the rectangle, strictly positive.
    """

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self) -> None:
        check_finite(self)
        if self.nx < 4 or self.ny < 4:
            raise ValueError(f"grid needs nx, ny >= 4, got {self.nx} x {self.ny}")
        if not (self.lx > 0.0 and self.ly > 0.0):
            raise ValueError(f"domain lengths must be positive, got {self.lx} x {self.ly}")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def area(self) -> float:
        """Total domain measure ``lx * ly``."""
        return self.lx * self.ly

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrids ``(X, Y)`` of cell-center coordinates, shape (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def corner_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrids of cell-corner coordinates, shape (nx + 1, ny + 1)."""
        x = np.arange(self.nx + 1) * self.hx
        y = np.arange(self.ny + 1) * self.hy
        return np.meshgrid(x, y, indexing="ij")


@dataclass
class ScalarField:
    """Cell-centered scalar with its grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (self.grid.nx, self.grid.ny)
        if self.values.shape != expected:
            raise ValueError(
                f"scalar field shape {self.values.shape} does not match grid {expected}"
            )

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid, np.zeros((grid.nx, grid.ny)))

    @classmethod
    def full(cls, grid: GridSpec, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.nx, grid.ny), float(value)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class MacVelocity:
    """Face vector field (velocity or face gradient) on the MAC layout.

    Boundary-normal faces are part of the data but must be exactly zero;
    this encodes no penetration and keeps the discrete adjointness between
    gradient and divergence free of boundary terms.
    """

    grid: GridSpec
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        nx, ny = self.grid.nx, self.grid.ny
        if self.u.shape != (nx + 1, ny) or self.v.shape != (nx, ny + 1):
            raise ValueError(
                f"face shapes {self.u.shape}, {self.v.shape} do not match grid "
                f"{(nx + 1, ny)}, {(nx, ny + 1)}"
            )
        if np.any(self.u[0, :] != 0.0) or np.any(self.u[-1, :] != 0.0) or np.any(
            self.v[:, 0] != 0.0
        ) or np.any(self.v[:, -1] != 0.0):
            raise ValueError("boundary-normal faces must be exactly zero")

    @classmethod
    def zeros(cls, grid: GridSpec) -> "MacVelocity":
        return cls(grid, np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1)))

    @classmethod
    def from_stream(cls, grid: GridSpec, psi_corners: np.ndarray) -> "MacVelocity":
        """Discrete curl of a corner stream function.

        The result is divergence free to rounding error, and its normal
        faces vanish whenever ``psi`` is constant along each wall.
        """
        psi = np.asarray(psi_corners, dtype=np.float64)
        if psi.shape != (grid.nx + 1, grid.ny + 1):
            raise ValueError("stream function must be given on cell corners")
        u = (psi[:, 1:] - psi[:, :-1]) / grid.hy
        v = -(psi[1:, :] - psi[:-1, :]) / grid.hx
        return cls(grid, u, v)

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(self.u))), float(np.max(np.abs(self.v))))


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"fields live on different grids: {a.grid} vs {b.grid}")


# raw-array kernels


def grad_raw(spec: GridSpec, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered face differences; boundary-normal faces carry zero."""
    gu = np.zeros((spec.nx + 1, spec.ny))
    gv = np.zeros((spec.nx, spec.ny + 1))
    gu[1:-1, :] = (f[1:, :] - f[:-1, :]) / spec.hx
    gv[:, 1:-1] = (f[:, 1:] - f[:, :-1]) / spec.hy
    return gu, gv


def div_raw(spec: GridSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u[1:, :] - u[:-1, :]) / spec.hx + (v[:, 1:] - v[:, :-1]) / spec.hy


def inner_raw(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of the elementwise product of two equally shaped arrays.

    Every inner product and norm of the package goes through here.
    ``np.sum`` adds pairwise in a single thread, so the result does not
    depend on the BLAS thread count; ``np.vdot`` and ``np.dot`` call BLAS
    ``ddot``, which splits long vectors across threads and so changes the
    rounding with the thread count.
    """
    return float(np.sum(a * b))


def laplacian_raw(spec: GridSpec, f: np.ndarray) -> np.ndarray:
    """Five-point Laplacian with mirrored (zero normal derivative) ghosts.

    Bit for bit ``div_raw(spec, *grad_raw(spec, f))``: the same face
    differences and quotients in the same order, with zero wall faces, but
    with each direction's faces in one flat row-major buffer, so that every
    difference is one contiguous pass and no face temporaries are made.
    The ``x`` faces on the low side of row ``i`` are ``gu[i * ny : (i + 1)
    * ny]``.  The ``y`` face above cell ``k`` is ``gv[k + 1]``; where that
    would join the end of one row to the start of the next it is the wall,
    so it is zero.
    """
    nx, ny = f.shape
    n = nx * ny
    flat = np.ascontiguousarray(f).reshape(n)
    gu = np.empty(n + ny)
    gu[:ny] = 0.0
    gu[n:] = 0.0
    np.subtract(flat[ny:], flat[:-ny], out=gu[ny:n])
    gu[ny:n] /= spec.hx
    out = np.subtract(gu[ny:], gu[:n])
    out /= spec.hx
    gv = np.empty(n + 1)
    gv[0] = 0.0
    np.subtract(flat[1:], flat[:-1], out=gv[1:n])
    gv[ny::ny] = 0.0
    gv /= spec.hy
    # gu is spent; its first n entries take the y differences
    dv = np.subtract(gv[1:], gv[:-1], out=gu[:n])
    dv /= spec.hy
    out += dv
    return out.reshape(nx, ny)


def advect_scalar(w: MacVelocity, f: ScalarField) -> ScalarField:
    """Conservative transport term ``div(w f)`` at cell centers for a
    (nearly) solenoidal face field ``w``.

    Face values of ``f`` are centered averages; fluxes through the walls
    vanish with the normal velocity, so the result sums to zero exactly.
    It approximates ``w . grad f`` only when ``w`` is solenoidal; the run
    ledger records ``|div w|_inf`` every step.
    """
    _check_same_grid(w, f)
    spec, vals = f.grid, f.values
    fx = np.zeros((spec.nx + 1, spec.ny))
    fy = np.zeros((spec.nx, spec.ny + 1))
    fx[1:-1, :] = w.u[1:-1, :] * 0.5 * (vals[1:, :] + vals[:-1, :])
    fy[:, 1:-1] = w.v[:, 1:-1] * 0.5 * (vals[:, 1:] + vals[:, :-1])
    return ScalarField(spec, div_raw(spec, fx, fy))


def integrate(f: ScalarField) -> float:
    return f.grid.cell_area * float(np.sum(f.values))


def mean(f: ScalarField) -> float:
    return float(np.sum(f.values)) / (f.grid.nx * f.grid.ny)


def l2_inner(f: ScalarField, g: ScalarField) -> float:
    _check_same_grid(f, g)
    return f.grid.cell_area * inner_raw(f.values, g.values)


def face_inner(w1: MacVelocity, w2: MacVelocity) -> float:
    """Face-weighted inner product, each face carrying measure ``hx * hy``."""
    _check_same_grid(w1, w2)
    return w1.grid.cell_area * (inner_raw(w1.u, w2.u) + inner_raw(w1.v, w2.v))


def grad_norm_sq(f: ScalarField) -> float:
    """Discrete Dirichlet energy ``|grad f|^2`` integrated over the domain."""
    gu, gv = grad_raw(f.grid, f.values)
    return f.grid.cell_area * (inner_raw(gu, gu) + inner_raw(gv, gv))
