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
the wavenumber range differs.  Each solve transforms, divides every mode
by its eigenvalue and transforms back through the exact inverse, so it is
exact to rounding and no transform needs a normalization.

The transforms are built on numpy's real FFT.  A cell-centered axis of
``n`` cells takes Makhoul's DCT-II (IEEE Trans. ASSP 28, 1980): gather the
even samples, then the odd ones reversed, take the real FFT and multiply
mode ``k`` by ``exp(-i pi k / (2 n))``.  Read as interleaved floats, the
result holds DCT mode ``k`` in slot ``2k`` and mode ``n - k`` (negated) in
slot ``2k + 1``; slot 1 is mode ``n``, which is structurally zero, and
for even ``n`` the last two slots both hold mode ``n / 2``.  The
zero-value wall negates the odd samples first, which turns its DST-II
into the DCT-II in reversed mode order: DCT mode ``m`` is sine wavenumber
``n - m``.  A pinned face axis goes through the odd extension
``[0, w, 0, -reversed w]`` of its ``n - 1`` interior faces, whose real FFT
of length ``2 n`` holds the DST-I in its imaginary part.

The cell-centred Neumann solves transform the last axis and then the
first; the face solves transform their cell-centred axis and then the
pinned one.  numpy 2 returns each FFT in C order whatever its axis, so
reading a result as floats or as complex numbers is a view, not a copy.
The same transforms invert any function of the Neumann Laplacian
(``neumann_symbol_solve``, given the function's values on
``neumann_eigenvalues``); the phase-field Newton iteration builds that
symbol and gathers it into the transform's slots (``symbol_slots``) once
per Krylov solve to precondition its variable-coefficient Jacobian.

The Neumann operator annihilates constants; its inverse ``N``
(:func:`fluctuation_potential`) drops the constant mode and returns the
zero-mean solution.  Every cell solve is ``N`` or a symbol solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
# imported with the module: numpy loads numpy.fft on first use otherwise,
# and that first use would fall inside a solve
from numpy.fft import irfft, rfft

from .grid import GridSpec, ScalarField

__all__ = [
    "SolverConfig",
    "SolverError",
    "face_helmholtz",
    "fluctuation_potential",
    "neumann_eigenvalues",
    "neumann_solve",
    "neumann_symbol_solve",
    "symbol_slots",
]

# perfbench/tracing.py (WRAPS) patches these names, which nothing calls;
# ROADMAP item 1 drops them with the tracer's entries
cg_raw = solve_spd = None


class SolverError(RuntimeError):
    """A solver failed; ``chns`` exits 3 on this and on its subclasses."""


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


def _wave_eigenvalues(k: np.ndarray, n: int, h: float) -> np.ndarray:
    """Eigenvalues ``(2 sin(pi k / (2 n)) / h)^2`` of the 1-D ``-d2/dx2``
    on wavenumbers ``k`` of an axis of ``n`` cells of width ``h``."""
    return (2.0 * np.sin(0.5 * np.pi * k / n) / h) ** 2


def _halves(n: int) -> tuple:
    """Makhoul's order of an axis of ``n`` samples, as ``(destination,
    source)`` slice pairs: the even samples first, then the odd ones
    reversed."""
    half = (n + 1) // 2
    odd_reversed = slice(n - 1 - n % 2, None, -2)
    return (slice(None, half), slice(None, None, 2)), (slice(half, None), odd_reversed)


@functools.lru_cache(maxsize=16)
def _makhoul(n: int) -> tuple:
    """``(twiddles, conjugate twiddles, slot modes)`` of Makhoul's DCT-II
    on an axis of ``n`` cells: the factors ``exp(-i pi k / (2 n))`` of the
    real FFT's modes, and the DCT mode held by each float slot of the
    twiddled FFT, ``n`` in the structurally zero slot 1."""
    twiddles = np.exp(-0.5j * np.pi * np.arange(n // 2 + 1) / n)
    slot = np.arange(2 * (n // 2 + 1))
    modes = np.where(slot % 2 == 0, slot // 2, n - slot // 2)
    return twiddles, twiddles.conj(), modes


@functools.lru_cache(maxsize=16)
def _cosine_layout(nx: int, ny: int) -> tuple:
    """Per-grid tables of the cell-centred 2-D cosine solve: the
    ``(destination, source)`` index pairs of Makhoul's order along both
    axes, the flat index into an ``(nx, ny)`` mode table of each float slot
    of the transformed array, and the x twiddles (as columns) and y
    twiddles.

    The transformed array is the complex result of the x transform read
    as floats: slot ``(k, 2 j + r)`` holds x mode ``modes_x[2 k + r]`` and
    y mode ``modes_y[j]``, each taken modulo the axis length, so the
    first four slots of row 0 all index the constant mode."""
    wx, cx, modes_x = _makhoul(nx)
    wy, cy, modes_y = _makhoul(ny)
    quadrants = [((dx, dy), (sx, sy)) for dx, sx in _halves(nx) for dy, sy in _halves(ny)]
    rows = (modes_x % nx).reshape(-1, 2)
    index = (rows[:, None, :] * ny + (modes_y % ny)[:, None]).reshape(len(rows), -1)
    return quadrants, index, wx[:, None], cx[:, None], wy, cy


@functools.lru_cache(maxsize=16)
def neumann_eigenvalues(spec: GridSpec) -> np.ndarray:
    """Eigenvalues of the Neumann operator ``-lap`` on each cosine mode of
    the cells, as a read-only ``(nx, ny)`` table cached per grid."""
    lam_x = _wave_eigenvalues(np.arange(spec.nx), spec.nx, spec.hx)
    lam_y = _wave_eigenvalues(np.arange(spec.ny), spec.ny, spec.hy)
    table = lam_x[:, None] + lam_y[None, :]
    table.flags.writeable = False
    return table


def _cosine_solve(rhs: np.ndarray, divisor: np.ndarray) -> np.ndarray:
    """Divide the cosine transform of ``rhs`` by ``divisor``, given in the
    float slots of :func:`_cosine_layout`, and transform back."""
    nx, ny = rhs.shape
    quadrants, _, wx, cx, wy, cy = _cosine_layout(nx, ny)
    a = np.empty((nx, ny))
    for dst, src in quadrants:
        a[dst] = rhs[src]
    y = rfft(a, axis=1)
    y *= wy
    z = rfft(y.view(float), axis=0)
    z *= wx
    slots = z.view(float)
    slots /= divisor
    z *= cx
    # the inverse transforms reuse the forward ones' spent arrays, which
    # saves two grid-sized allocations per solve
    irfft(z, n=nx, axis=0, out=y.view(float))
    y *= cy
    irfft(y, n=ny, axis=1, out=a)
    u = np.empty((nx, ny))
    for dst, src in quadrants:
        u[src] = a[dst]
    return u


def symbol_slots(symbol: np.ndarray) -> np.ndarray:
    """``symbol``, an ``(nx, ny)`` mode table, gathered into the float
    slots of :func:`_cosine_layout`.  Where the constant mode's symbol
    vanishes, its slot and the structurally zero slots that share its
    index hold ``inf``: the solve drops them instead of dividing 0 by 0."""
    divisor = np.take(symbol, _cosine_layout(*symbol.shape)[1])
    if symbol[0, 0] == 0.0:
        divisor[0, :4] = np.inf
    return divisor


@functools.lru_cache(maxsize=16)
def _neumann_divisor(spec: GridSpec) -> np.ndarray:
    """:func:`neumann_eigenvalues` in the float slots, read-only, cached
    per grid."""
    divisor = symbol_slots(neumann_eigenvalues(spec))
    divisor.flags.writeable = False
    return divisor


def neumann_symbol_solve(rhs: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Solve ``A u = rhs`` on the cells with zero-flux walls, for a
    function ``A`` of the Neumann operator ``-lap``.

    ``symbol`` holds the eigenvalue of ``A`` on each cosine mode, built
    elementwise from :func:`neumann_eigenvalues`, or those values already
    gathered by :func:`symbol_slots`, whose shape is never ``rhs``'s: a
    caller that solves with one symbol many times gathers it once.  It is
    only read.  A symbol that vanishes on the constant mode gives the
    zero-mean solution of the singular problem.
    """
    divisor = symbol_slots(symbol) if symbol.shape == rhs.shape else symbol
    return _cosine_solve(rhs, divisor)


def fluctuation_potential(f: ScalarField) -> ScalarField:
    """``N(f - mean f)``: the zero-mean solution ``u`` of ``-lap u = f -
    mean f`` with zero-flux walls, for any ``f``.

    The transform drops the constant mode, so no compatibility check is
    needed.
    """
    u = _cosine_solve(f.values, _neumann_divisor(f.grid))
    u -= u.mean()
    return ScalarField(f.grid, u)


# ``hydro.neumann_solve`` is patched by name in perfbench/tracing.py (WRAPS)
neumann_solve = fluctuation_potential


@functools.lru_cache(maxsize=4)
def _face_divisor(
    n_pinned: int, h_pinned: float, n_cells: int, h_cells: float, coeff: float
) -> np.ndarray:
    """Eigenvalues of ``I - coeff * lap`` in the float slots of
    :func:`_face_solve`'s transformed array: row ``k`` is mode ``k`` of the
    pinned axis's odd extension, and columns ``2 s`` and ``2 s + 1`` (real
    and imaginary part) are slot ``s`` of the cell axis, whose DCT mode
    ``m`` is sine wavenumber ``n_cells - m``.  ``coeff`` is the step times
    a viscosity, which changes only with the step, so the table is cached
    per axis pair and ``coeff``; it is read-only."""
    lam_pinned = _wave_eigenvalues(np.arange(n_pinned + 1), n_pinned, h_pinned)
    lam_cells = _wave_eigenvalues(n_cells - _makhoul(n_cells)[2], n_cells, h_cells)
    divisor = 1.0 + coeff * (lam_pinned[:, None] + np.repeat(lam_cells, 2))
    divisor.flags.writeable = False
    return divisor


def _face_solve(
    rhs: np.ndarray, out: np.ndarray, h_pinned: float, h_cells: float, coeff: float
) -> None:
    """Solve ``w - coeff * lap w = rhs`` on one face set into ``out``.

    ``rhs`` and ``out`` are ``(n_pinned - 1, n_cells)``: axis 0 runs over
    the interior faces between two pinned walls, axis 1 over cells with
    zero-value walls.  Either may be a strided view.
    """
    n_pinned = rhs.shape[0] + 1
    n_cells = rhs.shape[1]
    twiddles, conj_twiddles, _ = _makhoul(n_cells)
    (even_dst, even_src), (odd_dst, odd_src) = _halves(n_cells)

    a = np.empty(rhs.shape)
    a[:, even_dst] = rhs[:, even_src]
    np.negative(rhs[:, odd_src], out=a[:, odd_dst])
    extension = np.empty((2 * n_pinned, 2 * len(twiddles)))
    extension[0] = extension[n_pinned] = 0.0
    np.multiply(rfft(a, axis=1), twiddles, out=extension[1:n_pinned].view(complex))
    np.negative(extension[n_pinned - 1 : 0 : -1], out=extension[n_pinned + 1 :])
    z = rfft(extension, axis=0)
    # one contiguous division of the float view: dividing the complex
    # array by a real one is several times slower
    slots = z.view(float)
    slots /= _face_divisor(n_pinned, h_pinned, n_cells, h_cells, coeff)
    # the inverse transforms reuse the forward ones' spent arrays, which
    # saves two grid-sized allocations per solve
    irfft(z, n=2 * n_pinned, axis=0, out=extension)
    y = extension[1:n_pinned].view(complex)
    y *= conj_twiddles
    irfft(y, n=n_cells, axis=1, out=a)
    out[:, even_src] = a[:, even_dst]
    np.negative(a[:, odd_dst], out=out[:, odd_src])


def face_helmholtz(
    spec: GridSpec, rhs_u: np.ndarray, rhs_v: np.ndarray, coeff: float
) -> tuple[np.ndarray, np.ndarray]:
    """Component Helmholtz solves ``w - coeff * lap w = rhs`` on the MAC faces.

    ``lap`` is the five-point no-slip component Laplacian on each face
    set.  The boundary-normal faces (``u`` at ``x = 0, lx``, ``v`` at
    ``y = 0, ly``) are pinned to zero: they enter their neighbours'
    stencils as zeros, their right-hand side entries are ignored and
    they are returned as zeros.  Across a tangential wall the ghost is
    antisymmetric, ``w_ghost = -w``, so the velocity vanishes on the wall
    itself.  ``coeff`` must be nonnegative.
    """
    u = np.zeros((spec.nx + 1, spec.ny))
    v = np.zeros((spec.nx, spec.ny + 1))
    _face_solve(rhs_u[1:-1, :], u[1:-1, :], spec.hx, spec.hy, coeff)
    # the v faces are pinned along y: solve on the transposed views
    _face_solve(rhs_v[:, 1:-1].T, v[:, 1:-1].T, spec.hy, spec.hx, coeff)
    return u, v
