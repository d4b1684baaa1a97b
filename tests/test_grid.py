"""Operator identities on the staggered grid.

The reference operators live in conftest: dense matrices assembled from
1D mirrored-ghost blocks and explicit flux loops, independent of the
implementation's divergence-of-gradient route.
"""

import numpy as np
import pytest
from conftest import dense_advection_matrix, dense_neumann_laplacian

from chns.grid import (
    GridMismatchError,
    GridSpec,
    MacVelocity,
    ScalarField,
    advect_scalar,
    div_faces,
    face_inner,
    grad_norm_sq,
    grad_to_faces,
    integrate,
    l2_inner,
    laplacian_neumann,
    mean,
)


def random_field(spec, rng):
    return ScalarField(spec, rng.standard_normal((spec.nx, spec.ny)))


def random_velocity(spec, rng):
    u = np.zeros((spec.nx + 1, spec.ny))
    v = np.zeros((spec.nx, spec.ny + 1))
    u[1:-1, :] = rng.standard_normal((spec.nx - 1, spec.ny))
    v[:, 1:-1] = rng.standard_normal((spec.nx, spec.ny - 1))
    return MacVelocity(spec, u, v)


@pytest.mark.parametrize(
    "spec",
    [GridSpec(8, 8), GridSpec(9, 6, 1.3, 0.7), GridSpec(16, 16, 2.0, 2.0)],
)
def test_laplacian_matches_dense_oracle(spec, rng):
    f = random_field(spec, rng)
    want = dense_neumann_laplacian(spec) @ f.values.ravel()
    got = laplacian_neumann(f).values.ravel()
    assert np.max(np.abs(got - want)) <= 1.0e-11 * np.max(np.abs(want))


def test_laplacian_annihilates_constants():
    spec = GridSpec(8, 5, 1.1, 0.4)
    out = laplacian_neumann(ScalarField.full(spec, 3.7)).values
    assert np.all(out == 0.0)


def test_laplacian_conserves_mass(rng):
    spec = GridSpec(12, 10, 1.5, 0.8)
    f = random_field(spec, rng)
    lap = laplacian_neumann(f)
    scale = np.max(np.abs(lap.values)) * spec.area
    assert abs(integrate(lap)) <= 1.0e-13 * scale
    assert abs(mean(lap)) <= 1.0e-13 * np.max(np.abs(lap.values))


@pytest.mark.parametrize("axis,k", [(0, 1), (0, 3), (1, 2)])
def test_sampled_cosines_are_exact_eigenmodes(axis, k):
    # cos(pi k (i + 1/2) / n) diagonalizes the 1D mirrored stencil with
    # eigenvalue -2 (1 - cos(pi k / n)) / h^2.
    spec = GridSpec(12, 9, 1.4, 0.8)
    n = (spec.nx, spec.ny)[axis]
    h = (spec.hx, spec.hy)[axis]
    coord = (np.arange(n) + 0.5) / n
    mode_1d = np.cos(np.pi * k * coord)
    mode = mode_1d[:, None] * np.ones((1, spec.ny)) if axis == 0 else np.ones(
        (spec.nx, 1)
    ) * mode_1d[None, :]
    lam = 2.0 * (1.0 - np.cos(np.pi * k / n)) / h**2
    got = laplacian_neumann(ScalarField(spec, mode)).values
    assert np.max(np.abs(got + lam * mode)) <= 1.0e-12 * lam


def test_cosine_mode_approximates_continuum_eigenvalue(rng):
    # -(pi / lx)^2 up to O(hx^2); the dense oracle pins the discrete value.
    spec = GridSpec(64, 4, 1.0, 1.0)
    xx, _ = spec.cell_centers()
    f = ScalarField(spec, np.cos(np.pi * xx / spec.lx))
    got = laplacian_neumann(f).values
    want = -((np.pi / spec.lx) ** 2) * f.values
    assert np.max(np.abs(got - want)) <= 2.0e-3  # O(hx^2) at hx = 1/64
    dense = dense_neumann_laplacian(spec) @ f.values.ravel()
    assert np.max(np.abs(got.ravel() - dense)) <= 1.0e-12 * np.max(np.abs(dense))


def test_grad_of_constant_and_linear():
    spec = GridSpec(10, 7, 2.0, 1.0)
    zero = grad_to_faces(ScalarField.full(spec, 4.2))
    assert np.all(zero.u == 0.0) and np.all(zero.v == 0.0)
    xx, _ = spec.cell_centers()
    g = grad_to_faces(ScalarField(spec, 3.0 * xx))
    assert np.max(np.abs(g.u[1:-1, :] - 3.0)) <= 1.0e-13
    assert np.all(g.u[0, :] == 0.0) and np.all(g.u[-1, :] == 0.0)
    assert np.all(g.v[:, 1:-1] == 0.0)


def test_grad_div_adjointness(rng):
    spec = GridSpec(11, 8, 1.2, 0.9)
    f = random_field(spec, rng)
    w = random_velocity(spec, rng)
    lhs = face_inner(grad_to_faces(f), w)
    rhs = -l2_inner(f, div_faces(w))
    assert abs(lhs - rhs) <= 1.0e-12 * max(abs(lhs), 1.0)


def test_div_of_grad_is_laplacian(rng):
    spec = GridSpec(9, 9, 0.8, 1.3)
    f = random_field(spec, rng)
    composed = div_faces(grad_to_faces(f)).values
    direct = laplacian_neumann(f).values
    assert np.array_equal(composed, direct)


def test_div_mean_vanishes(rng):
    spec = GridSpec(10, 10)
    w = random_velocity(spec, rng)
    d = div_faces(w)
    assert abs(mean(d)) <= 1.0e-14 * np.max(np.abs(d.values))


def test_laplacian_self_adjoint(rng):
    spec = GridSpec(13, 7, 1.0, 0.6)
    f = random_field(spec, rng)
    g = random_field(spec, rng)
    lhs = l2_inner(laplacian_neumann(f), g)
    rhs = l2_inner(f, laplacian_neumann(g))
    assert abs(lhs - rhs) <= 1.0e-12 * max(abs(lhs), 1.0)


def test_advection_matches_dense_oracle(rng):
    spec = GridSpec(4, 4)
    w = random_velocity(spec, rng)
    f = random_field(spec, rng)
    got = advect_scalar(w, f).values.ravel()
    want = dense_advection_matrix(spec, w) @ f.values.ravel()
    assert np.max(np.abs(got - want)) <= 1.0e-13 * max(np.max(np.abs(want)), 1.0)


def test_advection_conserves_and_kills_constants(rng):
    spec = GridSpec(8, 6, 1.0, 0.5)
    xc, yc = spec.corner_coords()
    psi = np.sin(np.pi * xc / spec.lx) * np.sin(np.pi * yc / spec.ly)
    psi[0, :] = psi[-1, :] = 0.0
    psi[:, 0] = psi[:, -1] = 0.0
    w = MacVelocity.from_stream(spec, psi)
    f = random_field(spec, rng)
    out = advect_scalar(w, f)
    assert abs(integrate(out)) <= 1.0e-13 * np.max(np.abs(out.values))
    const = advect_scalar(w, ScalarField.full(spec, 2.5))
    assert np.max(np.abs(const.values)) <= 1.0e-12


def test_advection_zero_velocity(rng):
    spec = GridSpec(5, 5)
    out = advect_scalar(MacVelocity.zeros(spec), random_field(spec, rng))
    assert np.all(out.values == 0.0)


def test_stream_function_velocity_is_divergence_free(rng):
    spec = GridSpec(17, 11, 1.9, 1.1)
    psi = rng.standard_normal((spec.nx + 1, spec.ny + 1))
    psi[0, :] = psi[-1, :] = 0.3
    psi[:, 0] = psi[:, -1] = 0.3
    w = MacVelocity.from_stream(spec, psi)
    scale = max(w.max_abs(), 1.0) / min(spec.hx, spec.hy)
    assert np.max(np.abs(div_faces(w).values)) <= 1.0e-13 * scale


def test_quadrature_and_means():
    spec = GridSpec(7, 9, 1.25, 0.75)
    c = ScalarField.full(spec, -1.7)
    assert integrate(c) == pytest.approx(-1.7 * spec.area, rel=1.0e-14)
    assert mean(c) == pytest.approx(-1.7, rel=1.0e-14)
    xx, _ = spec.cell_centers()
    wave = ScalarField(spec, np.cos(np.pi * xx / spec.lx))
    assert abs(integrate(wave)) <= 1.0e-12


def test_inner_products(rng):
    spec = GridSpec(6, 8)
    f = random_field(spec, rng)
    g = random_field(spec, rng)
    assert l2_inner(f, g) == pytest.approx(l2_inner(g, f), rel=1.0e-14)
    assert l2_inner(f, f) > 0.0
    assert l2_inner(ScalarField.zeros(spec), ScalarField.zeros(spec)) == 0.0
    gf = grad_to_faces(f)
    assert grad_norm_sq(f) == pytest.approx(face_inner(gf, gf), rel=1.0e-14)


def test_grid_validation():
    with pytest.raises(ValueError, match="nx, ny >= 4"):
        GridSpec(3, 8)
    with pytest.raises(ValueError, match="positive"):
        GridSpec(8, 8, -1.0, 1.0)
    spec = GridSpec(4, 4)
    with pytest.raises(ValueError, match="shape"):
        ScalarField(spec, np.zeros((4, 5)))
    u = np.ones((5, 4))
    with pytest.raises(ValueError, match="exactly zero"):
        MacVelocity(spec, u, np.zeros((4, 5)))
    with pytest.raises(ValueError, match="corners"):
        MacVelocity.from_stream(spec, np.zeros((4, 4)))


def test_grid_mismatch_raises(rng):
    a = random_field(GridSpec(4, 4), rng)
    b = random_field(GridSpec(4, 5), rng)
    with pytest.raises(GridMismatchError):
        l2_inner(a, b)
    with pytest.raises(GridMismatchError):
        advect_scalar(MacVelocity.zeros(GridSpec(4, 4)), b)


def test_coordinate_arrays():
    spec = GridSpec(4, 5, 2.0, 1.0)
    xx, yy = spec.cell_centers()
    assert xx.shape == (4, 5) and yy.shape == (4, 5)
    assert xx[0, 0] == pytest.approx(0.25) and xx[-1, 0] == pytest.approx(1.75)
    xc, yc = spec.corner_coords()
    assert xc.shape == (5, 6)
    assert xc[0, 0] == 0.0 and xc[-1, -1] == pytest.approx(2.0)
    assert yc[0, -1] == pytest.approx(1.0)
