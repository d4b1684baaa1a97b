"""Operator identities on the staggered grid.

The reference operators live in conftest: dense matrices assembled from
1D mirrored-ghost blocks and explicit flux loops, independent of the
implementation's divergence-of-gradient route.
"""

import numpy as np
import pytest
from conftest import dense_advection_matrix, dense_neumann_laplacian
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chns.grid import (
    GridMismatchError,
    GridSpec,
    MacVelocity,
    ScalarField,
    advect_scalar,
    div_raw,
    face_inner,
    grad_norm_sq,
    grad_raw,
    integrate,
    l2_inner,
    laplacian_raw,
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
    got = laplacian_raw(spec, f.values).ravel()
    assert np.max(np.abs(got - want)) <= 1.0e-11 * np.max(np.abs(want))


def test_laplacian_annihilates_constants():
    spec = GridSpec(8, 5, 1.1, 0.4)
    out = laplacian_raw(spec, np.full((spec.nx, spec.ny), 3.7))
    assert np.all(out == 0.0)


def test_laplacian_conserves_mass(rng):
    spec = GridSpec(12, 10, 1.5, 0.8)
    f = random_field(spec, rng)
    lap = ScalarField(spec, laplacian_raw(spec, f.values))
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
    got = laplacian_raw(spec, mode)
    assert np.max(np.abs(got + lam * mode)) <= 1.0e-12 * lam


def test_cosine_mode_approximates_continuum_eigenvalue(rng):
    # -(pi / lx)^2 up to O(hx^2); the dense oracle pins the discrete value.
    spec = GridSpec(64, 4, 1.0, 1.0)
    xx, _ = spec.cell_centers()
    f = ScalarField(spec, np.cos(np.pi * xx / spec.lx))
    got = laplacian_raw(spec, f.values)
    want = -((np.pi / spec.lx) ** 2) * f.values
    assert np.max(np.abs(got - want)) <= 2.0e-3  # O(hx^2) at hx = 1/64
    dense = dense_neumann_laplacian(spec) @ f.values.ravel()
    assert np.max(np.abs(got.ravel() - dense)) <= 1.0e-12 * np.max(np.abs(dense))


def test_grad_of_constant_and_linear():
    spec = GridSpec(10, 7, 2.0, 1.0)
    zu, zv = grad_raw(spec, np.full((spec.nx, spec.ny), 4.2))
    assert np.all(zu == 0.0) and np.all(zv == 0.0)
    xx, _ = spec.cell_centers()
    gu, gv = grad_raw(spec, 3.0 * xx)
    assert np.max(np.abs(gu[1:-1, :] - 3.0)) <= 1.0e-13
    assert np.all(gu[0, :] == 0.0) and np.all(gu[-1, :] == 0.0)
    assert np.all(gv[:, 1:-1] == 0.0)


def test_grad_div_adjointness(rng):
    spec = GridSpec(11, 8, 1.2, 0.9)
    f = random_field(spec, rng)
    w = random_velocity(spec, rng)
    lhs = face_inner(MacVelocity(spec, *grad_raw(spec, f.values)), w)
    rhs = -l2_inner(f, ScalarField(spec, div_raw(spec, w.u, w.v)))
    assert abs(lhs - rhs) <= 1.0e-12 * max(abs(lhs), 1.0)


def test_div_of_grad_is_laplacian(rng):
    spec = GridSpec(9, 9, 0.8, 1.3)
    f = random_field(spec, rng)
    composed = div_raw(spec, *grad_raw(spec, f.values))
    direct = laplacian_raw(spec, f.values)
    assert np.array_equal(composed, direct)


def laid_out(values, layout):
    """``values`` as a C-contiguous array, a transposed view or a strided slice."""
    if layout == "transposed":
        return np.ascontiguousarray(values.T).T
    if layout == "sliced":
        nx, ny = values.shape
        host = np.full((2 * nx, ny + 3), np.nan)
        host[::2, 1 : ny + 1] = values
        return host[::2, 1 : ny + 1]
    return values


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    data=st.data(),
    shape=st.tuples(st.integers(4, 13), st.integers(4, 13)),
    sides=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    layout=st.sampled_from(["contiguous", "transposed", "sliced"]),
)
def test_laplacian_is_div_of_grad_bit_for_bit(data, shape, sides, layout):
    spec = GridSpec(*shape, *sides)
    assume(spec.hx != spec.hy)
    # signed zeros included: the bytes must match, not just the values
    values = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1.0e3, 1.0e3)))
    f = laid_out(values, layout)
    want = div_raw(spec, *grad_raw(spec, values))
    got = laplacian_raw(spec, f)
    assert got.shape == shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(f, values)


def test_div_mean_vanishes(rng):
    spec = GridSpec(10, 10)
    w = random_velocity(spec, rng)
    d = div_raw(spec, w.u, w.v)
    assert abs(mean(ScalarField(spec, d))) <= 1.0e-14 * np.max(np.abs(d))


def test_laplacian_self_adjoint(rng):
    spec = GridSpec(13, 7, 1.0, 0.6)
    f = random_field(spec, rng)
    g = random_field(spec, rng)
    lhs = l2_inner(ScalarField(spec, laplacian_raw(spec, f.values)), g)
    rhs = l2_inner(f, ScalarField(spec, laplacian_raw(spec, g.values)))
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
    assert np.max(np.abs(div_raw(spec, w.u, w.v))) <= 1.0e-13 * scale


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
    gf = MacVelocity(spec, *grad_raw(spec, f.values))
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
