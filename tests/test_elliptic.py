"""Transform solves against dense oracles, on fixed and on randomly drawn
grids, eigenmodes, round trips and the dual norm."""

import numpy as np
import pytest
from conftest import dense_face_laplacians, dense_neumann_laplacian
from hypothesis import given, settings
from hypothesis import strategies as st

from chns.chd import _preconditioner_symbol
from chns.elliptic import (
    SolverConfig,
    SolverError,
    face_helmholtz,
    fluctuation_potential,
    inverse_neumann_laplacian,
    neumann_helmholtz,
    neumann_symbol_solve,
)
from chns.grid import (
    GridSpec,
    ScalarField,
    grad_norm_sq,
    l2_inner,
    laplacian_raw,
)
from chns.hydro import _lap_u, _lap_v


def zero_mean_field(spec, rng):
    vals = rng.standard_normal((spec.nx, spec.ny))
    return ScalarField(spec, vals - vals.mean())


def dense_from_columns(apply_fn, shape):
    """Dense matrix of a linear map on arrays of ``shape``, one unit
    vector at a time."""
    n = int(np.prod(shape))
    mat = np.empty((n, n))
    basis = np.zeros(shape)
    for j in range(n):
        basis.reshape(-1)[j] = 1.0
        mat[:, j] = apply_fn(basis).reshape(-1)
        basis.reshape(-1)[j] = 0.0
    return mat


def rel_err(got, want):
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


# non-square cells and boxes, including the minimum grid size
ORACLE_GRIDS = [
    GridSpec(4, 4),
    GridSpec(4, 9, 0.7, 1.6),
    GridSpec(13, 6, 1.9, 0.8),
    GridSpec(10, 17, 1.0, 2.5),
]


@pytest.fixture
def rng():
    return np.random.default_rng(5)


@pytest.mark.parametrize("spec", ORACLE_GRIDS, ids=str)
def test_neumann_solve_matches_dense_oracle(spec, rng):
    f = zero_mean_field(spec, rng)
    n = spec.nx * spec.ny
    # pin the constant kernel with an extra mean-zero row
    aug = np.vstack([-dense_neumann_laplacian(spec), np.ones((1, n))])
    want, *_ = np.linalg.lstsq(aug, np.append(f.values.reshape(-1), 0.0), rcond=None)
    got = inverse_neumann_laplacian(f).values.reshape(-1)
    assert rel_err(got, want) <= 1.0e-12
    assert abs(got.mean()) <= 1.0e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("spec", ORACLE_GRIDS, ids=str)
def test_neumann_helmholtz_matches_dense_oracle(spec, rng):
    f = ScalarField(spec, rng.standard_normal((spec.nx, spec.ny)))
    coeff = 0.3 * spec.hx * spec.hy  # balances identity and Laplacian
    mat = np.eye(spec.nx * spec.ny) - coeff * dense_neumann_laplacian(spec)
    want = np.linalg.solve(mat, f.values.reshape(-1))
    got = neumann_helmholtz(f, coeff).values.reshape(-1)
    assert rel_err(got, want) <= 1.0e-12
    assert got.mean() == pytest.approx(f.values.mean(), abs=1.0e-14)


@pytest.mark.parametrize("spec", ORACLE_GRIDS, ids=str)
def test_face_helmholtz_matches_dense_oracle(spec, rng):
    coeff = 0.05
    u_rhs = rng.standard_normal((spec.nx + 1, spec.ny))
    v_rhs = rng.standard_normal((spec.nx, spec.ny + 1))
    got_u, got_v = face_helmholtz(spec, u_rhs, v_rhs, coeff)
    # the unknowns are the interior faces; the wall-normal faces stay zero
    for lap, rhs, got, inner in (
        (_lap_u, u_rhs, got_u, (slice(1, -1), slice(None))),
        (_lap_v, v_rhs, got_v, (slice(None), slice(1, -1))),
    ):
        def helm(x, lap=lap, rhs=rhs, inner=inner):
            full = np.zeros_like(rhs)
            full[inner] = x
            return (full - coeff * lap(spec, full))[inner]

        mat = dense_from_columns(helm, rhs[inner].shape)
        want = np.linalg.solve(mat, rhs[inner].reshape(-1)).reshape(rhs[inner].shape)
        assert rel_err(got[inner], want) <= 1.0e-12
        pinned = np.ones(rhs.shape, dtype=bool)
        pinned[inner] = False
        assert np.all(got[pinned] == 0.0)


# random grids, odd and even cell counts; a fixed example sequence keeps
# the suite deterministic
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)
GRIDS = st.builds(
    GridSpec, st.integers(4, 12), st.integers(4, 12), st.floats(0.5, 2.0), st.floats(0.5, 2.0)
)
SEEDS = st.integers(0, 2**32 - 1)
# coefficients in multiples of the cell area balance the identity against
# the Laplacian, as above, so the dense LU oracle's own error (about
# cond * eps) stays well below the 1e-12 bound
SCALES = st.floats(0.01, 10.0)


@PROPERTY
@given(spec=GRIDS, seed=SEEDS)
def test_fluctuation_potential_property(spec, seed):
    f = np.random.default_rng(seed).standard_normal((spec.nx, spec.ny))
    n = spec.nx * spec.ny
    # -lap plus the projector onto the constants is invertible and maps
    # the zero-mean solution to the zero-mean right-hand side
    mat = -dense_neumann_laplacian(spec) + np.ones((n, n)) / n
    want = np.linalg.solve(mat, (f - f.mean()).reshape(-1))
    got = fluctuation_potential(ScalarField(spec, f)).values.reshape(-1)
    assert rel_err(got, want) <= 1.0e-12


@PROPERTY
@given(spec=GRIDS, seed=SEEDS, scale=SCALES)
def test_neumann_helmholtz_property(spec, seed, scale):
    f = np.random.default_rng(seed).standard_normal((spec.nx, spec.ny))
    coeff = scale * spec.hx * spec.hy
    mat = np.eye(spec.nx * spec.ny) - coeff * dense_neumann_laplacian(spec)
    want = np.linalg.solve(mat, f.reshape(-1))
    got = neumann_helmholtz(ScalarField(spec, f), coeff).values.reshape(-1)
    assert rel_err(got, want) <= 1.0e-12


@PROPERTY
@given(spec=GRIDS, seed=SEEDS, scale=SCALES)
def test_face_helmholtz_property(spec, seed, scale):
    rng = np.random.default_rng(seed)
    u_rhs = rng.standard_normal((spec.nx + 1, spec.ny))
    v_rhs = rng.standard_normal((spec.nx, spec.ny + 1))
    coeff = scale * spec.hx * spec.hy
    got_u, got_v = face_helmholtz(spec, u_rhs, v_rhs, coeff)
    for lap, rhs, got in zip(
        dense_face_laplacians(spec), (u_rhs[1:-1, :], v_rhs[:, 1:-1]), (got_u[1:-1, :], got_v[:, 1:-1])
    ):
        want = np.linalg.solve(np.eye(len(lap)) - coeff * lap, rhs.reshape(-1))
        assert rel_err(got.reshape(-1), want) <= 1.0e-12


@PROPERTY
@given(spec=GRIDS, seed=SEEDS, dt_scale=SCALES, d_scale=SCALES)
def test_jacobian_preconditioner_property(spec, seed, dt_scale, d_scale):
    # the symbol inverts 1/dt + lap^2 - mean(d) lap; dt in units of the
    # squared cell area balances 1/dt against lap^2
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((spec.nx, spec.ny))
    area = spec.hx * spec.hy
    dt = dt_scale * area**2
    d = rng.uniform(0.0, 2.0 * d_scale / area, (spec.nx, spec.ny))
    lap = dense_neumann_laplacian(spec)
    mat = np.eye(len(lap)) / dt + lap @ lap - d.mean() * lap
    want = np.linalg.solve(mat, b.reshape(-1))
    got = neumann_symbol_solve(b, _preconditioner_symbol(spec, d, dt)).reshape(-1)
    assert rel_err(got, want) <= 1.0e-12


def test_zero_input():
    spec = GridSpec(8, 8)
    out = inverse_neumann_laplacian(ScalarField.zeros(spec))
    assert np.all(out.values == 0.0)
    assert l2_inner(ScalarField.zeros(spec), out) == 0.0


def test_cosine_mode_inverse():
    # the sampled cosine is an exact eigenmode, so N divides by the exact
    # discrete eigenvalue 2 (1 - cos(pi / nx)) / hx^2
    spec = GridSpec(16, 8, 1.5, 1.0)
    x = (np.arange(spec.nx) + 0.5) / spec.nx
    mode = np.cos(np.pi * x)[:, None] * np.ones((1, spec.ny))
    lam = 2.0 * (1.0 - np.cos(np.pi / spec.nx)) / spec.hx**2
    f = ScalarField(spec, mode)
    u = inverse_neumann_laplacian(f)
    assert np.max(np.abs(u.values - mode / lam)) <= 1.0e-10 / lam
    # and the continuum factor (lx / pi)^2 is approached at O(h^2)
    assert lam == pytest.approx((np.pi / spec.lx) ** 2, rel=5.0e-3)


def test_round_trip(rng):
    spec = GridSpec(12, 14, 1.1, 0.6)
    u = zero_mean_field(spec, rng)
    f = ScalarField(spec, -laplacian_raw(spec, u.values))
    f.values -= f.values.mean()  # rounding dust
    back = inverse_neumann_laplacian(f)
    assert np.max(np.abs(back.values - u.values)) <= 1.0e-8 * np.max(np.abs(u.values))
    assert abs(back.values.mean()) <= 1.0e-14


def test_inverse_property_forward(rng):
    spec = GridSpec(10, 10)
    f = zero_mean_field(spec, rng)
    u = inverse_neumann_laplacian(f)
    res = -laplacian_raw(spec, u.values) - f.values
    assert np.max(np.abs(res)) <= 1.0e-9 * np.max(np.abs(f.values))


def test_dual_norm_identities(rng):
    spec = GridSpec(9, 12, 0.9, 1.4)
    f = zero_mean_field(spec, rng)
    g = zero_mean_field(spec, rng)
    nf = inverse_neumann_laplacian(f)
    ng = inverse_neumann_laplacian(g)
    # |grad N f|^2 = (f, N f)
    assert grad_norm_sq(nf) == pytest.approx(l2_inner(f, nf), rel=1.0e-10)
    # self-adjointness and positivity
    assert l2_inner(f, ng) == pytest.approx(l2_inner(nf, g), rel=1.0e-10)
    assert l2_inner(f, nf) > 0.0
    # quadratic scaling
    f2 = ScalarField(spec, 2.0 * f.values)
    dual_sq = l2_inner(f2, inverse_neumann_laplacian(f2))
    assert dual_sq == pytest.approx(4.0 * l2_inner(f, nf), rel=1.0e-12)


def test_mean_incompatible_rhs_rejected():
    spec = GridSpec(8, 8)
    with pytest.raises(SolverError, match="mean-incompatible"):
        inverse_neumann_laplacian(ScalarField.full(spec, 1.0))


def test_dense_against_numpy_direct(rng):
    # independent dense solve: assemble -lap row by row, pin the mean
    spec = GridSpec(4, 4)
    f = zero_mean_field(spec, rng)
    n = spec.nx * spec.ny
    mat = np.zeros((n, n))
    basis = np.zeros((spec.nx, spec.ny))
    for j in range(n):
        basis.reshape(-1)[j] = 1.0
        mat[:, j] = -laplacian_raw(spec, basis).reshape(-1)
        basis.reshape(-1)[j] = 0.0
    aug = np.vstack([mat, np.ones((1, n))])
    want, *_ = np.linalg.lstsq(aug, np.append(f.values.reshape(-1), 0.0), rcond=None)
    got = inverse_neumann_laplacian(f).values.reshape(-1)
    assert np.max(np.abs(got - want)) <= 1.0e-9


def test_config_validation():
    with pytest.raises(ValueError, match="rel_tol"):
        SolverConfig(rel_tol=1.0e-3)
