"""Shared dense reference operators, a ledger reader and the manufactured
problem.

The dense operators are assembled independently of the package's stencil
code (1D blocks plus Kronecker products, or explicit flux loops) so the
tests cross-check two derivations of each operator.  The manufactured
problem drives the transported phase/solute step with forcing terms
derived symbolically from a known smooth solution.
"""

import csv
import functools
from dataclasses import fields

import numpy as np
import pytest


def dense_neumann_laplacian(spec):
    """Dense matrix of the mirrored-ghost 5-point stencil."""

    def one_dim(n, h):
        a = np.zeros((n, n))
        idx = np.arange(n)
        a[idx, idx] = -2.0
        a[idx[:-1], idx[:-1] + 1] = 1.0
        a[idx[1:], idx[1:] - 1] = 1.0
        a[0, 0] = -1.0
        a[-1, -1] = -1.0
        return a / h**2

    ax = one_dim(spec.nx, spec.hx)
    ay = one_dim(spec.ny, spec.hy)
    return np.kron(ax, np.eye(spec.ny)) + np.kron(np.eye(spec.nx), ay)


def dense_face_laplacians(spec):
    """Dense matrices of the no-slip component Laplacians on the interior
    u- and v-faces: a pinned wall face next to a wall-normal unknown, an
    antisymmetric ghost across a tangential wall."""

    def one_dim(n, h, end):
        a = (np.diag(np.full(n, -2.0)) + np.eye(n, k=1) + np.eye(n, k=-1)) / h**2
        a[0, 0] = a[-1, -1] = end / h**2
        return a

    def kron_sum(ax, ay):
        return np.kron(ax, np.eye(len(ay))) + np.kron(np.eye(len(ax)), ay)

    lap_u = kron_sum(one_dim(spec.nx - 1, spec.hx, -2.0), one_dim(spec.ny, spec.hy, -3.0))
    lap_v = kron_sum(one_dim(spec.nx, spec.hx, -3.0), one_dim(spec.ny - 1, spec.hy, -2.0))
    return lap_u, lap_v


def dense_advection_matrix(spec, w):
    """Row-by-row flux balance for div(w f), assembled with loops."""
    n = spec.nx * spec.ny
    mat = np.zeros((n, n))
    for i in range(spec.nx):
        for j in range(spec.ny):
            row = i * spec.ny + j
            if i + 1 < spec.nx:  # east face
                c = w.u[i + 1, j] / (2.0 * spec.hx)
                mat[row, row] += c
                mat[row, (i + 1) * spec.ny + j] += c
            if i > 0:  # west face
                c = w.u[i, j] / (2.0 * spec.hx)
                mat[row, row] -= c
                mat[row, (i - 1) * spec.ny + j] -= c
            if j + 1 < spec.ny:  # north face
                c = w.v[i, j + 1] / (2.0 * spec.hy)
                mat[row, row] += c
                mat[row, i * spec.ny + j + 1] += c
            if j > 0:  # south face
                c = w.v[i, j] / (2.0 * spec.hy)
                mat[row, row] -= c
                mat[row, i * spec.ny + j - 1] -= c
    return mat


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def read_ledger(path):
    """The rows of a ledger CSV, each value parsed back by ``int`` or
    ``float`` as its :class:`~chns.diagnostics.LedgerRow` field is typed."""
    from chns.diagnostics import LEDGER_FIELDS, LedgerRow

    parse = {f.name: int if f.type == "int" else float for f in fields(LedgerRow)}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        assert tuple(next(reader)) == LEDGER_FIELDS
        return [
            LedgerRow(**{name: parse[name](raw) for name, raw in zip(LEDGER_FIELDS, record)})
            for record in reader
        ]


MMS_STREAM = 0.2


@functools.lru_cache(maxsize=1)
def manufactured_problem():
    """Samplers for an exact solution and its forcing terms.

    A single cosine mode with oscillating amplitudes, advected by a
    steady cellular stream, under the quartic potential with all
    couplings active.  Returns ``(params, samplers)`` where ``samplers``
    maps ``phi``, ``sigma``, ``s_phi``, ``s_sigma`` to ``f(x, y, t)``
    callables.
    """
    import sympy as sp

    from chns.chd import ModelParams
    from chns.potential import PotentialParams

    params = ModelParams(
        chi=0.3,
        alpha=0.4,
        beta=0.8,
        c0=0.1,
        potential=PotentialParams("quartic", theta=1.0, theta0=2.0),
    )

    x, y, t = sp.symbols("x y t")
    mode = sp.cos(sp.pi * x) * sp.cos(sp.pi * y)
    amp_phi = sp.Rational(1, 4) * sp.cos(2 * t)
    amp_sig = sp.Rational(3, 20) * sp.sin(2 * t) + sp.Rational(1, 10)
    phi_e = params.c0 + amp_phi * mode
    sig_e = sp.Rational(1, 5) + amp_sig * mode

    def lap(f):
        return sp.diff(f, x, 2) + sp.diff(f, y, 2)

    # the mode is an eigenfunction, so the zero-mean inverse laplacian
    # is just division by the eigenvalue 2 pi^2
    mu_e = (
        -lap(phi_e)
        + phi_e**3
        - phi_e
        - params.chi * sig_e
        + params.beta * amp_phi * mode / (2 * sp.pi**2)
    )
    u_e = MMS_STREAM * sp.sin(sp.pi * x) * sp.cos(sp.pi * y)
    v_e = -MMS_STREAM * sp.cos(sp.pi * x) * sp.sin(sp.pi * y)

    # the exact mean sits on the target, so the mass-exchange term drops
    s_phi = (
        sp.diff(phi_e, t)
        + u_e * sp.diff(phi_e, x)
        + v_e * sp.diff(phi_e, y)
        - lap(mu_e)
    )
    s_sig = (
        sp.diff(sig_e, t)
        + u_e * sp.diff(sig_e, x)
        + v_e * sp.diff(sig_e, y)
        - lap(sig_e - params.chi * phi_e)
    )

    samplers = {
        name: sp.lambdify((x, y, t), sp.expand(expr), "numpy")
        for name, expr in (
            ("phi", phi_e),
            ("sigma", sig_e),
            ("s_phi", s_phi),
            ("s_sigma", s_sig),
        )
    }
    return params, samplers


@functools.lru_cache(maxsize=None)
def manufactured_march(n, dt, t_end):
    """March the forced transport step on an n by n grid; returns the
    final state.  Cached, so every test that asks for the same run shares
    one march and must not modify the state it gets."""
    from chns.chd import chemical_potential, chd_step
    from chns.grid import GridSpec, MacVelocity, ScalarField
    from chns.state import SimState

    params, samplers = manufactured_problem()
    spec = GridSpec(n, n)
    xx, yy = spec.cell_centers()
    xc, yc = spec.corner_coords()
    psi = MMS_STREAM / np.pi * np.sin(np.pi * xc) * np.sin(np.pi * yc)
    psi[0, :] = psi[-1, :] = 0.0
    psi[:, 0] = psi[:, -1] = 0.0
    vel = MacVelocity.from_stream(spec, psi)

    phi = ScalarField(spec, np.asarray(samplers["phi"](xx, yy, 0.0), dtype=float))
    sigma = ScalarField(spec, np.asarray(samplers["sigma"](xx, yy, 0.0), dtype=float))
    state = SimState(
        vel=vel,
        phi=phi,
        mu=chemical_potential(phi, sigma, params),
        sigma=sigma,
        pressure=ScalarField.zeros(spec),
        t=0.0,
        step=0,
    )
    for k in range(round(t_end / dt)):
        t_new = (k + 1) * dt
        state, _ = chd_step(
            state,
            params,
            dt,
            phi_source=ScalarField(
                spec, np.asarray(samplers["s_phi"](xx, yy, t_new), dtype=float)
            ),
            sigma_source=ScalarField(
                spec, np.asarray(samplers["s_sigma"](xx, yy, t_new), dtype=float)
            ),
        )
    return state


def manufactured_errors(state):
    """Discrete L2 errors of ``(phi, sigma)`` against the exact fields."""
    _, samplers = manufactured_problem()
    spec = state.grid
    xx, yy = spec.cell_centers()
    e_phi = state.phi.values - samplers["phi"](xx, yy, state.t)
    e_sig = state.sigma.values - samplers["sigma"](xx, yy, state.t)
    return (
        float(np.sqrt(spec.cell_area * np.sum(e_phi * e_phi))),
        float(np.sqrt(spec.cell_area * np.sum(e_sig * e_sig))),
    )
