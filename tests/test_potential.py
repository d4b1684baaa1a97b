"""Potential values, splitting, and domain policing.

Reference numbers were evaluated with mpmath at 50 digits from the
closed forms and are frozen here as literals.
"""

import numpy as np
import pytest
from scipy.special import xlogy

from chns.potential import (
    PotentialDomainError,
    PotentialParams,
    psi,
    psi0_prime,
    psi0_second,
    psi_prime,
)

LOG = PotentialParams("logarithmic", theta=1.0, theta0=2.0)
QUARTIC = PotentialParams("quartic", theta=1.0, theta0=2.0)

# mpmath, 50 digits, theta=1, theta0=2
PSI_LOG_HALF = 0.8808120359411369591292
PSI_PRIME_LOG_HALF = -0.4506938556659451543024
PSI0_LOG_HALF = 1.130812035941136959129
PSI_LOG_M09 = 0.6846319372140727529906
PSI_PRIME_LOG_M09 = 0.3277805104167797699955


def convex_part(r, p):
    """``psi0 = psi + (theta0/2) r^2``, the convex part of the split."""
    return psi(r, p) + 0.5 * p.theta0 * np.square(r)


def test_frozen_logarithmic_values():
    assert psi(0.5, LOG) == pytest.approx(PSI_LOG_HALF, rel=1.0e-14)
    assert psi_prime(0.5, LOG) == pytest.approx(PSI_PRIME_LOG_HALF, rel=1.0e-14)
    assert convex_part(0.5, LOG) == pytest.approx(PSI0_LOG_HALF, rel=1.0e-14)
    assert psi(-0.9, LOG) == pytest.approx(PSI_LOG_M09, rel=1.0e-14)
    assert psi_prime(-0.9, LOG) == pytest.approx(PSI_PRIME_LOG_M09, rel=1.0e-14)
    assert psi0_second(0.5, LOG) == pytest.approx(4.0 / 3.0, rel=1.0e-14)


def test_frozen_quartic_values():
    assert psi(0.5, QUARTIC) == pytest.approx(0.140625, rel=1.0e-15)
    assert convex_part(0.5, QUARTIC) == pytest.approx(0.390625, rel=1.0e-15)
    assert psi(1.0, QUARTIC) == 0.0
    assert psi(-1.0, QUARTIC) == 0.0


def test_logarithmic_endpoints_finite():
    # (1 -+ r) ln(1 -+ r) -> 0, leaving theta ln 2 at r = +-1
    want = LOG.theta * np.log(2.0)
    assert psi(1.0, LOG) == pytest.approx(want, rel=1.0e-14)
    assert psi(-1.0, LOG) == pytest.approx(want, rel=1.0e-14)


def test_psi_at_zero():
    assert psi(0.0, LOG) == pytest.approx(LOG.theta0 / 2.0, rel=1.0e-15)
    assert psi_prime(0.0, LOG) == 0.0
    assert psi_prime(0.0, QUARTIC) == 0.0
    assert psi0_second(0.0, LOG) == pytest.approx(LOG.theta, rel=1.0e-15)


@pytest.mark.parametrize("p", [LOG, QUARTIC])
def test_decomposition(p):
    # psi + (theta0/2) r^2 against the closed form of the convex part
    r = np.linspace(-0.999, 0.999, 401)
    if p.variant == "logarithmic":
        want = 0.5 * p.theta * ((1.0 - r) * np.log(1.0 - r) + (1.0 + r) * np.log(1.0 + r))
        want += 0.5 * p.theta0
    else:
        want = 0.25 * r**4 + 0.5 * (p.theta0 - 1.0) * r**2 + 0.25
    assert np.max(np.abs(convex_part(r, p) - want)) <= 1.0e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("p", [LOG, QUARTIC])
def test_convexity_floor(p):
    r = np.linspace(-1.0 + 1.0e-6, 1.0 - 1.0e-6, 2001)
    floor = psi0_second(r, p)
    assert np.all(floor >= p.convexity_floor * (1.0 - 1.0e-12))


@pytest.mark.parametrize("p", [LOG, QUARTIC])
def test_derivative_consistency(p):
    h = 1.0e-6
    r = np.linspace(-0.9, 0.9, 181)
    fd = (psi(r + h, p) - psi(r - h, p)) / (2.0 * h)
    exact = psi_prime(r, p)
    assert np.max(np.abs(fd - exact)) <= 1.0e-7 * (1.0 + np.max(np.abs(exact)))
    fd0 = (convex_part(r + h, p) - convex_part(r - h, p)) / (2.0 * h)
    assert np.max(np.abs(fd0 - psi0_prime(r, p))) <= 1.0e-7 * (
        1.0 + np.max(np.abs(psi0_prime(r, p)))
    )
    fd2 = (psi0_prime(r + h, p) - psi0_prime(r - h, p)) / (2.0 * h)
    assert np.max(np.abs(fd2 - psi0_second(r, p))) <= 1.0e-6 * np.max(
        np.abs(psi0_second(r, p))
    )


def test_barrier_blowup():
    # psi'(1 - d) = (theta/2) ln((2 - d)/d) - theta0 (1 - d); crossing
    # 10 theta at theta=1, theta0=2 needs d below ~2e-11.
    assert psi_prime(1.0 - 1.0e-12, LOG) > 10.0 * LOG.theta
    assert psi_prime(-1.0 + 1.0e-12, LOG) < -10.0 * LOG.theta
    assert psi_prime(0.999999, LOG) > psi_prime(0.99, LOG) > psi_prime(0.9, LOG)
    assert psi0_prime(0.999999, LOG) > psi0_prime(0.999, LOG)


def test_psi0_second_monotone_near_endpoints():
    right = psi0_second(np.linspace(0.9, 1.0 - 1.0e-9, 300), LOG)
    left = psi0_second(np.linspace(-1.0 + 1.0e-9, -0.9, 300), LOG)
    assert np.all(np.diff(right) >= 0.0)
    assert np.all(np.diff(left) <= 0.0)


def test_domain_errors():
    with pytest.raises(PotentialDomainError):
        psi(1.0000001, LOG)
    with pytest.raises(PotentialDomainError):
        psi_prime(1.0, LOG)
    with pytest.raises(PotentialDomainError):
        psi0_second(np.array([0.0, -1.0]), LOG)
    # quartic is entire
    assert np.isfinite(psi(3.0, QUARTIC))
    assert np.isfinite(psi_prime(-2.5, QUARTIC))


def test_parameter_validation():
    with pytest.raises(ValueError, match=r"violates \(H2\)"):
        PotentialParams("logarithmic", theta=2.0, theta0=2.0)
    with pytest.raises(ValueError, match=r"violates \(H2\)"):
        PotentialParams("quartic", theta=1.5, theta0=2.0)
    with pytest.raises(ValueError, match="variant"):
        PotentialParams("sextic")


def test_array_and_scalar_returns():
    out = psi(np.array([0.0, 0.5]), LOG)
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    assert isinstance(psi(0.5, LOG), float)


# r = +-(1 - 2^-k) for k = 1..52 reaches the last double below 1
EDGE = 1.0 - 2.0 ** -np.arange(1, 53)
OPEN_GRID = np.unique(np.concatenate([np.linspace(-1.0, 1.0, 2001)[1:-1], EDGE, -EDGE, [0.0]]))
CLOSED_GRID = np.concatenate([[-1.0], OPEN_GRID, [1.0]])


def entropy_by_xlogy(r):
    return xlogy(1.0 - r, 1.0 - r) + xlogy(1.0 + r, 1.0 + r)


def within_ulps(got, want, scale, ulps=4):
    return np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(scale)))


def test_log_potential_values_match_xlogy_form():
    r = CLOSED_GRID
    p = LOG
    want_psi = 0.5 * p.theta * entropy_by_xlogy(r) + 0.5 * p.theta0 * (1.0 - r * r)
    want_psi0 = 0.5 * p.theta * entropy_by_xlogy(r) + 0.5 * p.theta0
    assert within_ulps(psi(r, p), want_psi, want_psi)
    assert within_ulps(convex_part(r, p), want_psi0, want_psi0)


def test_log_potential_derivatives_match_log1p_form():
    # psi' loses relative accuracy near its root, where its two terms
    # cancel, so both forms are held to the larger term's rounding
    r = OPEN_GRID
    p = LOG
    log_term = 0.5 * p.theta * (np.log1p(r) - np.log1p(-r))
    quad_term = p.theta0 * r
    scale = np.maximum(np.abs(log_term), np.abs(quad_term))
    assert within_ulps(psi_prime(r, p), log_term - quad_term, scale)
    assert within_ulps(psi0_prime(r, p), log_term, log_term)
