"""Double-well potentials for the phase field and their convex splitting.

Two variants:

* ``logarithmic``: ``psi(r) = (theta/2) [(1 - r) ln(1 - r) + (1 + r) ln(1 + r)]
  + (theta0/2) (1 - r^2)`` with ``0 < theta < theta0``.  Defined on
  ``[-1, 1]`` (finite at the endpoints by continuity), derivatives blow
  up as ``|r| -> 1``, which is what keeps the phase field strictly
  inside the physical interval.
* ``quartic``: ``psi(r) = (1 - r^2)^2 / 4``, valid on all of R.

Both are written as a convex part minus a quadratic,
``psi = psi0 - (theta0/2) r^2``, which is what the semi-implicit time
stepping needs: the convex part ``psi0`` is treated implicitly and its
second derivative is bounded below by a positive constant; for the
quartic variant ``psi0'' = 3 r^2 + theta0 - 1``, so ``theta0 > 1`` is
required there.  A variant is written out only in the kernels a run or
a solve calls, :func:`psi`, :func:`psi0_prime` and :func:`psi0_second`;
:func:`psi0` and :func:`psi_prime` follow from the split in one line each.

The logarithmic kernels use numpy's vectorized ``log`` and ``arctanh``:
the entropy ``(1 - r) ln(1 - r) + (1 + r) ln(1 + r)`` is summed from two
``a ln a`` terms with ``0 ln 0 = 0`` at ``r = +-1``, and the derivative
``(theta/2) [ln(1 + r) - ln(1 - r)]`` is ``theta arctanh(r)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import check_finite

__all__ = [
    "PotentialDomainError",
    "PotentialParams",
    "psi",
    "psi_prime",
    "psi0",
    "psi0_prime",
    "psi0_second",
]


class PotentialDomainError(ValueError):
    """Potential evaluated outside its domain of definition."""


_VARIANTS = ("logarithmic", "quartic")


@dataclass(frozen=True)
class PotentialParams:
    """Variant selector plus the two temperature-like coefficients.

    ``theta`` is the convexity floor reported for ``psi0''`` and
    ``theta0`` the coefficient of the concave quadratic.  The logarithmic
    variant needs ``0 < theta < theta0``; the quartic variant needs
    ``theta0 > 1`` and ``0 < theta <= theta0 - 1`` so the same floor
    claim holds.
    """

    variant: str = "logarithmic"
    theta: float = 1.0
    theta0: float = 2.0

    def __post_init__(self) -> None:
        check_finite(self)
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown potential variant {self.variant!r}; pick from {_VARIANTS}")
        if self.variant == "logarithmic":
            if not (0.0 < self.theta < self.theta0):
                raise ValueError(
                    "violates (H2): logarithmic potential needs 0 < theta < theta0, "
                    f"got theta={self.theta}, theta0={self.theta0}"
                )
        else:
            if not (self.theta0 > 1.0 and 0.0 < self.theta <= self.theta0 - 1.0):
                raise ValueError(
                    "violates (H2): quartic split needs theta0 > 1 and "
                    f"0 < theta <= theta0 - 1, got theta={self.theta}, theta0={self.theta0}"
                )

    @property
    def convexity_floor(self) -> float:
        """Lower bound for ``psi0''`` on the domain."""
        return self.theta if self.variant == "logarithmic" else self.theta0 - 1.0


def _check_closed(r: np.ndarray, p: PotentialParams) -> None:
    if p.variant == "logarithmic" and np.any(np.abs(r) > 1.0):
        raise PotentialDomainError("logarithmic potential needs |r| <= 1")


def _check_open(r: np.ndarray, p: PotentialParams) -> None:
    if p.variant == "logarithmic" and np.any(np.abs(r) >= 1.0):
        raise PotentialDomainError("logarithmic potential derivatives need |r| < 1")


def _a_log_a(a: np.ndarray) -> np.ndarray:
    """``a ln a`` for ``a >= 0``, with the limit ``0 ln 0 = 0``."""
    return a * np.log(a, out=np.zeros_like(a), where=a > 0.0)


def _entropy(r: np.ndarray) -> np.ndarray:
    return _a_log_a(1.0 - r) + _a_log_a(1.0 + r)


def psi(r, p: PotentialParams):
    """Potential value; accepts scalars or arrays, closed-interval domain."""
    r = np.asarray(r, dtype=np.float64)
    _check_closed(r, p)
    if p.variant == "logarithmic":
        out = 0.5 * p.theta * _entropy(r) + 0.5 * p.theta0 * (1.0 - r * r)
    else:
        out = 0.25 * (1.0 - r * r) ** 2
    return out if out.ndim else float(out)


def psi0_prime(r, p: PotentialParams):
    r = np.asarray(r, dtype=np.float64)
    _check_open(r, p)
    if p.variant == "logarithmic":
        out = p.theta * np.arctanh(r)
    else:
        out = r**3 + (p.theta0 - 1.0) * r
    return out if out.ndim else float(out)


def psi0_second(r, p: PotentialParams):
    r = np.asarray(r, dtype=np.float64)
    _check_open(r, p)
    if p.variant == "logarithmic":
        out = p.theta / (1.0 - r * r)
    else:
        out = 3.0 * r * r + (p.theta0 - 1.0)
    return out if out.ndim else float(out)


def psi0(r, p: PotentialParams):
    """Convex part of the split, ``psi + (theta0/2) r^2``."""
    return psi(r, p) + 0.5 * p.theta0 * np.square(r)


def psi_prime(r, p: PotentialParams):
    """First derivative, ``psi0' - theta0 r``; open-interval domain."""
    return psi0_prime(r, p) - np.multiply(p.theta0, r)
