"""Polynomial builders that only the tests use."""

from lowdisc.algebra import Poly


def monomial(p: int, k: int) -> Poly:
    """x^k over F_p."""
    if k < 0:
        raise ValueError("monomial degree must be >= 0")
    return Poly([0] * k + [1], p)
