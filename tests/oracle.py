"""Containment oracle for the tests, independent of point sets: small
lies inside big iff adding its rows to big's does not grow the row
space, decided by GF(q) row reduction (`span` goes through `gf_rref`)."""

from clag.geometry import Subspace, span


def contains(big: Subspace, small: Subspace) -> bool:
    return span(big, small) == big
