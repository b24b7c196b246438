"""Reference implementations for the tests.

`contains` decides containment independent of point sets: small lies
inside big iff adding its rows to big's does not grow the row space,
decided by GF(q) row reduction (`span` goes through `gf_rref`).

`combination_children` is the search's former branching loop: one
clone per `itertools.combinations` choice of a pencil's unknown
members, each replaying the pencil's assignments from the start."""

import itertools

from clag.classify import _Contradiction
from clag.geometry import Subspace, span


def contains(big: Subspace, small: Subspace) -> bool:
    return span(big, small) == big


def combination_children(search, state, pid) -> list:
    undecided = [t for t in search.pencils[pid] if state.values[t] == -1]
    need = search.x - state.ones[pid]
    children = []
    for chosen in itertools.combinations(undecided, need):
        chosen = set(chosen)
        child = state.clone()
        try:
            for t in undecided:
                search._assign(child, t, 1 if t in chosen else 0)
        except _Contradiction:
            continue
        children.append(child)
    return children
