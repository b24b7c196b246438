"""Seeded inputs for the verify workload, each with its expected verdict
proved by the generator itself.

Accepted inputs come from constructions known to be Cameron-Liebler:
point pencils and a pencil complement in AG(3, q); stars, the lines of
a plane, and a star together with a plane not through its point in
PG(3, q).  Rejected inputs carry a witness that a counting condition
every Cameron-Liebler set satisfies fails: in AG(3, q) a parallel class
without exactly x members, in PG(3, q) a line whose number of skew
members is not (x - chi(l)) q^2.  Accepted inputs are checked against
the same conditions, so the generator's model and clag's agree on what
is tested.  The numbers of accepted and rejected inputs do not depend
on the seed.
"""

from __future__ import annotations

import random

from geom import Geometry, affine_class_witness, projective_skew_witness


def _dot(field, u, v) -> int:
    acc = 0
    for a, b in zip(u, v):
        acc = field.add[acc][field.mul[a][b]]
    return acc


def _entry(name, geo, members, expect, construction, witness):
    if expect and witness is not None:
        raise AssertionError(f"{name}: construction violates {witness}")
    if not expect and witness is None:
        raise AssertionError(f"{name}: no counting witness for a rejection")
    proof = {"construction": construction}
    if witness is not None:
        proof["witness"] = witness
    return {"name": name, "q": geo.q, "mode": geo.mode, "expect": expect,
            "kset": geo.to_kset(members), "proof": proof}


def _perturb(rng, geo, center):
    """The lines through `center` with one member swapped for a line
    missing `center` (in AG of another direction than the removed one)."""
    pencil = geo.through(center)
    out = rng.choice(pencil)
    cands = [l for l in geo.lines if center not in l and
             (geo.mode != "affine" or geo.direction[l] != geo.direction[out])]
    members = [l for l in pencil if l != out] + [rng.choice(cands)]
    return members


def affine_inputs(rng: random.Random, q: int) -> list[dict]:
    geo = Geometry(q, "affine")
    wit = lambda members: affine_class_witness(geo, members)
    size = q * q + q + 1
    pa, pb, pc = rng.sample(geo.points, 3)
    out = []

    def add(name, members, expect, construction):
        out.append(_entry(f"ag3{q}_{name}", geo, members, expect,
                          construction, wit(members)))

    add("pencil_a", geo.through(pa), True, f"point pencil at {pa}")
    add("perturbed_a", _perturb(rng, geo, pa), False,
        "pencil with one line swapped for another direction")
    while True:
        members = rng.sample(geo.lines, size)
        if wit(members) is not None:
            break
    add("random_a", members, False, f"uniform random {size} lines")
    add("pencil_b", geo.through(pb), True, f"point pencil at {pb}")
    pencil_c = set(geo.through(pc))
    add("complement", [l for l in geo.lines if l not in pencil_c], True,
        f"complement of the point pencil at {pc}")
    add("perturbed_b", _perturb(rng, geo, pb), False,
        "pencil with one line swapped for another direction")
    while True:
        members = rng.sample(geo.lines, size)
        if wit(members) is not None:
            break
    add("random_b", members, False, f"uniform random {size} lines")
    return out


def projective_inputs(rng: random.Random, q: int) -> list[dict]:
    geo = Geometry(q, "projective")
    f = geo.field
    wit = lambda members: projective_skew_witness(geo, members)
    sa, sb, sc, sd = rng.sample(geo.points, 4)
    # a plane is the kernel of a nonzero dual vector, normalized like a point
    normal = rng.choice(geo.points)
    plane = geo.in_plane(normal)
    off = rng.choice([p for p in geo.points if _dot(f, normal, p)])
    out = []

    def add(name, members, expect, construction):
        out.append(_entry(f"pg3{q}_{name}", geo, members, expect,
                          construction, wit(members)))

    add("star_a", geo.through(sa), True, f"star at {sa}")
    add("perturbed_a", _perturb(rng, geo, sc), False,
        "star with one line swapped for a line missing its point")
    add("plane", plane, True, f"lines of the plane with dual {normal}")
    add("perturbed_b", _perturb(rng, geo, sd), False,
        "star with one line swapped for a line missing its point")
    add("star_plane", geo.through(off) + plane, True,
        f"star at {off} and the plane with dual {normal}, not through it")
    add("star_b", geo.through(sb), True, f"star at {sb}")
    add("perturbed_c", _perturb(rng, geo, sa), False,
        "star with one line swapped for a line missing its point")
    return out


def verify_inputs(seed: int, affine_q: int = 4,
                  projective_q: int = 3) -> list[dict]:
    """The verify workload's k-set files in run order, with verdicts."""
    rng = random.Random(seed)
    return affine_inputs(rng, affine_q) + projective_inputs(rng, projective_q)
