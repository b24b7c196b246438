import pytest

from clag import clsets
from clag.geometry import ambient
from clag.incidence import certificate_to_json

import gate
import gen
from geom import Geometry, affine_class_witness, projective_skew_witness


@pytest.mark.parametrize("q,mode", [(2, "affine"), (4, "affine"),
                                    (2, "projective"), (3, "projective")])
def test_geometry_matches_clag_enumeration(q, mode):
    geo = Geometry(q, mode)
    space = ambient(3, q, mode)
    assert geo.points == space.points
    assert [geo.basis[l] for l in geo.lines] == \
        [s.rows for s in space.spaces(1)]
    index = {p: i for i, p in enumerate(geo.points)}
    assert [tuple(sorted(index[p] for p in l)) for l in geo.lines] == \
        space.space_point_indices(1)


def _members(geo, entry):
    by_basis = {geo.basis[l]: l for l in geo.lines}
    return [by_basis[tuple(tuple(r) for r in m)]
            for m in entry["kset"]["members"]]


@pytest.mark.parametrize("seed", [0, 7])
def test_generator_proves_every_verdict(seed):
    entries = gen.verify_inputs(seed)
    assert [e["expect"] for e in entries].count(True) == 7
    assert [e["expect"] for e in entries].count(False) == 7
    geos = {(4, "affine"): Geometry(4, "affine"),
            (3, "projective"): Geometry(3, "projective")}
    for e in entries:
        geo = geos[(e["q"], e["mode"])]
        members = _members(geo, e)
        assert len(set(members)) == len(members)
        witness = (affine_class_witness if e["mode"] == "affine"
                   else projective_skew_witness)(geo, members)
        if e["expect"]:
            assert witness is None, e["name"]
        else:
            assert witness == e["proof"]["witness"], e["name"]


def test_generator_is_seeded():
    assert gen.verify_inputs(3) == gen.verify_inputs(3)
    assert gen.verify_inputs(3) != gen.verify_inputs(4)


def test_certificate_check_is_exact():
    space = ambient(3, 2, "affine")
    l = clsets.point_pencil(space, space.points[3], 1)
    ok, cert = clsets.is_cameron_liebler(l)
    assert ok
    kset = clsets.kset_to_json(l)
    doc = certificate_to_json(space, cert)
    assert gate.certificate_errors(kset, doc) == []
    key = next(iter(doc))
    doc[key] = "1/3" if doc[key] != "1/3" else "1/5"
    assert gate.certificate_errors(kset, doc)
