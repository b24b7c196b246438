"""The correctness gate, run on every artifact after the timing stops.

An operation fails when it raised, exited with the wrong code, or its
artifact does not hold up:

* search certificates must pass ``classify.verify_certificate`` and list
  the expected number of solutions;
* scheme reports must carry an empty brute-force ``diff`` and true axiom,
  orthogonality and Bose-Mesner flags;
* verify reports must give the generator's proved verdict, and every
  membership certificate y must satisfy y^T M = chi exactly, checked
  here with Fractions against the benchmark's own geometry;
* projection results must have ``all_images_cl_with_same_x`` true;
* an artifact with a recorded digest must match it (``wall_clock_s``
  stripped): ROADMAP's byte-identity rule.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from geom import Geometry


def _strip(doc):
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k != "wall_clock_s"}
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def digest(doc) -> str:
    text = json.dumps(_strip(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def certificate_errors(kset: dict, cert: dict) -> list[str]:
    """y^T M = chi over the lines of the k-set's geometry, with y given
    as rational strings keyed by point coordinates."""
    geo = Geometry(int(kset["q"]), kset["mode"])
    y = {tuple(int(c) for c in key.split(":")): Fraction(val)
         for key, val in cert.items()}
    if set(y) != set(geo.points):
        return ["certificate is not indexed by the points"]
    members = {tuple(tuple(r) for r in m) for m in kset["members"]}
    for line in geo.lines:
        chi = 1 if geo.basis[line] in members else 0
        if sum(y[p] for p in line) != chi:
            return [f"y^T M != chi on line {geo.basis[line]}"]
    return []


def _search_errors(doc, expect) -> list[str]:
    from clag import classify
    errs = []
    if doc.get("solution_count") != expect["solutions"]:
        errs.append(f"{doc.get('solution_count')} solutions, "
                    f"expected {expect['solutions']}")
    if not classify.verify_certificate(doc):
        errs.append("certificate fails classify.verify_certificate")
    return errs


def _scheme_errors(doc, expect) -> list[str]:
    bf = doc.get("brute_force") or {}
    errs = []
    if bf.get("diff") != []:
        errs.append("brute force missing or disagrees with the closed form")
    if bf.get("axioms") is not True:
        errs.append("scheme axioms fail")
    if doc.get("orthogonality") is not True:
        errs.append("P Q != |X| I")
    if not bf.get("bose_mesner") or not all(bf["bose_mesner"].values()):
        errs.append("a Bose-Mesner identity fails")
    return errs


def _verify_errors(doc, expect, kset) -> list[str]:
    errs = []
    if doc.get("is_cameron_liebler") is not expect["cl"]:
        errs.append(f"verdict {doc.get('is_cameron_liebler')}, "
                    f"proved {expect['cl']}")
    cert = doc.get("checks", {}).get("definitional", {}).get("certificate")
    if expect["cl"]:
        if cert is None:
            errs.append("accepted without a membership certificate")
        else:
            errs += certificate_errors(kset, cert)
    return errs


def _project_errors(doc, expect) -> list[str]:
    if doc.get("all_images_cl_with_same_x") is not True or \
            not doc.get("projections"):
        return ["a projected image is not Cameron-Liebler with the same x"]
    return []


def check_artifact(op: dict, doc: dict) -> list[str]:
    """What is wrong with one operation's artifact, beyond its digest."""
    expect = op["expect"]
    kind = expect["kind"]
    if kind == "search":
        return _search_errors(doc, expect)
    if kind == "scheme":
        return _scheme_errors(doc, expect)
    if kind == "verify":
        return _verify_errors(doc, expect, op["input"])
    return _project_errors(doc, expect)


class Gate:
    """Checks operations' outcomes; an artifact seen before (same
    operation, same digest) is not checked again.  `digests` maps
    operation names to recorded digests (None: compare none); those of
    seeded operations hold for the recording seed only."""

    def __init__(self, digests: dict | None, recording_seed: bool):
        self.digests = digests
        self.recording_seed = recording_seed
        self._seen: dict[tuple, list[str]] = {}

    def check(self, op: dict, outcome: dict, path) -> tuple[list[str], str | None]:
        """(errors, artifact digest) for one operation of one repetition."""
        if outcome.get("error"):
            return [f"raised: {outcome['error'].strip().splitlines()[-1]}"], None
        want_rc = 0 if op["expect"].get("cl", True) else 1
        errs = []
        if outcome.get("rc") != want_rc:
            errs.append(f"exit code {outcome.get('rc')}, expected {want_rc}")
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            return errs + [f"no readable artifact: {exc}"], None
        d = digest(doc)
        key = (op["name"], d)
        if key not in self._seen:
            self._seen[key] = check_artifact(op, doc)
        errs += self._seen[key]
        if self.digests is not None and (self.recording_seed
                                         or not op["seeded"]):
            want = self.digests.get(op["name"])
            if want is None:
                errs.append("no recorded digest")
            elif want != d:
                errs.append("artifact differs from the recorded digest")
        return errs, d
