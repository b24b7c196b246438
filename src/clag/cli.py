"""Command-line surface.

Exit codes: 0 success, 1 mathematical-check failure, 2 usage or input
error.  All numeric output is rendered as exact rational strings, the
PRNG seed is recorded in every artifact, and artifacts are byte-stable
across reruns (wall-clock timing is embedded only with search --timing,
an option of search alone).  CLAG_SIZE_GUARD overrides the entry guard
(default 10**7) of every enumeration of subspaces (so a k-set file of a
geometry too large to enumerate exits 2 at once), of relation matrices,
of the point lists that membership, pencils, spreads and projections
read, of the point marks that disjointness checks and scheme relations
gather and the meet matrices the relations read, of the dense
incidence matrix that the search's tableau builds, and of every pencil
plan the search builds, read on every access; the search's k-space cap
is --cap.  A CLAG_SIZE_GUARD that is not a non-negative decimal integer
exits 2 when it is first read; an empty one keeps the default.

The argument parser is built once per process, on the first call of
`main`; each parsed command runs the `cmd_*` function bound in this
module at that moment.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import classify, clsets, scheme, spreads
from .galois import DegreeOutOfRange, NotPrime
from .geometry import (BadGuardValue, DimensionOutOfRange, SizeGuard,
                       Subspace, ambient, make_subspace)
from .incidence import certificate_to_json


def _parse_rows(text: str, n: int, q: int) -> Subspace:
    """Subspace literal: rows separated by ';', coordinates by ':'.
    A single row is a point, e.g. "0:0:0:1"."""
    rows = []
    for row in text.split(";"):
        rows.append([int(v) for v in row.strip().split(":")])
    return make_subspace(n, q, rows)


def _emit(doc: dict, args) -> None:
    if not getattr(args, "timing", False):
        doc.pop("wall_clock_s", None)
    doc.setdefault("seed", getattr(args, "seed", 0))
    text = json.dumps(doc, indent=2, sort_keys=False) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _fmt_table(matrix) -> str:
    rows = [[str(v) for v in row] for row in matrix]
    width = max(len(v) for row in rows for v in row)
    return "\n".join("  ".join(v.rjust(width) for v in row) for row in rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_scheme(args) -> int:
    kind = "affine_hyperplanes" if args.hyperplanes else "affine_lines"
    report = scheme.scheme_report(args.n, args.q, kind,
                                  brute_force=args.brute_force)
    report["seed"] = args.seed
    if args.format == "table":
        print(f"{kind} scheme of AG({args.n},{args.q}): |X| = {report['size']}")
        print("P =")
        print(_fmt_table(report["P"]))
        print("Q =")
        print(_fmt_table(report["Q"]))
    if args.format == "json" or args.out:
        _emit(report, args)
    mismatch = bool(report.get("brute_force")
                    and report["brute_force"].get("diff"))
    if mismatch and not args.allow_diff:
        print("closed form and brute force disagree", file=sys.stderr)
        return 1
    return 0


def _read_kset(path: str) -> clsets.KSet | None:
    """The k-set in file `path`, or None once the reason it is
    malformed is printed."""
    try:
        with open(path) as fh:
            return clsets.kset_from_json(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"malformed k-set file {path}: {exc}", file=sys.stderr)
        return None


def cmd_verify(args) -> int:
    l = _read_kset(args.set)
    if l is None:
        return 2
    ok, cert = clsets.is_cameron_liebler(l)
    report = {
        "input": args.set,
        "n": l.space.n, "q": l.space.q, "k": l.k, "mode": l.space.mode,
        "size": l.size, "x": str(l.x),
        "checks": {
            "integrality": {"status": "pass" if l.x.denominator == 1
                            else "fail"},
            "definitional": {"status": "pass" if ok else "fail"},
        },
        "is_cameron_liebler": ok,
        "seed": args.seed,
    }
    if ok and cert is not None:
        report["checks"]["definitional"]["certificate"] = \
            certificate_to_json(l.space, cert)
    if args.all_checks:
        checks = report["checks"]
        if l.space.mode == "affine":
            # a type II spread is a parallel class: its count is that of
            # the pencil of its part at infinity
            counts = clsets.infinite_pencil_counts(l)
            r = clsets.check_spread_intersections(l, counts)
            checks["spread_intersections_type_II"] = \
                {"status": r.status, **r.details}
            if l.k == 1:
                pis, taus = spreads.type_III_choices(l.space, 1)
                exhaustive = pis * taus ** l.space.q <= 200
                sample = () if exhaustive else (60, args.seed)
                keys = spreads.type_III_keys(l.space, 1, *sample)
                r = clsets.check_spread_intersections(
                    l, clsets.type_III_counts(l, keys))
                checks["spread_intersections_type_III"] = \
                    {"status": r.status, "spreads": len(keys),
                     "mode": "sampled" if sample else "exhaustive"}
                r = clsets.check_line_disjointness(l)
                checks["line_disjointness"] = {"status": r.status, **r.details}
            if len(counts) >= 2:
                # two parallel classes share no k-space: they are the
                # switching pair of the first two
                r = clsets.check_switching_invariance(l, *counts[:2])
                checks["switching_invariance"] = {"status": r.status, **r.details}
        else:
            r = clsets.check_pg_disjointness(l)
            checks["pg_disjointness"] = {"status": r.status, **r.details}
    _emit(report, args)
    return 0 if ok else 1


def cmd_search(args) -> int:
    try:
        cert = classify.search_cl_ksets(args.n, args.q, args.k, args.x,
                                        cap=args.cap, seed=args.seed,
                                        timing=args.timing)
    except classify.ScaleExceeded as exc:
        print(f"scale exceeded: {exc}", file=sys.stderr)
        return 2
    _emit(cert, args)
    return 0


def cmd_spread(args) -> int:
    n, q = args.n, args.q
    try:
        if args.type == 1:
            s = spreads.spread_type_I(n, q, 1 if args.k is None else args.k)
            if args.affine:
                s = spreads.restrict_to_affine(s)
        elif args.type == 2:
            if not args.at_infinity:
                print("--type 2 needs --at-infinity", file=sys.stderr)
                return 2
            space = ambient(n, q, "affine")
            axis = _parse_rows(args.at_infinity, n, q)
            s = spreads.spread_type_II(space, axis)
        else:
            if not (args.pi and args.choices):
                print("--type 3 needs --pi and --choices", file=sys.stderr)
                return 2
            space = ambient(n, q, "affine")
            pi = _parse_rows(args.pi, n, q)
            choices = [_parse_rows(c, n, q) for c in args.choices.split("|")]
            s = spreads.spread_type_III(space, pi, choices)
        if args.k not in (None, s.k):
            raise spreads.WrongDimension(f"--k {args.k}, but k = {s.k}")
    except (spreads.SpreadError, ValueError) as exc:
        print(f"spread construction failed: {exc}", file=sys.stderr)
        return 2
    doc = s.to_json()
    ok, reason = spreads.is_spread(s.members, s.space, s.k)
    doc["verified"] = ok
    doc["size"] = len(s)
    _emit(doc, args)
    return 0 if ok else 1


def cmd_project(args) -> int:
    l = _read_kset(args.set)
    if l is None:
        return 2
    try:
        axis = _parse_rows(args.axis, l.space.n, l.space.q)
        pi = (_parse_rows(args.pi, l.space.n, l.space.q)
              if args.pi else None)
    except (TypeError, ValueError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    try:
        img = clsets.project_through_infinite_subspace(l, axis, pi)
    except (clsets.NotSkew, clsets.DimensionViolation) as exc:
        print(f"projection not admissible: {exc}", file=sys.stderr)
        return 2
    ok, _ = clsets.is_cameron_liebler(img)
    doc = clsets.kset_to_json(img)
    doc["source"] = args.set
    doc["source_x"] = str(l.x)
    doc["x"] = str(img.x)
    doc["is_cameron_liebler"] = ok
    doc["same_parameter"] = img.x == l.x
    _emit(doc, args)
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The `clag` argument parser, built on the first call and shared
    by every later one."""
    parser = argparse.ArgumentParser(
        prog="clag",
        description="Cameron-Liebler sets, spreads and association "
                    "schemes in small affine/projective geometries")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="PRNG seed recorded in artifacts")
    common.add_argument("--out")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scheme", parents=[common],
                       help="association-scheme tables and reports")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--hyperplanes", action="store_true",
                   help="the 2-class hyperplane scheme instead of lines")
    p.add_argument("--brute-force", action="store_true",
                   help="validate closed forms against the geometry")
    p.add_argument("--allow-diff", action="store_true",
                   help="exit 0 even when brute force disagrees")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("verify", parents=[common], help="verify a k-set file")
    p.add_argument("--set", required=True)
    p.add_argument("--all-checks", action="store_true")

    p = sub.add_parser("search", parents=[common], help="classify Cameron-Liebler k-sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--cap", type=int, default=None,
                   help="override the k-space count cap")
    p.add_argument("--timing", action="store_true", help="embed run timings")

    p = sub.add_parser("spread", parents=[common], help="construct and verify a spread")
    p.add_argument("--type", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, help="member dimension; type 1 defaults to 1")
    p.add_argument("--affine", action="store_true",
                   help="restrict a type 1 spread to the affine space")
    p.add_argument("--at-infinity",
                   help="axis subspace, rows ';'-separated, coords ':'")
    p.add_argument("--pi", help="(n-2)-space at infinity for type 3")
    p.add_argument("--choices",
                   help="type 3 tau list, subspaces separated by '|'")

    p = sub.add_parser("project", parents=[common], help="project a k-set through infinity")
    p.add_argument("--set", required=True)
    p.add_argument("--axis", required=True,
                   help="i-space at infinity, subspace literal")
    p.add_argument("--pi", help="target (n-i-1)-space; canonical if omitted")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # read at each call, so a rebound cmd_* (a tracer's) is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (SizeGuard, BadGuardValue) as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 2
    except (NotPrime, DegreeOutOfRange) as exc:
        print(f"unsupported field: {exc}", file=sys.stderr)
        return 2
    except DimensionOutOfRange as exc:
        print(f"unsupported dimension: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
