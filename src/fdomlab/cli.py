"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cap,
budget or memory exceeded, 4 internal error (a construction or certificate
failed its own check).  Rationals are printed as num/den, never as decimals.
All randomness flows through --seed (default 0) into random.Random, a
Mersenne Twister, identical across platforms.  The environment variable
FDOMLAB_TIME_BUDGET_MS bounds the integral-chromatic searches.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .chromatic import (check_reduction, chromatic_number,
                        fractional_chromatic, fullness_check)
from .construct import (BadFamilyInput, construct52, intersecting_family,
                        planar_girth_construct)
from .distributions import (DominatingDistribution, FractionalColouring,
                            constant_demand, standard_demand,
                            verify_f_dominating)
from .domset import CapExceeded, domatic_number, domination_number
from .fdom import (DualCertificate, PrimalCertificate, certificate_from_json,
                   closed_form_certificate, fdom_colgen, fdom_exact,
                   sample_lnbound, verify_dual, verify_primal)
from .generators import check_named, generate_named
from .graphs import (Graph, GraphError, RationalError, mask_to_list,
                     read_graph_text, read_int, write_graph_text)
from .structure import hammocks

BAD_FAMILY_NAMES = {1: "C4", 2: "K2,3", 3: "C7", 4: "2C4", 5: "C7-chord",
                    6: "2C4-edge", 7: "C7-cross", 8: "C7-cross-chord"}

EXIT_OK, EXIT_VERIFY, EXIT_USAGE, EXIT_CAP, EXIT_INTERNAL = 0, 1, 2, 3, 4


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _load_graph(path: str | Path) -> Graph:
    return read_graph_text(Path(path).read_text())


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _budget_ms() -> int | None:
    raw = os.environ.get("FDOMLAB_TIME_BUDGET_MS")
    if not raw:
        return None
    if (ms := read_int(raw)) <= 0:
        raise GraphError(f"FDOMLAB_TIME_BUDGET_MS must be positive, got {ms}")
    return ms


#: default size caps, overridable with --caps key=value
DEFAULT_CAPS = {"enum": 20, "chi": 40}


def _caps(items: list[str] | None) -> dict[str, int]:
    caps = dict(DEFAULT_CAPS)
    for item in items or []:
        key, _, value = item.partition("=")
        if key not in caps or (cap := read_int(value)) <= 0:
            raise GraphError(f"bad cap override {item!r}")
        caps[key] = cap
    return caps


def _cmd_gen(args) -> int:
    g = generate_named(args.family, tuple(args.params))
    text = write_graph_text(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_fdom(args) -> int:
    g = _load_graph(args.input)
    cap = args.caps["enum"]
    res = fdom_colgen(g) if args.colgen or g.n > cap else fdom_exact(g, cap=cap)
    print(_rat(res.value))
    if args.out:
        _emit({"primal": res.primal.to_json(), "dual": res.dual.to_json()}, args.out)
    return EXIT_OK


def _cmd_gamma(args) -> int:
    g = _load_graph(args.input)
    gamma, witness = domination_number(g)
    print(gamma)
    print("witness:", " ".join(map(str, mask_to_list(witness))))
    return EXIT_OK


def _cmd_domatic(args) -> int:
    g = _load_graph(args.input)
    k, parts = domatic_number(g)
    print(k)
    for p in parts:
        print("part:", " ".join(map(str, mask_to_list(p))))
    return EXIT_OK


def _cmd_construct52(args) -> int:
    g = _load_graph(args.input)
    try:
        d = construct52(g)
    except BadFamilyInput as e:
        print(f"bad-family:{BAD_FAMILY_NAMES[e.member]}", file=sys.stderr)
        return EXIT_VERIFY
    _emit(d.to_json(Fraction(2, 5)), args.out)
    return EXIT_OK


def _cmd_planar(args) -> int:
    g = _load_graph(args.input)
    d = planar_girth_construct(g, args.k)
    _emit(d.to_json(Fraction(args.k, 3 * args.k - 1)), args.out)
    return EXIT_OK


def _set_out_of_range(obj, key: str, n: int) -> list[int] | None:
    """The sorted ids of the first of obj[key]'s sets that holds an id >= n,
    read from the raw JSON before any set becomes a bitmask (a bitmask
    takes memory in proportion to its highest id).  Malformed parts are
    skipped here and rejected by the loader."""
    items = obj.get(key) if isinstance(obj, dict) else None
    for item in items if isinstance(items, list) else ():
        ids = item.get("set") if isinstance(item, dict) else None
        ids = sorted(v for v in ids if type(v) is int) if isinstance(ids, list) else []
        if ids and ids[-1] >= n:
            return ids
    return None


def _cmd_verify(args) -> int:
    g = _load_graph(args.input)
    if args.primal:
        obj = json.loads(Path(args.primal).read_text())
        high = _set_out_of_range(obj, "columns", g.n)
        if high:
            print(f"invalid: column {high} has a vertex out of range for n={g.n}")
            return EXIT_VERIFY
        cert = certificate_from_json(obj)
        if not isinstance(cert, PrimalCertificate):
            raise ValueError("not a primal certificate")
        ok, why = verify_primal(g, cert)
        claim = f"fdom >= {_rat(cert.objective)}"
    elif args.dual:
        cert = certificate_from_json(json.loads(Path(args.dual).read_text()))
        if not isinstance(cert, DualCertificate):
            raise ValueError("not a dual certificate")
        ok, why = verify_dual(g, cert)
        claim = f"fdom <= {_rat(cert.value)}"
    elif args.colouring:
        phi = FractionalColouring.from_json(json.loads(Path(args.colouring).read_text()))
        ok, why = phi.check(g)
        claim = f"({phi.p}:{phi.q})-colouring, fdom >= {_rat(Fraction(phi.p, phi.q))}"
    elif args.distribution:
        obj = json.loads(Path(args.distribution).read_text())
        high = _set_out_of_range(obj, "atoms", g.n)
        if high:
            v = next(v for v in high if v >= g.n)
            print(f"invalid: vertex {v} out of range for n={g.n}")
            return EXIT_VERIFY
        d, r = DominatingDistribution.from_json(obj)
        demand = standard_demand(g) if args.demand == "standard" else constant_demand(Fraction(1))
        ok, why = verify_f_dominating(g, d, demand, r)
        claim = f"{_rat(r)}-dominating"
    else:
        raise ValueError("nothing to verify")
    print(f"valid: {claim}" if ok else f"invalid: {why}")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_reduce_s(args) -> int:
    g = _load_graph(args.input)
    rep = check_reduction(g)
    print(f"chi_f {_rat(rep.chi_f)}")
    print(f"fdom_split {_rat(rep.fdom_split)}")
    print(f"equivalence {'holds' if rep.equivalence_holds else 'FAILS'}")
    return EXIT_OK if rep.equivalence_holds else EXIT_VERIFY


def _cmd_chi(args) -> int:
    g = _load_graph(args.input)
    res = chromatic_number(g, cap=args.caps["chi"], time_budget_ms=_budget_ms())
    if res.exact:
        print(res.value)
        return EXIT_OK
    print(f"bounds [{res.lower},{res.upper}]")
    return EXIT_CAP


def _cmd_chif(args) -> int:
    g = _load_graph(args.input)
    res = fractional_chromatic(g)
    print(_rat(res.value))
    return EXIT_OK


def _cmd_fullness(args) -> int:
    g = _load_graph(args.input)
    rep = fullness_check(g, time_budget_ms=_budget_ms())
    chi = (str(rep.chi_square_lower) if rep.chi_square_lower == rep.chi_square_upper
           else f"[{rep.chi_square_lower},{rep.chi_square_upper}]")
    print(f"degree {rep.degree}")
    print(f"chi_square {chi}")
    print(f"chi_f_square {_rat(rep.chi_f_square)}")
    print(f"dom_full {rep.dom_full}")
    print(f"fdom_full {rep.fdom_full}")
    return EXIT_OK if rep.dom_full is not None else EXIT_CAP


def _cmd_sample(args) -> int:
    g = _load_graph(args.input)
    num, slash, den = args.p.partition("/")
    den = read_int(den) if slash else 1
    if den == 0:
        raise RationalError(f"zero denominator in {args.p!r}")
    rep = sample_lnbound(g, Fraction(read_int(num), den), args.trials, args.seed)
    print(f"all_dominating {rep.all_dominating}")
    print(f"max_frequency {_rat(rep.max_frequency)}")
    print(f"analytic_bound {_rat(rep.analytic_bound)}")
    return EXIT_OK if rep.all_dominating else EXIT_VERIFY


#: the graph-free certificate kinds: their parameters and the family they certify
CERT_PARAMS = {"girth6": (("n",), "girth6"),
               "kmn_dual": (("m", "n"), "complete_bipartite"),
               "kmn_primal": (("m", "n"), "complete_bipartite"),
               "hnd": (("n", "d"), "incidence")}


def _cmd_family_cert(args) -> int:
    if args.vertex is not None and args.kind != "neighbourhood":
        raise GraphError(f"--kind {args.kind} takes no --vertex")
    kw: dict = {}
    if args.kind in CERT_PARAMS:
        names, family = CERT_PARAMS[args.kind]
        if len(args.params) != len(names):
            raise GraphError(f"--kind {args.kind} takes the parameters {' '.join(names)}")
        kw = dict(zip(names, args.params))
        check_named(family, tuple(args.params))  # before the certificate is built
        target = (_load_graph(args.input) if args.input
                  else generate_named(family, tuple(args.params)))
    else:
        if args.params:
            raise GraphError(f"--kind {args.kind} takes no parameters")
        if args.input is None:
            raise GraphError(f"--kind {args.kind} needs --in")
        target = kw["g"] = _load_graph(args.input)
        if args.kind == "hammock":
            hs = hammocks(target)
            if not hs:
                raise GraphError("no hammock in input")
            kw["hammock"] = hs[0]
        if args.vertex is not None:
            kw["v"] = args.vertex
    cert = closed_form_certificate(args.kind, **kw)
    if isinstance(cert, DualCertificate):
        ok, why = verify_dual(target, cert)
        total = cert.total
    else:
        ok, why = verify_primal(target, cert)
        total = cert.objective
    _emit(cert.to_json(), args.out)
    print(f"total {_rat(total)}", file=sys.stderr)
    print("valid" if ok else f"invalid: {why}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_intersecting(args) -> int:
    rep = intersecting_family(args.a, args.b)
    print(f"t {rep.ground_size}")
    print(f"set_size {rep.set_size}")
    for key in ("a_pair_intersection", "b_cross_intersection"):
        print(key, "none" if getattr(rep, key) is None else getattr(rep, key))
    return EXIT_OK


def _cmd_corpus(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise GraphError(f"no directory {args.dir!r}")
    failures = 0
    rows = []
    for path in sorted(directory.glob("*.graph")):
        row: dict = {"file": path.name}
        try:
            g = _load_graph(path)
            row.update(n=g.n, m=g.m)
            if args.check == "construct52":
                d = construct52(g)
                row["atoms"] = len(d.atoms)
                row["pass"] = True
            else:
                value = fdom_exact(g, cap=args.caps["enum"]).value
                row["fdom"] = _rat(value)
                below = value < Fraction(5, 2)
                row["pass"] = below if args.check == "fdom<5/2" else not below
        except BadFamilyInput as e:
            row["pass"] = False
            row["error"] = f"bad-family:{BAD_FAMILY_NAMES[e.member]}"
        except CapExceeded as e:
            row["pass"] = False
            row["error"] = f"cap: {e}"
        except ValueError as e:  # a file that does not parse, or a graph the check refuses
            row["pass"] = False
            row["error"] = str(e)
        failures += not row["pass"]
        rows.append(row)
    print(json.dumps({"check": args.check, "results": rows,
                      "failures": failures}, indent=2, sort_keys=True))
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fdomlab",
                                 description="exact fractional-domatic toolkit")
    ap.add_argument("--version", action="version", version=f"fdomlab {__version__}")
    ap.add_argument("--caps", action="append", metavar="KEY=VALUE",
                    help="override a size cap (enum, chi)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named graph")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=read_int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("fdom", help="exact fractional domatic number")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--colgen", action="store_true")
    p.add_argument("--out", help="write certificate JSON here")
    p.set_defaults(fn=_cmd_fdom)

    p = sub.add_parser("gamma", help="exact domination number")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("domatic", help="exact domatic number")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(fn=_cmd_domatic)

    p = sub.add_parser("construct52", help="constructive 2/5-distribution")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_construct52)

    p = sub.add_parser("planar-construct", help="large-girth pipeline")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--k", type=read_int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_planar)

    p = sub.add_parser("verify", help="verify a certificate/colouring/distribution")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--primal")
    p.add_argument("--dual")
    p.add_argument("--colouring")
    p.add_argument("--distribution")
    p.add_argument("--demand", choices=["ones", "standard"], default="ones")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("reduce-s", help="split-construction reduction check")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(fn=_cmd_reduce_s)

    p = sub.add_parser("chi", help="exact chromatic number")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(fn=_cmd_chi)

    p = sub.add_parser("chif", help="exact fractional chromatic number")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(fn=_cmd_chif)

    p = sub.add_parser("fullness", help="dom-full / fdom-full report")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(fn=_cmd_fullness)

    p = sub.add_parser("sample-lnbound", help="random dominating-set sampler")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--p", required=True, help="inclusion probability num/den")
    p.add_argument("--trials", type=read_int, default=100000)
    p.add_argument("--seed", type=read_int, default=0)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("family-cert", help="closed-form certificate")
    p.add_argument("--kind", required=True,
                   choices=["neighbourhood", "uniform", "hammock", "girth6",
                            "kmn_dual", "kmn_primal", "hnd"])
    p.add_argument("params", nargs="*", type=read_int)
    p.add_argument("--in", dest="input")
    p.add_argument("--vertex", type=read_int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_family_cert)

    p = sub.add_parser("intersecting-family", help="the 2/5-intersecting family")
    p.add_argument("--a", type=read_int, required=True)
    p.add_argument("--b", type=read_int, required=True)
    p.set_defaults(fn=_cmd_intersecting)

    p = sub.add_parser("corpus", help="run a check over a directory of graphs")
    p.add_argument("--dir", required=True)
    p.add_argument("--check", required=True,
                   choices=["fdom<5/2", "fdom>=5/2", "construct52"])
    p.set_defaults(fn=_cmd_corpus)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        args.caps = _caps(args.caps)
        return args.fn(args)
    except (CapExceeded, MemoryError) as e:
        print(f"cap exceeded: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP
    except RuntimeError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (GraphError, ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
