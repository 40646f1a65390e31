"""Command-line front end: invariant listings, golden-data verification,
key-constant reports and the double-point classifier."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import classify as classify_mod
from . import congruence, distpoly, envres
from .poly import ParseError, Polynomial, VarTable, parse
from .rootsys import Spec, supported_splits
from .solvelist import RuleCache

USAGE_ERROR = 2
VERIFY_ERROR = 1


class UsageError(Exception):
    """A usage error found inside a command; :func:`main` reports it."""


def _usage_error(message: str) -> int:
    """Report a usage error on one stderr line, each line break in it (from a
    name read off an input file) written as ``\\n``; the command then exits 2."""
    print("error: " + "\\n".join(message.splitlines()), file=sys.stderr)
    return USAGE_ERROR


def _rule_cache(args) -> RuleCache:
    """The rule cache at --cache-dir (else $CACHE_DIR), its directory made."""
    cache = RuleCache(args.cache_dir)
    try:
        cache.directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use {cache.directory} as the rule cache directory: "
                         f"{exc.strerror or exc}") from exc
    return cache


def _emit(pairs: list[tuple[str, Polynomial]], fmt: str, out) -> None:
    if fmt == "json":
        payload = {name: p.to_json() for name, p in pairs}
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        for name, p in pairs:
            out.write(f"{name} = {p.serialize()}\n")


def coordinates_for(args) -> list[tuple[str, Polynomial]]:
    """The standard coordinates of ``--type``; only a versal type opens the rule cache."""
    spec = Spec.from_name(args.type)
    if envres.from_versal(spec):
        return list(envres.versal_coeffs(spec.n, _rule_cache(args)).items())
    coords = distpoly.standard_coords(spec)
    return [(nm, poly.compact()) for nm, poly in coords.items()]


def cmd_invariants(args) -> int:
    try:
        pairs = coordinates_for(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    _emit(pairs, args.format, sys.stdout)
    return 0


def load_golden(name: str, table: VarTable) -> dict[str, tuple[int, Polynomial]]:
    text = (Path(__file__).with_name("golden") / f"{name}.txt").read_text(encoding="utf-8")
    out: dict[str, tuple[int, Polynomial]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, body = line.split(":=", 1)
        nm, mult = head.split()
        out[nm] = (int(mult), parse(body.strip(), table))
    return out


def _report(lines: list[tuple[str, bool]], out) -> int:
    ok = True
    for label, passed in lines:
        out.write(f"{label}: {'PASS' if passed else 'FAIL'}\n")
        ok = ok and passed
    return 0 if ok else VERIFY_ERROR


def verify_appendix(n: int, cache: RuleCache, out) -> int:
    golden = load_golden(f"appendix{1 if n == 6 else 2}", envres.pipeline_table(n))
    lines = []
    for nm, got in envres.versal_coeffs(n, cache).items():
        mult, want = golden[nm]
        lines.append((f"appendix E{n} {nm} (x{mult})", mult * got == want))
    return _report(lines, out)


def verify_appendix0(out) -> int:
    golden = load_golden("appendix0", envres.pipeline_table(8))
    gens = envres.good_gens_bar(8)
    lines = [
        ("appendix0 Wb", gens.Wb == golden["Wb"][1]),
        ("appendix0 Zb", gens.Zb == golden["Zb"][1]),
        ("appendix0 Yb (derived sextic)", gens.Yb == golden["Yb"][1]),
    ]
    return _report(lines, out)


def verify_identities(out) -> int:
    lines = []
    for n in range(2, 10):
        d = distpoly.pq_split(n)
        Z = d.g.table.var("Z")
        lines.append((f"D{n}: g == Z*P^2 + Q^2", d.g == Z * d.P ** 2 + d.Q ** 2))
        lines.append((f"D{n}: G has degree n-2 in U", max(d.G.coeffs_in("U")) == n - 2))
    rep = distpoly.e45_check()
    for nm, okv in rep.matches.items():
        lines.append((f"shifted re-derivation {nm}", okv))
    return _report(lines, out)


def verify_relations(out) -> int:
    lines = []
    for name in ["A2", "A3", "A4", "A5", "A6", "A7", "A8", "D2", "D3", "D4", "D5",
                 "D6", "D7", "D8", "E3", "E4", "E5", "E6", "E7", "E8"]:
        spec = Spec.from_name(name)
        for k in supported_splits(spec):
            rep = congruence.dist_relation(spec, k)
            lines.append((f"relation {name} at v{k}", rep.ok))
    return _report(lines, out)


def cmd_verify(args) -> int:
    # argparse has already restricted the target to these five
    target = args.target
    if target == "appendix0":
        return verify_appendix0(sys.stdout)
    if target == "identities":
        return verify_identities(sys.stdout)
    if target == "relations":
        return verify_relations(sys.stdout)
    return verify_appendix(6 if target == "appendix1" else 7, _rule_cache(args), sys.stdout)


def cmd_congruence(args) -> int:
    labels = [c.label for c in congruence.KEY_CASES] if args.all else [args.case]
    if not all(labels):
        return _usage_error("provide --case E7:v2 or --all")
    try:
        cases = [congruence.key_case(label) for label in labels]
    except KeyError as exc:
        return _usage_error(exc.args[0])
    if args.jobs < 1:
        return _usage_error(f"--jobs must be at least 1, got {args.jobs}")
    cache = _rule_cache(args)
    fmt = lambda t: ", ".join(str(c) for c in t) if t else "none"
    ok = True
    for case in cases:
        res = congruence.key_constant(case, cache)
        ok = ok and res.ok
        print(f"{case.label:7s} length {case.length}  expected {fmt(res.expected):18s} "
              f"computed {fmt(res.computed):18s} {'PASS' if res.ok else 'FAIL'}")
    return 0 if ok else VERIFY_ERROR


def _profile_order(name: str, value) -> "int | float":
    """A vanishing order from a profile file: a JSON integer >= 1, or "inf"."""
    if value == "inf":
        return float("inf")
    if type(value) is not int or value < 1:  # a JSON true is an int to Python
        raise ValueError(f'order of {name} must be an integer >= 1 or "inf", '
                         f"got {json.dumps(value)}")
    return value


def cmd_classify(args) -> int:
    if args.poly_file and args.profile_file:
        return _usage_error("give --poly-file or --profile-file, not both")
    if args.jet_order < 0:
        return _usage_error(f"--jet-order must be nonnegative, got {args.jet_order}")
    if args.poly_file:
        table = VarTable(["X", "Y", "Z"], [1, 1, 1])
        try:
            poly = parse(Path(args.poly_file).read_text().strip(), table)
        except (OSError, ValueError, ParseError) as exc:  # a number past int's digit limit too
            return _usage_error(str(exc))
        try:
            result = classify_mod.rdp_type(poly, jet_order=args.jet_order)
        except classify_mod.UndecidableError as exc:
            print(f"undecidable: {exc}", file=sys.stderr)
            return VERIFY_ERROR
        except (classify_mod.NotRDPError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return VERIFY_ERROR
        print(result.name)
        return 0
    if args.profile_file:
        try:
            data = json.loads(Path(args.profile_file).read_text())
            orders = {k: _profile_order(k, v) for k, v in data["orders"].items()}
            profile = classify_mod.ValuationProfile(data["type"], orders)
            bound = classify_mod.section_type(profile)  # rejects an unknown type
            known = congruence.scf_names(Spec.from_name(data["type"]))
            unknown = [name for name in orders if name not in known]
            if unknown:
                raise ValueError(f"{data['type']} has no coefficient {', '.join(unknown)}")
        except (OSError, AttributeError, LookupError, TypeError, ValueError) as exc:
            return _usage_error(f"bad profile file: {exc}")
        if bound.decided:
            witness = ""
            if bound.witness:
                name, order = bound.witness
                monomials = classify_mod.VERSAL_MONOMIALS.get(data["type"], {})
                ypow, zpow = monomials.get(name.rstrip("t"), (None, None))
                if ypow is not None:
                    mono = "*".join(
                        [f"T^{order}" if order > 1 else "T"]
                        + (["Y" if ypow == 1 else f"Y^{ypow}"] if ypow else [])
                        + (["Z" if zpow == 1 else f"Z^{zpow}"] if zpow else []))
                    witness = f" (witness {mono} from {name})"
                else:
                    witness = f" (witness {name} at order {order})"
            print(f"at worst {bound.column}{witness}")
        else:
            print("no bound derived")
        return 0
    return _usage_error("provide --poly-file or --profile-file")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rdpinv",
        description="Exact Weyl-invariant coordinates and versal forms for "
                    "ADE rational double points")
    parser.add_argument("--cache-dir",
                        help="directory for expanded-rule caching (default: $CACHE_DIR, "
                             "else ~/.cache/rdpinv)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="emit standard coordinate functions")
    p_inv.add_argument("--type", required=True, help="root-system type, e.g. E6 or D4")
    p_inv.add_argument("--format", choices=["text", "json"], default="text")
    p_inv.set_defaults(func=cmd_invariants)

    p_ver = sub.add_parser("verify", help="golden-data and identity verification")
    p_ver.add_argument("target",
                       choices=["appendix0", "appendix1", "appendix2",
                                "identities", "relations"])
    p_ver.set_defaults(func=cmd_verify)

    p_con = sub.add_parser("congruence", help="key-constant verification table")
    p_con.add_argument("--case", help="one case label, e.g. E7:v2")
    p_con.add_argument("--all", action="store_true")
    p_con.add_argument("--jobs", type=int, default=1)
    p_con.set_defaults(func=cmd_congruence)

    p_cls = sub.add_parser("classify", help="double-point type from an equation or profile")
    p_cls.add_argument("--poly-file", help="file with one polynomial in X, Y, Z")
    p_cls.add_argument("--profile-file", help="JSON file with type and vanishing orders")
    p_cls.add_argument("--jet-order", type=int, default=10)
    p_cls.set_defaults(func=cmd_classify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
