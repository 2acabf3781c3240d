"""Command-line front end.

Subcommands: construct, verify, scan, search, selftest.  With --json,
stdout carries exactly one JSON document, laid out by the one rule in
starters (_at, _object, _array), and diagnostics go to stderr.  Exit
codes: 0 success / verified, 1 verification-negative or nothing found,
2 invalid parameters or hypothesis violation, 3 search timeout.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Iterable

from . import constructions, search
from .constructions import CoverageFailure
from .search import SearchTimeout
from .starters import (
    _array,
    _at,
    _key,
    _object,
    _recipe_value,
    classify,
    Starter,
    starter_from_json,
    starter_to_json,
    verify_starter,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3


class UsageError(ValueError):
    pass


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    """Inline pair syntax: "a,b;c,d;..."."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UsageError(f"bad pair {chunk!r}, expected lo,hi")
        pairs.append((int(parts[0]), int(parts[1])))
    return pairs


def _refuse_unused(args: argparse.Namespace, names: Iterable[str], context: str) -> None:
    """Refuse, naming it, the first of names given: it would be ignored."""
    for name in names:
        if getattr(args, name) is not None:
            raise UsageError(f"{context} takes no --{name}")


def _print_starter_human(s: Starter) -> None:
    cls = s.classification or classify(s)
    pairs = s.pairs
    print(f"modulus {s.modulus}: {len(pairs)} pairs")
    recipe = _recipe_value(s)
    if recipe is not None:
        shown = {k: v for k, v in recipe.items() if v is not None}
        print(f"recipe: {shown}")
    print(
        "verdicts: starter={} strong={} skolem={} cardioidal={}".format(
            cls.is_starter, cls.is_strong, cls.is_skolem, cls.is_cardioidal
        )
    )
    for name, witness in cls.witnesses.items():
        print(f"witness[{name}]: {witness}")
    # Skolem starters read best sorted by their realized difference.
    if cls.is_skolem:
        ordered = sorted(pairs, key=lambda pr: pr.hi - pr.lo)
        for pr in ordered:
            print(f"  d={pr.hi - pr.lo}: ({pr.lo}, {pr.hi})")
    else:
        for pr in pairs:
            print(f"  ({pr.lo}, {pr.hi})")


# Each method's parameters, in the order its recipe function takes them.
_METHODS = {
    "horton": ("p", "beta"),
    "qr": ("p", "beta"),
    "cyclotomic": ("p", "k", "beta"),
    "prime-power": ("p", "n", "beta"),
    "prime-power-cyclotomic": ("p", "k", "n", "beta"),
    "pq": ("p", "q", "beta"),
    "pq-cyclotomic": ("p", "q", "k", "beta"),
}


def _run_construct(args: argparse.Namespace) -> int:
    names = _METHODS[args.method]
    unused = [name for name in ("q", "n", "k") if name not in names]
    _refuse_unused(args, unused, f"--method {args.method}")
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        raise UsageError(f"--method {args.method} requires --{missing[0]}")
    build = getattr(constructions, args.method.replace("-", "_") + "_starter")
    starter = build(*(getattr(args, name) for name in names))
    if args.out or args.json:
        text = starter_to_json(starter)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    if args.json:
        print(text)
    elif not args.out:
        _print_starter_human(starter)
    else:
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    if args.infile:
        _refuse_unused(args, ("modulus", "pairs"), "verify --in")
        with open(args.infile, encoding="utf-8") as fh:
            starter = starter_from_json(fh.read())
    else:
        if args.modulus is None or args.pairs is None:
            raise UsageError("verify needs --in FILE or both --modulus and --pairs")
        starter = Starter.from_pairs(args.modulus, _parse_pairs(args.pairs))
    cls = classify(starter)
    starter = starter.with_metadata(recipe=starter.recipe, classification=cls)
    if args.json:
        print(starter_to_json(starter))
    else:
        _print_starter_human(starter)
    verified = cls.is_starter and cls.is_strong and cls.is_skolem
    return EXIT_OK if verified else EXIT_NEGATIVE


# How _array opens an array at "  ", separates its items and closes it.
_OPEN, _SEPARATOR, _CLOSE = _array(["\0", "\0"], "  ").split("\0")


def _report(template: str, values: tuple[Any, ...], items: list[str]) -> str:
    """template % (*values, _array(items, "  ")), for a report template
    whose last member is an array, written by one str.join: the items'
    text is copied once, into the report."""
    if not items:
        return template % (*values, "[]")
    head, tail = template.rsplit("%s", 1)
    parts = [_SEPARATOR] * (2 * len(items) + 1)
    parts[0] = head % values + _OPEN
    parts[1::2] = items
    parts[-1] = _CLOSE + tail
    return "".join(parts)


_SCAN_JSON = _object(("kind", "bound", "hits"), "")
_HIT_JSON = _object(("params", "certificates"), "    ")


def _scan_json(report: search.ScanReport) -> str:
    """_at(report.to_dict(), ""), written by _report: each hit fills
    the template of its keys, made once per key layout, with an int
    written by str and any other value by _at."""
    layouts: dict[tuple[tuple[str, ...], tuple[str, ...]], str] = {}
    hits = []
    for params, certificates in report.hits:
        keys = (tuple(params), tuple(certificates))
        layout = layouts.get(keys)
        if layout is None:
            # _HIT_JSON's own keys hold no "%", so the filled template is one.
            layout = _HIT_JSON % tuple([_object(tuple(map(_key, k)), "      ") for k in keys])
            # Equal keys of other types (1 and True, 0.0 and -0.0) are written
            # apart, so only a layout of str keys is shared.
            if all(type(key) is str for key in (*keys[0], *keys[1])):
                layouts[keys] = layout
        values = (*params.values(), *certificates.values())
        hits.append(layout % tuple([v if type(v) is int else _at(v, "        ") for v in values]))
    return _report(_SCAN_JSON, (_at(report.kind, "  "), _at(report.bound, "  ")), hits)


def _run_scan(args: argparse.Namespace) -> int:
    if args.kind == "qr-primes":
        _refuse_unused(args, ("k",), "scan --kind qr-primes")
        report = search.scan_qr_primes(args.limit)
    elif args.kind == "cyclotomic-primes":
        if args.k is None:
            raise UsageError("scan --kind cyclotomic-primes requires --k")
        report = search.scan_cyclotomic_primes(args.k, args.limit)
    else:
        mode = "cyclotomic" if args.k is not None else "qr"
        report = search.scan_pq_pairs(args.limit, mode=mode, k=args.k)
    if args.json:
        print(_scan_json(report))
    else:
        print(f"{report.kind} up to {report.bound}: {len(report.hits)} hit(s)")
        for hit in report.hits:
            print(f"  {hit.params} {hit.certificates}")
    return EXIT_OK if report.hits else EXIT_NEGATIVE


_SEARCH_JSON = _object(("modulus", "require_strong", "found", "starters"), "")


def _run_search(args: argparse.Namespace) -> int:
    found = search.exhaustive_skolem_search(
        args.modulus,
        require_strong=args.strong,
        find_all=args.all,
        timeout=args.timeout,
    )
    if args.json:
        # Each starter document, laid out at the depth of its place in the array.
        docs = [starter_to_json(s.with_metadata(classification=classify(s))).replace("\n", "\n    ")
                for s in found]
        print(_report(_SEARCH_JSON, (_at(args.modulus, "  "), _at(args.strong, "  "), len(found)), docs))
    elif found:
        for s in found:
            _print_starter_human(s)
    else:
        kind = "strong Skolem" if args.strong else "Skolem"
        print(f"no {kind} starter for modulus {args.modulus}: nonexistent (exhausted)")
    return EXIT_OK if found else EXIT_NEGATIVE


# The 9-pair strong Skolem starter for Z_19; doubles as the golden
# verification fixture (all four verdicts true).
Z19_FIXTURE = (
    (17, 18), (2, 4), (3, 6), (11, 15), (9, 14),
    (7, 13), (5, 12), (8, 16), (1, 10),
)


def _selftest_fixtures() -> list[tuple[str, bool]]:
    results = []

    z19 = Starter.from_pairs(19, Z19_FIXTURE)
    results.append(("z19 fixture verifies all four", classify(z19).all_four))

    corrupted = Starter.from_pairs(19, ((16, 18),) + Z19_FIXTURE[1:])
    ok, witness = verify_starter(corrupted)
    results.append(("corrupted z19 fixture is rejected", not ok and witness is not None))

    s11 = constructions.qr_starter(11, 2)
    results.append(
        (
            "qr construction at 11",
            classify(s11).all_four
            and {(pr.lo, pr.hi) for pr in s11.pairs}
            == {(1, 2), (3, 6), (4, 8), (5, 10), (7, 9)},
        )
    )

    s19 = constructions.qr_starter(19, 2)
    from .starters import negate_starter

    results.append(
        ("qr construction at 19 negates onto the fixture", negate_starter(s19) == z19)
    )

    pp = constructions.prime_power_starter(11, 2, 2)
    results.append(
        ("prime-power construction at 11^2", len(pp.pairs) == 60 and classify(pp).all_four)
    )

    pq = constructions.pq_starter(11, 19, 2)
    results.append(
        ("two-prime construction at 11*19", len(pq.pairs) == 104 and classify(pq).all_four)
    )

    tri = classify(Starter.from_pairs(3, [(1, 2)]))
    results.append(
        (
            "modulus 3 doubling pair is Skolem but not strong",
            tri.is_starter and tri.is_skolem and tri.is_cardioidal and not tri.is_strong,
        )
    )

    root = search.find_common_primitive_root(281, 617)
    results.append(
        (
            "negation certificate at (281, 617)",
            constructions.check_minus_one_coset(281, 617, 3, root),
        )
    )

    return results


def _run_selftest(_: argparse.Namespace) -> int:
    results = _selftest_fixtures()
    passed = 0
    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        passed += ok
    print(f"passed {passed}/{len(results)}")
    return EXIT_OK if passed == len(results) else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skolem-starters",
        description="Construct, verify and search strong Skolem starters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a starter from a named recipe")
    c.add_argument("--method", required=True, choices=sorted(_METHODS))
    c.add_argument("--p", type=int)
    c.add_argument("--q", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--k", type=int)
    c.add_argument("--beta", default="2", help="2, 2inv, or an explicit residue")
    c.add_argument("--out", help="write the starter JSON to this file")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_run_construct)

    v = sub.add_parser("verify", help="classify a starter from file or inline pairs")
    v.add_argument("--in", dest="infile", help="starter JSON file")
    v.add_argument("--modulus", type=int)
    v.add_argument("--pairs", help="inline pairs: a,b;c,d;...")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_run_verify)

    s = sub.add_parser("scan", help="scan for admissible primes or prime pairs")
    s.add_argument(
        "--kind", required=True, choices=["qr-primes", "cyclotomic-primes", "pq-pairs"]
    )
    s.add_argument("--k", type=int)
    s.add_argument("--limit", type=int, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_run_scan)

    x = sub.add_parser("search", help="exhaustive Skolem-starter search at one modulus")
    x.add_argument("--modulus", type=int, required=True)
    x.add_argument("--strong", action="store_true")
    x.add_argument("--all", action="store_true")
    x.add_argument("--timeout", type=float, default=60.0)
    x.add_argument("--json", action="store_true")
    x.set_defaults(func=_run_search)

    t = sub.add_parser("selftest", help="run the embedded golden fixtures")
    t.set_defaults(func=_run_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (CoverageFailure, ValueError, OSError, MemoryError) as exc:
        # The library's other refusals are all ValueErrors.  A MemoryError (a
        # scan walk that cannot be allocated) usually has an empty message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
