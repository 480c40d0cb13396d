"""Command-line interface: parses arguments and renders results.

Subcommands expose every pipeline with deterministic text, CSV, or JSON
output (JSON payloads carry a "schema" version field).  The checks behind
``thagkl verify`` live in :mod:`thagkl.verify`.  Exit codes: 0 on success,
1 when a verification run finds a discrepancy, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from .dyck import (
    MAX_ENUM_SEMILENGTH,
    closed_form_row,
    count_by_ascents_dp,
    count_by_ascents_enum,
)
from .equivariant import conjecture_poly, eq_kl
from .flats import MAX_LATTICE_RANK, build_lattice, thagomizer_graph
from .kl import kl_poly
from .symfunc import SchurPoly
from .verify import corrupted_series, run_checks

SCHEMA_VERSION = 1

# Largest index accepted by `poly --n`, `table --max`, `dyck --n` and
# `verify --max`, by `equivariant --n`, and by `conjecture --max` (80 takes
# about a second and prints about 2 MB); `flats --n` stops where the
# thagomizer's rank n + 1 reaches MAX_LATTICE_RANK.
KL_INDEX_MAX = 300
EQUIVARIANT_INDEX_MAX = 22
CONJECTURE_INDEX_MAX = 80


def _at_most(limit: int | None = None):
    """An argparse type: a nonnegative integer, no larger than ``limit`` if given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be nonnegative: {value}")
        if limit is not None and value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}: {value}")
        return value

    return parse


def _emit_json(kind: str, **fields) -> None:
    payload = {"schema": SCHEMA_VERSION, "kind": kind, **fields}
    print(json.dumps(payload, separators=(", ", ": ")))


def _schur_terms(f: SchurPoly) -> list[dict]:
    return [{"partition": list(lam), "coeffs": list(coeff.coeffs)} for lam, coeff in f.terms()]


def _cmd_poly(args: argparse.Namespace) -> int:
    p = kl_poly(args.n)
    if args.format == "json":
        _emit_json("poly", n=args.n, coeffs=list(p.coeffs) or [0])
    else:
        print(p)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    polys = [kl_poly(n) for n in range(args.max + 1)]
    rows = [(n, k, c) for n, p in enumerate(polys) for k, c in enumerate(p.coeffs)]
    if args.format == "json":
        _emit_json("table", max_n=args.max, rows=[{"n": n, "k": k, "c": c} for n, k, c in rows])
    elif args.format == "csv":
        print("n,k,c")
        for n, k, c in rows:
            print(f"{n},{k},{c}")
    else:
        for n, p in enumerate(polys):
            print(f"P_{n}(t) = {p}")
    return 0


def _cmd_dyck(args: argparse.Namespace) -> int:
    counter = {
        "enum": count_by_ascents_enum,
        "dp": count_by_ascents_dp,
        "closed": closed_form_row,
    }[args.method]
    try:
        row = counter(args.n)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.k is None:
        dense = [row.get(k, 0) for k in range(max(row) + 1)] if row else [0]
        fields = {"n": args.n, "method": args.method, "counts": dense}
        text = " ".join(str(v) for v in dense)
    else:
        value = row.get(args.k, 0)
        fields = {"n": args.n, "k": args.k, "method": args.method, "value": value}
        text = str(value)
    if args.format == "json":
        _emit_json("table", **fields)
    else:
        print(text)
    return 0


def _cmd_flats(args: argparse.Namespace) -> int:
    lattice = build_lattice(thagomizer_graph(args.n))
    counts = lattice.rank_counts()
    chi = lattice.char_poly(lattice.flats[-1])
    if args.format == "json":
        _emit_json(
            "report",
            n=args.n,
            flat_counts_by_rank=counts,
            total_flats=len(lattice),
            char_poly=list(chi.coeffs),
            kl_poly=list(lattice.kl_poly().coeffs),
        )
    else:
        print(f"flats by rank: {' '.join(str(c) for c in counts)} (total {len(lattice)})")
        print(f"chi(t) = {chi}")
        print(f"P(t) = {lattice.kl_poly()}")
    return 0


def _cmd_equivariant(args: argparse.Namespace) -> int:
    p = eq_kl(args.n)
    if args.format == "json":
        _emit_json("schur", n=args.n, terms=_schur_terms(p))
    else:
        for lam, coeff in p.terms():
            print(f"s{list(lam)}: {coeff}")
        if p.is_zero():
            print("0")
    return 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    polys = [conjecture_poly(n) for n in range(1, args.max + 1)]
    if args.format == "json":
        entries = [{"n": n, "terms": _schur_terms(p)} for n, p in enumerate(polys, 1)]
        _emit_json("table", max_n=args.max, entries=entries)
    else:
        for n, p in enumerate(polys, 1):
            print(f"n={n}: " + ", ".join(f"s{list(lam)}: {coeff}" for lam, coeff in p.terms()))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    series = None
    if args.corrupt:
        try:
            n_str, _, k_str = args.corrupt.partition(",")
            series = corrupted_series(args.max + 1, int(n_str), int(k_str))
        except ValueError as exc:
            print(f"bad --corrupt argument {args.corrupt!r}: {exc}", file=sys.stderr)
            return 2
    checks = run_checks(args.max, series=series)
    ok = all(check.ok for check in checks)
    if args.format == "json":
        _emit_json("report", max_n=args.max, ok=ok, checks=[dataclasses.asdict(c) for c in checks])
    else:
        for check in checks:
            print(f"{'PASS' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    return 0 if ok else 1


# One row per subcommand: name and help; the index option, its limit and its
# help; the other options, in help order; formats; handler.
_COMMANDS = (
    ("poly", "print P_n(t)",
     "--n", KL_INDEX_MAX, f"index, at most {KL_INDEX_MAX}",
     (), ("text", "json"), _cmd_poly),
    ("table", "coefficient triangle up to --max",
     "--max", KL_INDEX_MAX, f"largest index, at most {KL_INDEX_MAX}",
     (), ("text", "csv", "json"), _cmd_table),
    ("dyck", "long-ascent counts of Dyck paths",
     "--n", KL_INDEX_MAX, f"semilength, at most {KL_INDEX_MAX} ({MAX_ENUM_SEMILENGTH} for enum)",
     (("--k", {"type": _at_most(), "default": None}),
      ("--method", {"choices": ("enum", "dp", "closed"), "default": "dp"})),
     ("text", "json"), _cmd_dyck),
    ("flats", "lattice-of-flats census and polynomials",
     "--n", MAX_LATTICE_RANK - 1, f"index, at most {MAX_LATTICE_RANK - 1}",
     (), ("text", "json"), _cmd_flats),
    ("equivariant", "Schur expansion of the equivariant polynomial",
     "--n", EQUIVARIANT_INDEX_MAX, f"index, at most {EQUIVARIANT_INDEX_MAX}",
     (), ("text", "json"), _cmd_equivariant),
    ("conjecture", "closed-form candidate terms up to --max",
     "--max", CONJECTURE_INDEX_MAX, f"largest index, at most {CONJECTURE_INDEX_MAX}",
     (), ("text", "json"), _cmd_conjecture),
    ("verify", "run the full cross-check battery",
     "--max", KL_INDEX_MAX, f"largest index, at most {KL_INDEX_MAX}",
     (("--corrupt", {"metavar": "N,K", "default": None,
                     "help": "negative control: bump series coefficient (n, k) before checking"}),),
     ("text", "json"), _cmd_verify),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thagkl",
        description="Exact Kazhdan-Lusztig polynomials of thagomizer matroids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, about, index, limit, index_help, options, formats, handler in _COMMANDS:
        p = sub.add_parser(name, help=about)
        p.add_argument(index, type=_at_most(limit), required=True, help=index_help)
        for flag, settings in options:
            p.add_argument(flag, **settings)
        p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
