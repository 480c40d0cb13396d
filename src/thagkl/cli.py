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
from .polynomials import IntPoly
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


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {value}")
    return value


def _at_most(limit: int):
    """An argparse type: a nonnegative integer no larger than ``limit``."""

    def parse(text: str) -> int:
        value = _nonneg(text)
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}: {value}")
        return value

    return parse


def _emit_json(kind: str, **fields) -> None:
    payload = {"schema": SCHEMA_VERSION, "kind": kind, **fields}
    print(json.dumps(payload, separators=(", ", ": ")))


def _schur_terms(f: SchurPoly) -> list[dict]:
    return [
        {"partition": list(lam), "coeffs": list(coeff.coeffs)}
        for lam, coeff in f.terms()
    ]


def _cmd_poly(args: argparse.Namespace) -> int:
    p = kl_poly(args.n)
    if args.format == "json":
        _emit_json("poly", n=args.n, coeffs=list(p.coeffs) or [0])
    else:
        print(p)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    rows = []
    for n in range(args.max + 1):
        p = kl_poly(n)
        for k in range(p.degree() + 1):
            rows.append((n, k, p[k]))
    if args.format == "json":
        _emit_json("table", max_n=args.max, rows=[{"n": n, "k": k, "c": c} for n, k, c in rows])
    elif args.format == "csv":
        print("n,k,c")
        for n, k, c in rows:
            print(f"{n},{k},{c}")
    else:
        for n in range(args.max + 1):
            print(f"P_{n}(t) = {kl_poly(n)}")
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
    entries = []
    for n in range(1, args.max + 1):
        entries.append({"n": n, "terms": _schur_terms(conjecture_poly(n))})
    if args.format == "json":
        _emit_json("table", max_n=args.max, entries=entries)
    else:
        for entry in entries:
            parts = ", ".join(
                f"s{term['partition']}: {IntPoly(term['coeffs'])}" for term in entry["terms"]
            )
            print(f"n={entry['n']}: {parts}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thagkl",
        description="Exact Kazhdan-Lusztig polynomials of thagomizer matroids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, *choices: str) -> None:
        p.add_argument("--format", choices=choices, default="text")

    p_poly = sub.add_parser("poly", help="print P_n(t)")
    p_poly.add_argument(
        "--n", type=_at_most(KL_INDEX_MAX), required=True, help=f"index, at most {KL_INDEX_MAX}"
    )
    add_format(p_poly, "text", "json")
    p_poly.set_defaults(func=_cmd_poly)

    p_table = sub.add_parser("table", help="coefficient triangle up to --max")
    p_table.add_argument(
        "--max", type=_at_most(KL_INDEX_MAX), required=True, help=f"largest index, at most {KL_INDEX_MAX}"
    )
    add_format(p_table, "text", "csv", "json")
    p_table.set_defaults(func=_cmd_table)

    p_dyck = sub.add_parser("dyck", help="long-ascent counts of Dyck paths")
    p_dyck.add_argument(
        "--n",
        type=_at_most(KL_INDEX_MAX),
        required=True,
        help=f"semilength, at most {KL_INDEX_MAX} ({MAX_ENUM_SEMILENGTH} for enum)",
    )
    p_dyck.add_argument("--k", type=_nonneg, default=None)
    p_dyck.add_argument("--method", choices=("enum", "dp", "closed"), default="dp")
    add_format(p_dyck, "text", "json")
    p_dyck.set_defaults(func=_cmd_dyck)

    p_flats = sub.add_parser("flats", help="lattice-of-flats census and polynomials")
    p_flats.add_argument(
        "--n",
        type=_at_most(MAX_LATTICE_RANK - 1),
        required=True,
        help=f"index, at most {MAX_LATTICE_RANK - 1}",
    )
    add_format(p_flats, "text", "json")
    p_flats.set_defaults(func=_cmd_flats)

    p_eq = sub.add_parser("equivariant", help="Schur expansion of the equivariant polynomial")
    p_eq.add_argument(
        "--n",
        type=_at_most(EQUIVARIANT_INDEX_MAX),
        required=True,
        help=f"index, at most {EQUIVARIANT_INDEX_MAX}",
    )
    add_format(p_eq, "text", "json")
    p_eq.set_defaults(func=_cmd_equivariant)

    p_conj = sub.add_parser("conjecture", help="closed-form candidate terms up to --max")
    p_conj.add_argument(
        "--max",
        type=_at_most(CONJECTURE_INDEX_MAX),
        required=True,
        help=f"largest index, at most {CONJECTURE_INDEX_MAX}",
    )
    add_format(p_conj, "text", "json")
    p_conj.set_defaults(func=_cmd_conjecture)

    p_verify = sub.add_parser("verify", help="run the full cross-check battery")
    p_verify.add_argument(
        "--max", type=_at_most(KL_INDEX_MAX), required=True, help=f"largest index, at most {KL_INDEX_MAX}"
    )
    p_verify.add_argument(
        "--corrupt",
        metavar="N,K",
        default=None,
        help="negative control: bump series coefficient (n, k) before checking",
    )
    add_format(p_verify, "text", "json")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
