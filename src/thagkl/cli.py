"""Command-line interface.

Subcommands expose every pipeline with deterministic text, CSV, or JSON
output (JSON payloads carry a "schema" version field).  Exit codes: 0 on
success, 1 when a verification run finds a discrepancy, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import flats as flats_mod
from .dyck import (
    catalan,
    closed_form_row,
    count_by_ascents_dp,
    count_by_ascents_enum,
)
from .equivariant import conjecture_poly, eq_kl, verify_conjecture
from .kl import char_poly_thag, kl_poly, phi_series, verify_theorem
from .polynomials import IntPoly, PolySeries
from .symfunc import SchurPoly

SCHEMA_VERSION = 1

LATTICE_CHECK_MAX = 5
CONJECTURE_CHECK_MAX = 10

# Largest index accepted by `poly --n` and `table --max`, and by
# `equivariant --n`: each command finishes in a few seconds at its bound.
KL_INDEX_MAX = 300
EQUIVARIANT_INDEX_MAX = 22


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


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, separators=(", ", ": ")))


def _schur_terms(f: SchurPoly) -> list[dict]:
    return [
        {"partition": list(lam), "coeffs": list(coeff.coeffs)}
        for lam, coeff in f.terms()
    ]


def _cmd_poly(args: argparse.Namespace) -> int:
    p = kl_poly(args.n)
    if args.format == "json":
        _emit_json(
            {"schema": SCHEMA_VERSION, "kind": "poly", "n": args.n, "coeffs": list(p.coeffs) or [0]}
        )
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
        _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "kind": "table",
                "max_n": args.max,
                "rows": [{"n": n, "k": k, "c": c} for n, k, c in rows],
            }
        )
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
    dense = [row.get(k, 0) for k in range(max(row) + 1)] if row else [0]
    if args.k is not None:
        value = row.get(args.k, 0)
        if args.format == "json":
            _emit_json(
                {
                    "schema": SCHEMA_VERSION,
                    "kind": "table",
                    "n": args.n,
                    "k": args.k,
                    "method": args.method,
                    "value": value,
                }
            )
        else:
            print(value)
        return 0
    if args.format == "json":
        _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "kind": "table",
                "n": args.n,
                "method": args.method,
                "counts": dense,
            }
        )
    else:
        print(" ".join(str(v) for v in dense))
    return 0


def _cmd_flats(args: argparse.Namespace) -> int:
    graph = flats_mod.thagomizer_graph(args.n)
    try:
        lattice = flats_mod.build_lattice(graph)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    counts = lattice.rank_counts()
    chi = lattice.char_poly(lattice.flats[-1])
    if args.format == "json":
        _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "kind": "report",
                "n": args.n,
                "flat_counts_by_rank": counts,
                "total_flats": len(lattice),
                "char_poly": list(chi.coeffs),
                "kl_poly": list(lattice.kl_poly().coeffs),
            }
        )
    else:
        print(f"flats by rank: {' '.join(str(c) for c in counts)} (total {len(lattice)})")
        print(f"chi(t) = {chi}")
        print(f"P(t) = {lattice.kl_poly()}")
    return 0


def _cmd_equivariant(args: argparse.Namespace) -> int:
    p = eq_kl(args.n)
    if args.format == "json":
        _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "kind": "schur",
                "n": args.n,
                "terms": _schur_terms(p),
            }
        )
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
        _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "kind": "table",
                "max_n": args.max,
                "entries": entries,
            }
        )
    else:
        for entry in entries:
            parts = ", ".join(
                f"s{term['partition']}: {IntPoly(term['coeffs'])}" for term in entry["terms"]
            )
            print(f"n={entry['n']}: {parts}")
    return 0


def _corrupted_series(order: int, n: int, k: int) -> PolySeries:
    if n < 0 or k < 0:
        raise ValueError(f"corruption indices must be nonnegative, got n={n}, k={k}")
    if n + 1 > order:
        raise ValueError(f"corruption index n={n} outside series order {order}")
    series = phi_series(order)
    coeffs = list(series.coeffs)
    target = list(coeffs[n + 1].coeffs)
    while len(target) <= k:
        target.append(0)
    target[k] += 1
    coeffs[n + 1] = IntPoly(target)
    return PolySeries(order, coeffs)


def _cmd_verify(args: argparse.Namespace) -> int:
    max_n = args.max
    checks: list[dict] = []

    order = max_n + 1
    series = None
    if args.corrupt:
        try:
            n_str, _, k_str = args.corrupt.partition(",")
            series = _corrupted_series(order, int(n_str), int(k_str))
        except ValueError as exc:
            print(f"bad --corrupt argument {args.corrupt!r}: {exc}", file=sys.stderr)
            return 2
    theorem = verify_theorem(order, series=series)
    detail = "; ".join(
        f"(n={m.n}, k={m.k}): recursion={m.recursion} series={m.series} dp={m.dyck_dp}"
        for m in theorem.mismatches[:5]
    )
    checks.append(
        {
            "name": "theorem-agreement",
            "ok": theorem.ok,
            "detail": detail or f"recursion = series = dp for n <= {max_n}",
        }
    )

    bad_closed = []
    for n in range(max_n + 1):
        p = kl_poly(n)
        row = closed_form_row(n)
        bad_closed.extend((n, k) for k in range(p.degree() + 1) if p[k] != row.get(k, 0))
    checks.append(
        {
            "name": "closed-form-agreement",
            "ok": not bad_closed,
            "detail": f"mismatches at {bad_closed[:5]}" if bad_closed else f"closed form matches for n <= {max_n}",
        }
    )

    lattice_max = min(max_n, LATTICE_CHECK_MAX)
    lattice_bad = []
    for n in range(lattice_max + 1):
        lattice = flats_mod.build_lattice(flats_mod.thagomizer_graph(n))
        if lattice.kl_poly() != kl_poly(n):
            lattice_bad.append(("kl", n))
        if lattice.char_poly(lattice.flats[-1]) != char_poly_thag(n):
            lattice_bad.append(("chi", n))
    checks.append(
        {
            "name": "lattice-cross-check",
            "ok": not lattice_bad,
            "detail": f"failures: {lattice_bad}" if lattice_bad else f"lattice engine matches for n <= {lattice_max}",
        }
    )

    conjecture_max = min(max_n, CONJECTURE_CHECK_MAX)
    if conjecture_max >= 1:
        conjecture = verify_conjecture(conjecture_max)
        detail = "; ".join(
            f"(n={m.n}, partition={list(m.partition)})" for m in conjecture.mismatches[:5]
        )
        checks.append(
            {
                "name": "conjecture-agreement",
                "ok": conjecture.ok,
                "detail": detail or f"closed form matches the solver for n <= {conjecture_max}",
            }
        )

    bad_catalan = [n for n in range(max_n + 1) if kl_poly(n).evaluate(1) != catalan(n)]
    bad_leading = [
        m
        for m in range(max_n // 2 + 1)
        if kl_poly(2 * m).leading_coefficient() != catalan(m)
    ]
    checks.append(
        {
            "name": "catalan-checks",
            "ok": not bad_catalan and not bad_leading,
            "detail": (
                f"P(1) failures at {bad_catalan[:5]}; leading failures at {bad_leading[:5]}"
                if bad_catalan or bad_leading
                else f"P_n(1) and leading coefficients are Catalan for n <= {max_n}"
            ),
        }
    )

    all_ok = all(check["ok"] for check in checks)
    if args.format == "json":
        _emit_json(
            {
                "schema": SCHEMA_VERSION,
                "kind": "report",
                "max_n": max_n,
                "ok": all_ok,
                "checks": checks,
            }
        )
    else:
        for check in checks:
            status = "PASS" if check["ok"] else "FAIL"
            print(f"{status} {check['name']}: {check['detail']}")
    return 0 if all_ok else 1


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
    p_dyck.add_argument("--n", type=_nonneg, required=True)
    p_dyck.add_argument("--k", type=_nonneg, default=None)
    p_dyck.add_argument("--method", choices=("enum", "dp", "closed"), default="dp")
    add_format(p_dyck, "text", "json")
    p_dyck.set_defaults(func=_cmd_dyck)

    p_flats = sub.add_parser("flats", help="lattice-of-flats census and polynomials")
    p_flats.add_argument("--n", type=_nonneg, required=True)
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
    p_conj.add_argument("--max", type=_nonneg, required=True)
    add_format(p_conj, "text", "json")
    p_conj.set_defaults(func=_cmd_conjecture)

    p_verify = sub.add_parser("verify", help="run the full cross-check battery")
    p_verify.add_argument("--max", type=_nonneg, required=True)
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
