"""The benchmark's workloads, their output checks and negative controls.

Everything here runs inside a worker process started by ``worker.py``.  A
workload makes its inputs from the seed, calls into ``thagkl`` and checks
every output against arithmetic written here, which shares no code with the
package (dense coefficient lists, Whitney's subset expansion, closed
products, connected vertex partitions), or against another of the package's
independent pipelines.  A
check is a ``(name, ok)`` pair.  A negative control feeds a check an input it
must reject; the control passes when the check rejects it.  The controls job
of a workload also holds its untimed checks, such as brute-force's pinned KL
values for the graphs of ``PINNED_SEED``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
from math import comb

from thagkl import cli, dyck, equivariant, flats, kl, symfunc

SIZES = {
    "verify-cli": {"max": 80},
    "brute-force": {
        "thagomizer_n": [0, 6],
        "complete_graph": 7,
        # vertices, edges, and the band the flat count is drawn from, so that
        # every seed asks for about the same lattice work in another shape
        "random_graphs": [[7, 13, [368, 398]], [8, 13, [709, 778]], [8, 14, [895, 966]]],
        "enum_n": [0, 12],
    },
    "equivariant": {"conjecture_max": 15, "plethysm_max": 9},
}

# the theorem, closed-form and Catalan checks must cover the whole range;
# the lattice and conjecture checks are capped, and a later cap may be higher
VERIFY_FULL_RANGE = ("theorem-agreement", "closed-form-agreement", "catalan-checks")
VERIFY_MIN_CAP = {"lattice-cross-check": 5, "conjecture-agreement": 10}
_BOUND = re.compile(r"for n <= (\d+)$")

# KL polynomials pinned when the engine was first benchmarked; the graphs of
# PINNED_SEED are checked against them in every brute-force run, untimed
K7_KL = (1, 42, 175)
PINNED_SEED = 0
PINNED_RANDOM_KL = {0: (1, 24, 37), 1: (1, 33, 74, 12), 2: (1, 40, 137, 32)}


# --- arithmetic that does not use thagkl -----------------------------------

def _trim(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _mul(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _from_roots(roots) -> tuple[int, ...]:
    """Coefficients of prod (t - r), constant term first."""
    out: tuple[int, ...] = (1,)
    for r in roots:
        out = _mul(out, (-r, 1))
    return out


def whitney_chi(num_vertices: int, edges) -> tuple[int, ...]:
    """chi(t) = sum over edge subsets S of (-1)^|S| t^(r(E) - r(S)).

    Walks the include/exclude tree over the edges with a union-find that is
    undone on the way back, so each of the 2^|E| subsets costs a few steps.
    """
    parent = list(range(num_vertices))
    by_rank: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def walk(i: int, sign: int, rank: int) -> None:
        if i == len(edges):
            by_rank[rank] = by_rank.get(rank, 0) + sign
            return
        walk(i + 1, sign, rank)
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru == rv:
            walk(i + 1, -sign, rank)
        else:
            parent[ru] = rv
            walk(i + 1, -sign, rank + 1)
            parent[ru] = ru

    walk(0, 1, 0)
    top = max(by_rank)
    return _trim(by_rank.get(top - d, 0) for d in range(top + 1))


def connected_partitions(num_vertices: int, edges) -> int:
    """Partitions of the vertices into blocks that each induce a connected
    subgraph; they are in bijection with the flats of the cycle matroid."""
    adjacent = [0] * num_vertices
    for u, v in edges:
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    full = (1 << num_vertices) - 1
    connected = [False] * (full + 1)
    for mask in range(1, full + 1):
        seen = frontier = mask & -mask
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            new = adjacent[bit.bit_length() - 1] & mask & ~seen
            seen |= new
            frontier |= new
        connected[mask] = seen == mask
    counts = {0: 1}

    def count(mask: int) -> int:
        # the block holding the lowest vertex, then the rest
        if mask not in counts:
            low = mask & -mask
            rest = mask ^ low
            total, sub = 0, rest
            while True:
                if connected[sub | low]:
                    total += count(mask ^ sub ^ low)
                if not sub:
                    break
                sub = (sub - 1) & rest
            counts[mask] = total
        return counts[mask]

    return count(full)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def kl_invariants_hold(coeffs, rank: int) -> bool:
    """P(0) = 1, deg P < rank/2 and every coefficient nonnegative."""
    return (
        bool(coeffs) and coeffs[0] == 1
        and 2 * (len(coeffs) - 1) < rank
        and all(c >= 0 for c in coeffs)
    )


# --- inputs -----------------------------------------------------------------

def thagomizer_edges(n: int) -> tuple[tuple[int, int], ...]:
    """K_{2,n} on hubs 0 and 1 plus the hub edge."""
    return ((0, 1),) + tuple(e for j in range(2, n + 2) for e in ((0, j), (1, j)))


def complete_edges(v: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(v), 2))


def random_connected(rng: random.Random, v: int, m: int) -> tuple[tuple[int, int], ...]:
    """A simple connected graph: a random spanning tree plus random extra edges."""
    order = list(range(v))
    rng.shuffle(order)
    edges = set()
    for i in range(1, v):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    spare = [e for e in itertools.combinations(range(v), 2) if e not in edges]
    edges.update(rng.sample(spare, m - len(edges)))
    return tuple(sorted(edges))


def random_graphs(seed: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    rng = random.Random(seed)
    out = []
    for v, m, (low, high) in SIZES["brute-force"]["random_graphs"]:
        edges = random_connected(rng, v, m)
        while not low <= connected_partitions(v, edges) <= high:
            edges = random_connected(rng, v, m)
        out.append((v, edges))
    return out


# --- verify-cli ---------------------------------------------------------------

def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def parse_report(text: str) -> dict:
    try:
        report = json.loads(text)
    except ValueError:
        return {}
    return report if isinstance(report, dict) else {}


def check_verify_report(rc: int, text: str, max_n: int) -> list[tuple[str, bool]]:
    """Checks on one ``thagkl verify --format json`` run."""
    report = parse_report(text)
    by_name = {c.get("name"): c for c in report.get("checks", [])}
    out = [
        ("verify.exit_code", rc == 0),
        ("verify.ok", report.get("ok") is True and report.get("max_n") == max_n),
    ]
    for name in ("theorem-agreement", "closed-form-agreement", "lattice-cross-check",
                 "conjecture-agreement", "catalan-checks"):
        check = by_name.get(name, {})
        found = _BOUND.search(str(check.get("detail", "")))
        bound = int(found.group(1)) if found else -1
        if name in VERIFY_FULL_RANGE:
            covered = bound == max_n
        else:
            covered = bound >= min(max_n, VERIFY_MIN_CAP[name])
        out.append((f"verify.{name}", check.get("ok") is True and covered))
    return out


def verify_cli(seed: int, tracer=None) -> list[tuple[str, bool]]:
    max_n = SIZES["verify-cli"]["max"]
    rc, text = run_cli(["verify", "--max", str(max_n), "--format", "json"])
    if tracer is not None:
        tracer.counts["cli.checks_run"] += len(parse_report(text).get("checks", []))
    return check_verify_report(rc, text, max_n)


def honest_verify_report(max_n: int) -> dict:
    """The report a correct ``verify --max max_n`` prints at the seed caps."""
    lattice, conjecture = (min(max_n, VERIFY_MIN_CAP[k]) for k in
                           ("lattice-cross-check", "conjecture-agreement"))
    details = {
        "theorem-agreement": f"recursion = series = dp for n <= {max_n}",
        "closed-form-agreement": f"closed form matches for n <= {max_n}",
        "lattice-cross-check": f"lattice engine matches for n <= {lattice}",
        "conjecture-agreement": f"closed form matches the solver for n <= {conjecture}",
        "catalan-checks": f"P_n(1) and leading coefficients are Catalan for n <= {max_n}",
    }
    return {"schema": 1, "kind": "report", "max_n": max_n, "ok": True,
            "checks": [{"name": k, "ok": True, "detail": v} for k, v in details.items()]}


def verify_cli_controls(seed: int) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    n = rng.randrange(1, 13)
    k = rng.randrange(n // 2 + 1)
    corrupt = ["verify", "--max", "12", "--corrupt", f"{n},{k}"]
    rc, text = run_cli(corrupt)
    out = [("control.corrupt_text", rc == 1 and "FAIL theorem-agreement" in text)]
    rc, text = run_cli(corrupt + ["--format", "json"])
    theorem = dict(check_verify_report(rc, text, 12))["verify.theorem-agreement"]
    out.append(("control.corrupt_json", rc == 1 and not theorem))

    max_n = SIZES["verify-cli"]["max"]
    honest = honest_verify_report(max_n)
    out.append(("oracle.honest_report_accepted",
                all(ok for _, ok in check_verify_report(0, json.dumps(honest), max_n))))

    def doctored(label, edit, rc=0):
        report = json.loads(json.dumps(honest))
        edit(report)
        checks = check_verify_report(rc, json.dumps(report), max_n)
        out.append((f"control.{label}", not all(ok for _, ok in checks)))

    def set_check(name, key, value):
        def edit(report):
            for check in report["checks"]:
                if check["name"] == name:
                    check[key] = value
        return edit

    doctored("exit_code", lambda r: None, rc=1)
    doctored("ok_false", lambda r: r.update(ok=False))
    doctored("check_missing", lambda r: r["checks"].pop(rng.randrange(5)))
    doctored("check_failed", set_check("closed-form-agreement", "ok", False))
    doctored("theorem_short", set_check(
        "theorem-agreement", "detail", f"recursion = series = dp for n <= {max_n - 1}"))
    doctored("lattice_below_cap", set_check(
        "lattice-cross-check", "detail", "lattice engine matches for n <= 4"))
    doctored("conjecture_below_cap", set_check(
        "conjecture-agreement", "detail", "closed form matches the solver for n <= 9"))
    return out


# --- brute-force --------------------------------------------------------------

def lattice_checks(label: str, num_vertices: int, edges, chi_expected, flats_expected,
                   kl_expected=None) -> list[tuple[str, bool]]:
    lattice = flats.build_lattice(flats.Graph(num_vertices, edges))
    chi = lattice.char_poly(lattice.flats[-1]).coeffs
    p = lattice.kl_poly().coeffs
    out = [
        (f"{label}.flats", len(lattice) == flats_expected),
        (f"{label}.chi", chi == chi_expected),
        (f"{label}.kl_invariants", kl_invariants_hold(p, len(chi_expected) - 1)),
    ]
    if kl_expected is not None:
        out.append((f"{label}.kl", p == kl_expected))
    return out


def check_enum_row(n: int, row: dict, dp_row: dict) -> list[tuple[str, bool]]:
    """An enumerated ascent row must equal the DP row and sum to Catalan(n)."""
    return [
        (f"enum{n}.dp", row == dp_row),
        (f"enum{n}.catalan", sum(row.values()) == catalan(n)),
    ]


def brute_force(seed: int, tracer=None) -> list[tuple[str, bool]]:
    sizes = SIZES["brute-force"]
    out = []
    low, high = sizes["thagomizer_n"]
    for n in range(low, high + 1):
        edges = thagomizer_edges(n)
        out += lattice_checks(f"thagomizer{n}", n + 2, edges, _from_roots([1] + [2] * n),
                              connected_partitions(n + 2, edges), kl.kl_poly(n).coeffs)
    v = sizes["complete_graph"]
    out += lattice_checks(f"complete{v}", v, complete_edges(v), _from_roots(range(1, v)),
                          connected_partitions(v, complete_edges(v)), K7_KL)
    for i, (v, edges) in enumerate(random_graphs(seed)):
        out += lattice_checks(f"random{i}", v, edges, whitney_chi(v, edges),
                              connected_partitions(v, edges))
    low, high = sizes["enum_n"]
    for n in range(low, high + 1):
        out += check_enum_row(n, dyck.count_by_ascents_enum(n), dyck.count_by_ascents_dp(n))
    return out


def brute_force_controls(seed: int) -> list[tuple[str, bool]]:
    out = []
    for i, (v, edges) in enumerate(random_graphs(PINNED_SEED)):
        out += lattice_checks(f"pinned.random{i}", v, edges, whitney_chi(v, edges),
                              connected_partitions(v, edges), PINNED_RANDOM_KL[i])

    rng = random.Random(seed)
    edges = random_connected(rng, 6, 9)
    cut = rng.randrange(len(edges))
    dropped = edges[:cut] + edges[cut + 1:]

    def fails(check: str, checks) -> bool:
        return not dict(checks)[f"x.{check}"]

    thag3 = thagomizer_edges(3)
    deleted = lattice_checks("x", 6, dropped, whitney_chi(6, edges),
                             connected_partitions(6, edges))
    out += [
        ("oracle.whitney_thagomizer", whitney_chi(5, thag3) == _from_roots([1, 2, 2, 2])),
        ("oracle.partitions_complete", connected_partitions(5, complete_edges(5)) == 52),
        ("control.edge_deleted_chi", fails("chi", deleted)),
        ("control.edge_deleted_flats", fails("flats", deleted)),
        ("control.thagomizer_chi_index", fails("chi", lattice_checks(
            "x", 5, thag3, _from_roots([1, 2, 2, 2, 2]), 35))),
        ("control.thagomizer_kl_index", fails("kl", lattice_checks(
            "x", 5, thag3, _from_roots([1, 2, 2, 2]), 35, kl.kl_poly(4).coeffs))),
        ("control.pinned", fails("kl", lattice_checks(
            "x", 6, edges, whitney_chi(6, edges), connected_partitions(6, edges), (1, 1)))),
        ("control.kl_constant", not kl_invariants_hold((2, 1), 4)),
        ("control.kl_degree", not kl_invariants_hold((1, 1, 1), 4)),
        ("control.kl_negative", not kl_invariants_hold((1, -1), 4)),
    ]

    # the enumeration check fed a doctored copy of a true row
    n = rng.randrange(3, 9)
    dp_row = dyck.count_by_ascents_dp(n)
    row = dyck.count_by_ascents_enum(n)
    out.append(("oracle.enum_row_accepted", all(ok for _, ok in check_enum_row(n, row, dp_row))))
    k = rng.choice(sorted(row))
    bumped = dict(row)
    bumped[k] += 1
    moved = dict(row)
    moved[k] -= 1
    moved[k + 1] = moved.get(k + 1, 0) + 1
    out.append(("control.enum_bumped",
                not dict(check_enum_row(n, bumped, dp_row))[f"enum{n}.catalan"]))
    out.append(("control.enum_moved",
                not dict(check_enum_row(n, moved, dp_row))[f"enum{n}.dp"]))
    return out


# --- equivariant --------------------------------------------------------------

def schur_terms(f) -> dict:
    return {tuple(lam): tuple(coeff.coeffs) for lam, coeff in f.terms()}


def check_conjecture_report(report, max_n: int) -> bool:
    return report.ok is True and report.max_n == max_n and not report.mismatches


def check_plethysm(ell: int, via_plethysm: dict, direct: dict) -> tuple[str, bool]:
    """The plethysm expansion of V_ell must equal the direct one, term by term."""
    return (f"plethysm{ell}", via_plethysm == direct)


def equivariant_run(seed: int, tracer=None) -> list[tuple[str, bool]]:
    sizes = SIZES["equivariant"]
    max_n = sizes["conjecture_max"]
    out = [("conjecture", check_conjecture_report(equivariant.verify_conjecture(max_n), max_n))]
    for ell in range(sizes["plethysm_max"] + 1):
        out.append(check_plethysm(ell, schur_terms(symfunc.v_poly_via_plethysm(ell)),
                                  schur_terms(symfunc.v_poly(ell))))
    return out


def equivariant_controls(seed: int) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    n = rng.randrange(2, 7)
    wrong = equivariant.conjecture_poly(n) + symfunc.SchurPoly.h(n)
    report = equivariant.verify_conjecture(6, candidates={n: wrong})

    # the plethysm check fed a doctored copy of a true expansion
    ell = rng.randrange(2, 8)
    direct = schur_terms(symfunc.v_poly(ell))
    plethysm = schur_terms(symfunc.v_poly_via_plethysm(ell))
    lam = rng.choice(sorted(direct))
    bumped = dict(plethysm)
    bumped[lam] = _trim(c + (k == 0) for k, c in enumerate(bumped[lam]))
    moved = dict(plethysm)
    moved[lam + (1,)] = moved.pop(lam)
    return [
        ("control.conjecture_candidate", not check_conjecture_report(report, 6)),
        ("oracle.plethysm_accepted", check_plethysm(ell, plethysm, direct)[1]),
        ("control.plethysm_bumped", not check_plethysm(ell, bumped, direct)[1]),
        ("control.plethysm_moved", not check_plethysm(ell, moved, direct)[1]),
    ]


WORKLOADS = {
    "verify-cli": (verify_cli, verify_cli_controls),
    "brute-force": (brute_force, brute_force_controls),
    "equivariant": (equivariant_run, equivariant_controls),
}
