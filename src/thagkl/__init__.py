"""Exact Kazhdan-Lusztig polynomials of thagomizer matroids.

Several independent pipelines compute the same family of polynomials — a
rank recursion, a generating-function expansion, Dyck-path statistics, and a
from-scratch lattice-of-flats engine — plus the symmetric-group-equivariant
refinement and a closed-form candidate for it.  Everything is exact integer
arithmetic and every pipeline is cross-checked against the others.
"""

from .dyck import (
    catalan,
    closed_form,
    closed_form_row,
    count_by_ascents_dp,
    count_by_ascents_enum,
    enumerate_paths,
    long_ascents,
)
from .equivariant import (
    ConjectureReport,
    ConjectureTerm,
    conjecture_poly,
    conjecture_terms,
    eq_kl,
    upsilon,
    verify_conjecture,
)
from .flats import (
    FlatLattice,
    Graph,
    build_lattice,
    thagomizer_graph,
)
from .kl import (
    KLTable,
    TheoremReport,
    char_poly_thag,
    kl_poly,
    phi_series,
    verify_theorem,
)
from .polynomials import (
    IntPoly,
    expand_F,
    solve_reflection_equation,
)
from .symfunc import (
    SchurPoly,
    hook_dim,
    partitions_of,
    v_poly,
    v_poly_via_plethysm,
    w_poly,
)
from .verify import Check, run_checks

__all__ = [
    "Check",
    "ConjectureReport",
    "ConjectureTerm",
    "FlatLattice",
    "Graph",
    "IntPoly",
    "KLTable",
    "SchurPoly",
    "TheoremReport",
    "build_lattice",
    "catalan",
    "char_poly_thag",
    "closed_form",
    "closed_form_row",
    "conjecture_poly",
    "conjecture_terms",
    "count_by_ascents_dp",
    "count_by_ascents_enum",
    "enumerate_paths",
    "eq_kl",
    "expand_F",
    "hook_dim",
    "kl_poly",
    "long_ascents",
    "partitions_of",
    "phi_series",
    "run_checks",
    "solve_reflection_equation",
    "thagomizer_graph",
    "upsilon",
    "v_poly",
    "v_poly_via_plethysm",
    "verify_conjecture",
    "verify_theorem",
    "w_poly",
]

__version__ = "0.1.0"
