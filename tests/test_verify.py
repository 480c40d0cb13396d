"""The verification battery as a library call, with a negative control per check."""

import dataclasses
import functools
import json

import pytest

import thagkl
from thagkl import equivariant, verify
from thagkl.cli import main
from thagkl.flats import FlatLattice
from thagkl.polynomials import ONE, T
from thagkl.symfunc import SchurPoly
from thagkl.verify import Check, corrupted_series, run_checks

NAMES = [
    "theorem-agreement",
    "closed-form-agreement",
    "lattice-cross-check",
    "conjecture-agreement",
    "equivariant-dimension",
    "catalan-checks",
]


def failing(checks):
    return [check.name for check in checks if not check.ok]


def test_honest_battery_passes_in_order():
    checks = run_checks(8)
    assert [check.name for check in checks] == NAMES
    assert all(check.ok is True for check in checks)
    assert checks[2].detail == "lattice engine matches for n <= 5"
    assert checks[3].detail == "closed form matches the solver for n <= 8"
    assert checks[4].detail == "graded dimension of the solver is P_n for n <= 8"


def test_check_record_is_frozen_with_three_fields():
    assert [field.name for field in dataclasses.fields(Check)] == ["name", "ok", "detail"]
    check = Check("x", True, "fine")
    with pytest.raises(dataclasses.FrozenInstanceError):
        check.ok = False


def test_records_equal_cli_json_checks(capsys):
    code = main(["verify", "--max", "12", "--corrupt", "5,1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    records = run_checks(12, series=corrupted_series(13, 5, 1))
    assert payload["checks"] == [dataclasses.asdict(check) for check in records]


def test_max_zero_leaves_out_the_conjecture_check():
    checks = run_checks(0)
    assert len(checks) == 5
    assert [check.name for check in checks] == [n for n in NAMES if n != "conjecture-agreement"]
    assert all(check.ok for check in checks)
    assert checks[3].detail == "graded dimension of the solver is P_n for n <= 0"


@pytest.mark.parametrize(
    "bad, error",
    [(-1, ValueError), (2.5, TypeError), ("3", TypeError), (True, TypeError), (False, TypeError)],
)
def test_bad_max_n_raises(bad, error):
    with pytest.raises(error):
        run_checks(bad)


def test_corrupted_series_fails_only_theorem_agreement():
    checks = run_checks(8, series=corrupted_series(9, 4, 1))
    assert failing(checks) == ["theorem-agreement"]
    assert checks[0].detail == "(n=4, k=1): recursion=11 series=12 dp=11"


@pytest.mark.parametrize(
    "n, k, message",
    [(-1, 0, "nonnegative"), (2, -1, "nonnegative"), (9, 0, "outside series order 9"),
     (4, 3, "above deg P_4 <= 2"), (0, 10**9, "above deg P_0 <= 0")],
)
def test_corrupted_series_rejects_bad_indices(n, k, message):
    with pytest.raises(ValueError, match=message):
        corrupted_series(9, n, k)


def _bump_closed_form(monkeypatch):
    honest = verify.closed_form_row

    def row(n):
        out = dict(honest(n))
        if n == 6:
            out[2] += 1
        return out

    monkeypatch.setattr(verify, "closed_form_row", row)


def _wrong_lattice_kl(monkeypatch):
    honest = FlatLattice.kl_poly
    monkeypatch.setattr(FlatLattice, "kl_poly", lambda self: honest(self) + T * T)


def _wrong_lattice_chi(monkeypatch):
    # the cached lattice pass itself, with t added to chi([0, 1])
    honest = FlatLattice._uppers.func

    def doctored(self):
        kl, chi = honest(self)
        chi[0] = chi[0] + T
        return kl, chi

    # a cached_property learns its attribute name only when a class body binds it
    uppers = functools.cached_property(doctored)
    uppers.__set_name__(FlatLattice, "_uppers")
    monkeypatch.setattr(FlatLattice, "_uppers", uppers)


def _wrong_chi(monkeypatch):
    honest = verify.char_poly_thag
    monkeypatch.setattr(verify, "char_poly_thag", lambda i: honest(i) + (ONE if i == 3 else 0))


def _doctored_conjecture(monkeypatch):
    honest = equivariant.conjecture_poly
    monkeypatch.setattr(
        equivariant, "conjecture_poly", lambda n: honest(n) + honest(n) if n == 4 else honest(n)
    )


def _wrong_dimension(monkeypatch):
    honest = SchurPoly.graded_dimension
    monkeypatch.setattr(
        SchurPoly, "graded_dimension", lambda self: honest(self) + (T if self.degree == 6 else 0)
    )


def _wrong_catalan(monkeypatch):
    honest = verify.catalan
    monkeypatch.setattr(verify, "catalan", lambda n: honest(n) + (n == 3))


@pytest.mark.parametrize(
    "corrupt, name, detail",
    [
        (_bump_closed_form, "closed-form-agreement", "mismatches at [(6, 2)]"),
        (_wrong_lattice_kl, "lattice-cross-check", "failures: [('kl', 0), ('kl', 1),"),
        (_wrong_lattice_chi, "lattice-cross-check",
         "failures: [('chi', 0), ('chi', 1), ('chi', 2), ('chi', 3), ('chi', 4), ('chi', 5)]"),
        (_wrong_chi, "lattice-cross-check", "failures: [('chi', 3)]"),
        (_doctored_conjecture, "conjecture-agreement", "(n=4, partition=[4]);"),
        (_wrong_dimension, "equivariant-dimension", "graded dimension differs from P_n at [6]"),
        (_wrong_catalan, "catalan-checks", "P(1) failures at [3]; leading failures at [3]"),
    ],
)
def test_each_negative_control_fails_its_own_check_alone(monkeypatch, corrupt, name, detail):
    corrupt(monkeypatch)
    checks = run_checks(8)
    assert failing(checks) == [name]
    assert next(check.detail for check in checks if check.name == name).startswith(detail)


def test_package_api():
    assert thagkl.run_checks is run_checks and thagkl.Check is Check
    assert thagkl.verify is verify  # the submodule, not a function shadowing it
    for name in ("poly_reverse", "char_poly_boolean", "closure"):
        assert name not in thagkl.__all__
        assert not hasattr(thagkl, name)
    assert set(thagkl.__all__) <= set(vars(thagkl))
