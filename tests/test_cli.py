import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thagkl.cli import CONJECTURE_INDEX_MAX, EQUIVARIANT_INDEX_MAX, KL_INDEX_MAX, main
from thagkl.flats import MAX_LATTICE_RANK


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_poly_json(capsys):
    code, payload = run_json(capsys, "poly", "--n", "4", "--format", "json")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["n"] == 4
    assert payload["coeffs"] == [1, 11, 2]


def test_poly_trivial(capsys):
    code, payload = run_json(capsys, "poly", "--n", "0", "--format", "json")
    assert code == 0
    assert payload["coeffs"] == [1]


def test_poly_text(capsys):
    code, out, _ = run_cli(capsys, "poly", "--n", "4")
    assert code == 0
    assert out.strip() == "1 + 11*t + 2*t^2"


def test_poly_negative_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["poly", "--n", "-1"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "command, option, limit",
    [
        ("poly", "--n", KL_INDEX_MAX),
        ("table", "--max", KL_INDEX_MAX),
        ("equivariant", "--n", EQUIVARIANT_INDEX_MAX),
        ("dyck", "--n", KL_INDEX_MAX),
        ("verify", "--max", KL_INDEX_MAX),
        ("flats", "--n", MAX_LATTICE_RANK - 1),
        ("conjecture", "--max", CONJECTURE_INDEX_MAX),
    ],
)
def test_index_over_bound_exits_two(capsys, command, option, limit):
    with pytest.raises(SystemExit) as excinfo:
        main([command, option, str(limit + 1)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"must be at most {limit}" in captured.err
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert f"at most {limit}" in capsys.readouterr().out


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--max", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,c"
    assert lines[1:] == ["0,0,1", "1,0,1", "2,0,1", "2,1,1", "3,0,1", "3,1,4"]


def test_table_csv_trivial(capsys):
    code, out, _ = run_cli(capsys, "table", "--max", "0", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["n,k,c", "0,0,1"]


def test_table_json_rows(capsys):
    code, payload = run_json(capsys, "table", "--max", "2", "--format", "json")
    assert code == 0
    assert payload["rows"] == [
        {"n": 0, "k": 0, "c": 1},
        {"n": 1, "k": 0, "c": 1},
        {"n": 2, "k": 0, "c": 1},
        {"n": 2, "k": 1, "c": 1},
    ]


def test_dyck_methods_agree(capsys):
    rows = {}
    for method in ("enum", "dp", "closed"):
        code, payload = run_json(
            capsys, "dyck", "--n", "6", "--method", method, "--format", "json"
        )
        assert code == 0
        rows[method] = payload["counts"]
    assert rows["enum"] == rows["dp"] == rows["closed"] == [1, 57, 69, 5]


def test_dyck_single_entry(capsys):
    code, payload = run_json(
        capsys, "dyck", "--n", "4", "--k", "2", "--format", "json"
    )
    assert code == 0
    assert payload["value"] == 2


def test_dyck_enum_bound_exits_two(capsys):
    code, out, err = run_cli(capsys, "dyck", "--n", "15", "--method", "enum")
    assert code == 2
    assert out == ""
    assert "enumeration bound" in err


def test_flats_json(capsys):
    code, payload = run_json(capsys, "flats", "--n", "2", "--format", "json")
    assert code == 0
    assert payload["flat_counts_by_rank"] == [1, 5, 6, 1]
    assert payload["total_flats"] == 13
    assert payload["char_poly"] == [-4, 8, -5, 1]
    assert payload["kl_poly"] == [1, 1]


def test_equivariant_json(capsys):
    code, payload = run_json(capsys, "equivariant", "--n", "2", "--format", "json")
    assert code == 0
    assert payload["terms"] == [{"partition": [2], "coeffs": [1, 1]}]


def test_equivariant_json_order(capsys):
    code, payload = run_json(capsys, "equivariant", "--n", "3", "--format", "json")
    assert code == 0
    assert payload["terms"] == [
        {"partition": [3], "coeffs": [1, 2]},
        {"partition": [2, 1], "coeffs": [0, 1]},
    ]


def test_equivariant_trivial(capsys):
    code, payload = run_json(capsys, "equivariant", "--n", "0", "--format", "json")
    assert code == 0
    assert payload["terms"] == [{"partition": [], "coeffs": [1]}]


def test_conjecture_table(capsys):
    code, payload = run_json(capsys, "conjecture", "--max", "4", "--format", "json")
    assert code == 0
    assert payload["entries"][2]["terms"] == [
        {"partition": [3], "coeffs": [1, 2]},
        {"partition": [2, 1], "coeffs": [0, 1]},
    ]


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def test_verify_vacuous(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max", "0")
    assert code == 0


def test_verify_corrupted_exits_one_and_names_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max", "6", "--corrupt", "4,1")
    assert code == 1
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failing) == 1
    assert "theorem-agreement" in failing[0]
    assert "n=4" in failing[0] and "k=1" in failing[0]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param("-1,0", "nonnegative", id="-1,0"),
        pytest.param("4,-1", "nonnegative", id="4,-1"),
        pytest.param("4,3", "above deg P_4 <= 2", id="4,3"),
        pytest.param("1,1000000000", "above deg P_1 <= 0", id="1,1000000000"),
    ],
)
def test_verify_rejects_negative_corruption_index(capsys, corrupt, message):
    # -1,0 would bump the unchecked u^0 coefficient; 4,-1 would bump k=2 via
    # list[-1]; a k past deg P_n would build a polynomial of degree k
    code, out, err = run_cli(capsys, "verify", "--max", "6", f"--corrupt={corrupt}")
    assert code == 2
    assert out == ""
    assert f"bad --corrupt argument {corrupt!r}" in err and message in err


def test_verify_json_report(capsys):
    code, payload = run_json(
        capsys, "verify", "--max", "6", "--corrupt", "3,1", "--format", "json"
    )
    assert code == 1
    assert payload["ok"] is False
    bad = [check for check in payload["checks"] if not check["ok"]]
    assert [check["name"] for check in bad] == ["theorem-agreement"]


# sha256 of stdout and exit code of `thagkl verify`, pinned so that any
# change to the battery's output is a deliberate edit of this table.  The
# test ids are the arguments, so a new digest does not rename a test.
VERIFY_PINS = {
    "--max 80": (0, "60e5330d56ca5b84be3f3172a28dd6ae240b2d4d2a7c7c389ae24724f76f4010"),
    "--max 80 --format json": (
        0,
        "ac98dce5cba95553daf2cc775231a98cbf34589f889ad4dbe2457e9ff8dfee90",
    ),
    "--max 12 --corrupt 5,1": (
        1,
        "89a07b1384cccabfe0c00ba91ad180ba9f918a25d7cfe5c4ae0ab0f3c8f24bd4",
    ),
    "--max 12 --corrupt 5,1 --format json": (
        1,
        "f002c7750566124d95b77401736c69b7f27620f03654a5cd10f3c93fdbcee572",
    ),
    "--max 0": (0, "d951cc49dc1b9bc0a33a826428f2c5256631344f415a6110cff2197cdf12515f"),
}


@pytest.mark.parametrize("argv", VERIFY_PINS)
def test_verify_output_bytes_pinned(capsys, argv):
    exit_code, digest = VERIFY_PINS[argv]
    code, out, err = run_cli(capsys, "verify", *argv.split())
    assert code == exit_code
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout of `thagkl flats --n k`, text then json, for k = 0..7;
# the lattice engine's internals may change, its printed census may not.
FLATS_PINS = {
    0: ("1a4be33b651f7402fd53e88d091912c45d556d6ea919dc7ac2613fa67b97af8c",
        "2b8d2fae41821c42f1f6dc4f24f02f4174f45706754704342ec2ae7b6beda1cd"),
    1: ("404f88c7e1cd0da5641272e44afe9de23ecd00dea25a71cfc13d89023b64b9bb",
        "92e37347b9e8e26f9ee0818934c7f0a15663fd78ef4eddbf35de7c80627f6d5d"),
    2: ("9357c816dcaf9655f071d0a6b976b3080b2684eadd7c08cb229c8b3de8e16006",
        "9d5f4889bbd56ce0b74c345cece487bd8e08781126a9bceb9002dc2381fab691"),
    3: ("797b19c5c8d01ebf1667d6f03bd15fd1567a94ac803f5d4dbb7adf2df8eca212",
        "cceed621c05fe5ee50fd2740d3825d50498a41a6e6b12ce5d9034a4d7fdaec1f"),
    4: ("874b66afaa95cd175680a323b343c7eb443d1b91aef8dfc14d938333d2217298",
        "7335cbad14d681e86f8147d0fdd488c7842cc3de47a8cd51203684fde780e72f"),
    5: ("1a6c8be4aeba7be179111274744f0f3c2a6a77ab8c862fe1bb3f95dd831fb0fa",
        "c9283e07629265e3ac2e603f4e7b79047935c7067a997054a4eb0a3f1e75ac63"),
    6: ("30dd4a90a554ca2e02ae9582127ebc092a68c31b63804133f92a4771f3b90d11",
        "74fe23c56c1540a39b584974a91c34b72988b7c71d1cfd8ec893df6fa9e37d3f"),
    7: ("3fc2bf81d8db5e0ce85f6f88612966c11bda20046f0f567c85b6dacfc8cf93a7",
        "0b240bcc9177a5b0fb2a19ce73c43af9e2aa48d76867ca3caf451d6ae95ec27e"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("n", sorted(FLATS_PINS))
def test_flats_output_bytes_pinned(capsys, n, fmt):
    code, out, err = run_cli(capsys, "flats", "--n", str(n), "--format", fmt)
    assert code == 0
    assert err == ""
    digest = FLATS_PINS[n][fmt == "json"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout of `thagkl dyck` with the given arguments, text then
# json: every method at the ends and middle of its index range, and one
# single entry.
DYCK_PINS = {
    ("--n", "0", "--method", "dp"): (
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "74734ed1da73ab07b53708b63b9c20e811786b6b2fac22f53ad7ecf8b847024f"),
    ("--n", "1", "--method", "dp"): (
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "fa22b2f8bfc403a73362ff5e1d1622c0d1bc53b5f32c21818f4ba278e61728af"),
    ("--n", "12", "--method", "dp"): (
        "1e10a4bba454c994601ac84a7854dcdf792ae6ea1ba633bc459a43d33ef055ee",
        "5b5d187362cf0d41f28f920d25add748453b5d4ec0b003a5b08a2200132e0efc"),
    ("--n", "80", "--method", "dp"): (
        "7d8c28e9ab36ef7f6878badb72339005d3bc8e6be85c558d4334469a5c11197e",
        "4e7347a9b284dd89212f087e03376c285392479965fb22108d626b8290ccf403"),
    ("--n", "300", "--method", "dp"): (
        "c2562804268398ce375831f5af3682f5ac8d9af8d71913f15a64c4a631773047",
        "bd5e42a2bba59f55127cc80dcf266fea42ba3e7e8f9e0debd9337761015206aa"),
    ("--n", "0", "--method", "closed"): (
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "8574ca3b7dbfbf5e8192d22d038c9e216c68df3c3a6b484fd99e326cddcb9f82"),
    ("--n", "1", "--method", "closed"): (
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        "27f2bd389b23760f2ff4401e7c7d8602313534ac39906df368cd87cfecbf8b79"),
    ("--n", "12", "--method", "closed"): (
        "1e10a4bba454c994601ac84a7854dcdf792ae6ea1ba633bc459a43d33ef055ee",
        "c0a00ab203317a654f3e124e4f33bb2e4b3cb13938b3f9e566e68eb561e6fd95"),
    ("--n", "80", "--method", "closed"): (
        "7d8c28e9ab36ef7f6878badb72339005d3bc8e6be85c558d4334469a5c11197e",
        "aa419f9330fb063166b62ce73fd88741e962d5844a30cf75f22748e30cc18f6a"),
    ("--n", "300", "--method", "closed"): (
        "c2562804268398ce375831f5af3682f5ac8d9af8d71913f15a64c4a631773047",
        "5700769722bcb864797d0a98530de86f95b8f111126b8e0b088c63f4fc4540f3"),
    ("--n", "14", "--method", "enum"): (
        "5cc0f43693a8e563b2c3bb7c5e8a60193a18c1b86f2c7a0b0d388f7d12bc78e1",
        "0caedbc662a35a4efd3d201a15374685adefd66ce47ba615a9937d2233eef8b0"),
    ("--n", "80", "--k", "20", "--method", "dp"): (
        "1f726e1c0515193a0a85f39d73d4fcbe128b725510c4aa762faae9929564cd8a",
        "422cb5363219124b6d8055808badeef2d2a2f3732b2c057b2aaad6bc3cb68e18"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", sorted(DYCK_PINS), ids=" ".join)
def test_dyck_output_bytes_pinned(capsys, argv, fmt):
    code, out, err = run_cli(capsys, "dyck", *argv, "--format", fmt)
    assert code == 0
    assert err == ""
    digest = DYCK_PINS[argv][fmt == "json"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# exit code and sha256 of stdout and of stderr of `thagkl ARGV`: results of
# the renderers the pins above leave out, the top-level and every
# subcommand's help, and two usage errors.  argparse wraps help and usage to
# the terminal width, so these run at 80 columns; the digests are of
# Python 3.11's argparse layout.
EMPTY = hashlib.sha256(b"").hexdigest()
CLI_PINS = {
    "poly --n 40": (
        0, "9552f2e576a7d2eac821965b21be6a5b066f0db9cc2f5b68983ef468e3e73782",
        EMPTY),
    "poly --n 40 --format json": (
        0, "39c1358f9eb4dcbae3d3a5499747aa29a297a9161d3ff2da96e99e7d379b641c",
        EMPTY),
    "table --max 20": (
        0, "71ab6c0ed01c83a5d8a37d4e19db4c76f64fbaa14f8713209a8cf2b748f3bf5f",
        EMPTY),
    "table --max 20 --format csv": (
        0, "92a322f16ad582c67056f109e92dd1375f48b309b7723465eca4a172a484cd99",
        EMPTY),
    "table --max 20 --format json": (
        0, "6a287476b58c352c557eb4a709297b4d42d4e196d4a8671bfcae7dd9f11663f4",
        EMPTY),
    "equivariant --n 22": (
        0, "1a3788548c1ce9c09afaa3353bd98cd062f9c09fc3e6b4776dca37fbc5e04c24",
        EMPTY),
    "equivariant --n 22 --format json": (
        0, "ad1746a53591d13cf6755756200037b8f75fe9b63a8339e17effa02be890de1c",
        EMPTY),
    "conjecture --max 80": (
        0, "bbaa896ef60885c87b65af1a12003de05312000ed156fa7ad0ef94d5202dbf28",
        EMPTY),
    "conjecture --max 80 --format json": (
        0, "601a8f5b66194dbb049c6d38389fb090396844daf4744fa0ae8c9e05a22d77ad",
        EMPTY),
    "--help": (
        0, "de499c392dcc88e5b0366a7e8bb45f8770b21d121866da4c5fa137f58ede1f2d",
        EMPTY),
    "poly --help": (
        0, "7260e7db3bbc6297018252e0a17530187bfdc3e4743ad8c5ae20a14752761a45",
        EMPTY),
    "table --help": (
        0, "1c924c7b91ab4e0c633646ded6cec58ddc91c1e0a1651019aa89bb5baecb3662",
        EMPTY),
    "dyck --help": (
        0, "b58cd1ff8e9f3684fd16b7a0d0b02f2e80b36532928c2291d69d32dc71616dbe",
        EMPTY),
    "flats --help": (
        0, "4e8796753ac56d2d90d1395ff978a4c974c2d083e6f5a57158e0277a39fa7a5c",
        EMPTY),
    "equivariant --help": (
        0, "3e00c6d015f533288fdddc34a5220d79007eb1f9cd2ea696150f5214ec93aef2",
        EMPTY),
    "conjecture --help": (
        0, "32f880b0a2ac321f326784e72c311273649379d20af0e95f49c2d1cbe705757c",
        EMPTY),
    "verify --help": (
        0, "ff186a19976d1fbaf131228a1ac00d9af24030e4d40a88a7d570d80b2b5ca826",
        EMPTY),
    "dyck --n 3 --k x": (
        2, EMPTY,
        "a4ba0a819795cd472ba357aa0b0c5801429bd8a0569a02645fb6da5408c747bf"),
    "poly --n 301": (
        2, EMPTY,
        "4157429f4eaaae0bf8b7330fbaba4908b4fa3a9617e0b0ae962bd3a4f608e3ec"),
}


@pytest.mark.parametrize("argv", CLI_PINS)
def test_cli_output_bytes_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    exit_code, out_digest, err_digest = CLI_PINS[argv]
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == exit_code
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_digest


def test_module_entry_point():
    # pytest's pythonpath setting reaches this process only, so the child
    # gets the source tree on its PYTHONPATH (no install needed)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "thagkl", "poly", "--n", "5", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coeffs"] == [1, 26, 15]
    bad = subprocess.run(
        [sys.executable, "-m", "thagkl", "table"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert bad.returncode == 2


def test_output_is_byte_deterministic(capsys):
    first = run_cli(capsys, "equivariant", "--n", "5", "--format", "json")
    second = run_cli(capsys, "equivariant", "--n", "5", "--format", "json")
    assert first == second
    third = run_cli(capsys, "verify", "--max", "5", "--format", "json")
    fourth = run_cli(capsys, "verify", "--max", "5", "--format", "json")
    assert third == fourth
