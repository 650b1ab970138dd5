import json

import pytest

from canvdw.cli import main

MONO_X = '{"polys": [[1]], "role": "mono"}'
RAINBOW_X = '{"polys": [[1]], "role": "rainbow"}'
MONO_3AP = '{"polys": [[1], [2]], "role": "mono"}'


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_witness_round_trip_through_disk(files, capsys, tmp_path):
    col = files("col.txt", "1 2 3\n")
    mono = files("mono.json", MONO_X)
    rainbow = files("rainbow.json", RAINBOW_X)
    cert_path = str(tmp_path / "cert.json")
    code, out, err = run(
        capsys, "witness", "--colouring", col, "--mono", mono,
        "--rainbow", rainbow, "--out", cert_path,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "rainbow"
    assert (obj["a"], obj["d"], obj["elements"]) == (1, 1, [1, 2])
    assert (tmp_path / "cert.json").read_text() == out

    code, out, err = run(capsys, "verify", "--colouring", col, "--cert", cert_path)
    assert code == 0
    assert out == "certificate accepted\n"

    # tamper with the stored elements
    obj["elements"] = [1, 3]
    (tmp_path / "cert.json").write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--colouring", col, "--cert", cert_path)
    assert code == 1
    assert out == "certificate rejected: element mismatch\n"

    # a malformed field is an input error, not a rejection
    obj["elements"] = [1, 2]
    obj["a"] = "x"
    (tmp_path / "cert.json").write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--colouring", col, "--cert", cert_path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed certificate")


def test_witness_absent(files, capsys):
    col = files("col.txt", "1 1 2 2\n")
    mono = files("mono.json", MONO_3AP)
    rainbow = files("rainbow.json", '{"polys": [[1], [2]], "role": "rainbow"}')
    code, out, err = run(
        capsys, "witness", "--colouring", col, "--mono", mono, "--rainbow", rainbow
    )
    assert code == 1
    assert out == ""
    assert "no witness" in err


def test_witness_needs_a_family(files, capsys):
    col = files("col.txt", "1 2\n")
    code, out, err = run(capsys, "witness", "--colouring", col)
    assert code == 2
    assert err.startswith("error: ")
    rainbow = files("rainbow.json", RAINBOW_X)
    code, out, err = run(capsys, "witness", "--colouring", col, "--rainbow", rainbow, "--h", "-1")
    assert code == 2
    assert "h must be non-negative" in err


def test_number_both_engines(files, capsys):
    mono = files("mono.json", MONO_3AP)
    code, out, err = run(
        capsys, "number", "--mono", mono, "--no-rainbow", "--max-classes", "2"
    )
    assert (code, out) == (0, "9\n")
    code, out, err = run(
        capsys, "number", "--mono", mono, "--no-rainbow", "--max-classes", "2", "--naive"
    )
    assert (code, out) == (0, "9\n")


def test_number_not_found(files, capsys):
    mono = files("mono.json", MONO_3AP)
    code, out, err = run(
        capsys, "number", "--mono", mono, "--no-rainbow", "--max-classes", "2",
        "--n-limit", "5",
    )
    assert code == 1
    assert out == ""
    assert "no canonical number" in err
    # one class and a rainbow-only family: no prefix is ever pruned, so the
    # walk goes 3000 positions deep
    empty = files("empty.json", '{"polys": []}')
    squares = files("squares.json", '{"polys": [[0, 1]], "role": "rainbow"}')
    code, out, err = run(
        capsys, "number", "--mono", empty, "--rainbow", squares, "--max-classes", "1",
        "--n-limit", "3000",
    )
    assert (code, out) == (1, "")
    assert "no canonical number" in err


def test_number_report_file_is_deterministic(files, capsys, tmp_path):
    mono = files("mono.json", MONO_3AP)
    outputs = []
    reports = []
    for i, threads in enumerate(("1", "2", "8")):
        report = str(tmp_path / f"report{i}.json")
        code, out, err = run(
            capsys, "number", "--mono", mono, "--no-rainbow", "--max-classes", "2",
            "--threads", threads, "--out", report,
        )
        assert code == 0
        outputs.append(out)
        reports.append((tmp_path / f"report{i}.json").read_bytes())
    assert len(set(outputs)) == 1
    assert len(set(reports)) == 1
    obj = json.loads(reports[0])
    assert obj["canonical_number"] == 9
    assert obj["witness_free_per_length"][:9] == [1, 2, 3, 5, 7, 10, 8, 3, 0]


def test_number_rejects_rainbow_conflict(files, capsys):
    mono = files("mono.json", MONO_3AP)
    rainbow = files("rainbow.json", RAINBOW_X)
    code, out, err = run(
        capsys, "number", "--mono", mono, "--rainbow", rainbow, "--no-rainbow"
    )
    assert code == 2
    assert "mutually exclusive" in err
    code, out, err = run(capsys, "number", "--mono", mono, "--no-rainbow", "--threads", "0")
    assert code == 2
    assert "--threads" in err


def test_number_budget_exit(files, capsys):
    mono = files("mono.json", MONO_3AP)
    code, out, err = run(
        capsys, "number", "--mono", mono, "--no-rainbow", "--max-classes", "2",
        "--node-budget", "10",
    )
    assert code == 1
    code, out, err = run(
        capsys, "number", "--mono", mono, "--no-rainbow", "--max-classes", "2",
        "--node-budget", "10", "--naive",
    )
    assert code == 2
    assert "cap" in err


def test_extremal(files, capsys):
    mono = files("mono.json", MONO_3AP)
    code, out, err = run(
        capsys, "extremal", "--mono", mono, "--no-rainbow", "--max-classes", "2",
        "--at-length", "8",
    )
    assert code == 0
    assert out == "0 0 1 1 0 0 1 1\n0 1 0 1 1 0 1 0\n0 1 1 0 0 1 1 0\n"
    code, out, err = run(
        capsys, "extremal", "--mono", mono, "--no-rainbow", "--max-classes", "2",
        "--at-length", "9",
    )
    assert code == 1
    assert out == ""
    code, out, err = run(
        capsys, "extremal", "--mono", mono, "--no-rainbow", "--max-classes", "2",
        "--at-length", "8", "--limit", "1",
    )
    assert (code, out) == (0, "0 0 1 1 0 0 1 1\n")


def test_hvalue_and_weight(files, capsys):
    grown = files("fam.json", '{"polys": [[1, 1], [3, 1]]}')
    code, out, err = run(capsys, "hvalue", "--family", grown)
    assert (code, out) == (0, "1\n")
    mixed = files("mixed.json", '{"polys": [[1], [2], [0, 1]]}')
    code, out, err = run(capsys, "weight", "--family", mixed)
    assert (code, out) == (0, "2 1\n")


def test_bstar(files, capsys):
    pair = files("fam.json", '{"polys": [[1], [0, 1]], "role": "rainbow"}')
    code, out, err = run(capsys, "bstar", "--family", pair, "--h", "0", "--d-cap", "1")
    assert code == 0
    assert json.loads(out)["polys"] == [[-1, 1], [1, 1]]
    lines = files("lines.json", '{"polys": [[1], [2]], "role": "rainbow"}')
    code, out, err = run(capsys, "bstar", "--family", lines, "--h", "0", "--d-cap", "3")
    assert code == 0
    assert json.loads(out)["polys"] == [[1]]
    code, out, err = run(capsys, "bstar", "--family", pair, "--h", "2", "--d-cap", "2")
    assert code == 2


def test_scale(files, capsys):
    cubic = files("fam.json", '{"polys": [[0, 1, 1]]}')
    code, out, err = run(capsys, "scale", "--family", cubic, "--factor", "2")
    assert code == 0
    assert json.loads(out)["polys"] == [[0, 2, 4]]
    code, out, err = run(capsys, "scale", "--family", cubic, "--factor", "0")
    assert code == 2


def test_enumerate(files, capsys):
    code, out, err = run(capsys, "enumerate", "--length", "3")
    assert code == 0
    assert out == "0 0 0\n0 0 1\n0 1 0\n0 1 1\n0 1 2\n"
    code, out, err = run(capsys, "enumerate", "--length", "3", "--max-classes", "1")
    assert (code, out) == (0, "0 0 0\n")
    code, out, err = run(capsys, "enumerate", "--length", "4", "--limit", "2")
    assert (code, out) == (0, "0 0 0 0\n0 0 0 1\n")
    code, out, err = run(capsys, "enumerate", "--length", "3", "--limit", "0")
    assert (code, out) == (2, "")
    assert "--limit" in err


def test_malformed_inputs_carry_positions(files, capsys):
    mono = files("mono.json", MONO_3AP)
    bad_col = files("bad.txt", "1 zz\n")
    code, out, err = run(capsys, "witness", "--colouring", bad_col, "--mono", mono)
    assert code == 2
    assert f"{bad_col}:1:" in err
    bad_fam = files("bad.json", '{"polys": [[1],\n ["x"]]}')
    col = files("col.txt", "1 2\n")
    code, out, err = run(capsys, "witness", "--colouring", col, "--mono", bad_fam)
    assert code == 2
    assert bad_fam in err
    missing = str(files("dir.json", "x")) + ".does-not-exist"
    code, out, err = run(capsys, "witness", "--colouring", col, "--mono", missing)
    assert code == 2
    # nesting past the recursion limit is malformed input, not a crash
    nested = files("nested.json", "[" * 200_000)
    for argv in (
        ("witness", "--colouring", col, "--mono", nested),
        ("hvalue", "--family", nested),
        ("verify", "--colouring", col, "--cert", nested),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "nested too deeply" in err


def test_witness_with_bounded_colouring(files, capsys):
    col = files("col.txt", "m=1 n=2 N=3\n1 2\n2 2\n3 1\n")
    rainbow = files("rainbow.json", RAINBOW_X)
    code, out, err = run(capsys, "witness", "--colouring", col, "--rainbow", rainbow)
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "fully-rainbow"
    assert obj["evidence"] == 2


def test_repeat_runs_are_byte_identical(files, capsys):
    col = files("col.txt", "1 2 3\n")
    mono = files("mono.json", MONO_X)
    rainbow = files("rainbow.json", RAINBOW_X)
    seen = set()
    for _ in range(3):
        code, out, err = run(
            capsys, "witness", "--colouring", col, "--mono", mono, "--rainbow", rainbow
        )
        assert code == 0
        seen.add(out)
    assert len(seen) == 1
