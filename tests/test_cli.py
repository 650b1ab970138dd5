import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import canvdw
from canvdw.cli import main
from canvdw.coloring import parse_colouring
from canvdw.polynomial import parse_family
from canvdw.witness import Certificate

MONO_X = '{"polys": [[1]], "role": "mono"}'
RAINBOW_X = '{"polys": [[1]], "role": "rainbow"}'
MONO_3AP = '{"polys": [[1], [2]], "role": "mono"}'
AP4 = '{"polys": [[1], [2], [3]]}'


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
    assert err.startswith(f"error: {cert_path}: malformed certificate")


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


def test_successive_calls_share_no_state(files, capsys):
    # The parser is built once per process; a flag or an error of one call
    # must not reach the next.
    mono = files("mono.json", MONO_3AP)
    capped = ("number", "--mono", mono, "--no-rainbow", "--max-classes", "2")
    assert run(capsys, *capped) == (0, "9\n", "")
    # Uncapped, all-distinct labels avoid every mono progression.
    assert run(capsys, *capped[:4]) == (1, "", "no canonical number within n_limit=12\n")
    with pytest.raises(SystemExit) as bad:
        main([*capped[:5], "two"])
    assert bad.value.code == 2
    assert "invalid int value: 'two'" in capsys.readouterr().err
    assert run(capsys, *capped) == (0, "9\n", "")


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


def test_rainbow_reads_refuse_another_declared_role(files, capsys):
    # Twins are a valid mono family, so a rainbow read must not take them
    # by their declared role; a mono read takes either role.
    col = files("col.txt", "1 2 3\n")
    mono = files("mono.json", MONO_3AP)
    twins = files("twins.json", '{"polys": [[1], [1]], "role": "mono"}')
    for argv in (
        ("number", "--mono", mono, "--rainbow", twins),
        ("extremal", "--mono", mono, "--rainbow", twins, "--at-length", "3"),
        ("witness", "--colouring", col, "--rainbow", twins),
        ("bstar", "--family", twins, "--d-cap", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {twins}: expected a rainbow family, got role 'mono'\n"), argv
    rainbow = files("rainbow.json", RAINBOW_X)
    for argv in (
        ("hvalue", "--family", rainbow),
        ("weight", "--family", rainbow),
        ("scale", "--family", rainbow, "--factor", "2"),
        ("witness", "--colouring", files("ones.txt", "1 1 1\n"), "--mono", rainbow),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


def test_number_budget_exit(files, capsys):
    mono = files("mono.json", MONO_3AP)
    code, out, err = run(
        capsys, "number", "--mono", mono, "--no-rainbow", "--max-classes", "2",
        "--node-budget", "10",
    )
    assert code == 1
    assert err == "node budget of 10 ran out before a canonical number was found\n"
    code, out, err = run(
        capsys, "number", "--mono", mono, "--no-rainbow", "--max-classes", "2",
        "--n-limit", "5",
    )
    assert (code, err) == (1, "no canonical number within n_limit=5\n")
    code, out, err = run(
        capsys, "number", "--mono", mono, "--no-rainbow", "--max-classes", "2",
        "--node-budget", "10", "--naive",
    )
    assert code == 2
    assert err == "error: naive engine exceeded its enumeration cap of 10\n"


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
    # A node budget that runs out is an error, not "no colourings".
    code, out, err = run(
        capsys, "extremal", "--mono", mono, "--no-rainbow", "--max-classes", "2",
        "--at-length", "8", "--node-budget", "20",
    )
    assert (code, out, err) == (2, "", "error: search exceeded its node budget of 20\n")
    code, out, err = run(capsys, "extremal", "--mono", mono, "--at-length", "0")
    assert (code, out, err) == (2, "", "error: --at-length must be positive, got 0\n")
    # Any positive length is answered: number's default --n-limit 12 does
    # not bound it (canonical 4-AP, the line CI pins).
    ap4 = files("ap4.json", AP4)
    code, out, err = run(
        capsys, "extremal", "--mono", ap4, "--rainbow", ap4, "--at-length", "13", "--limit", "3",
    )
    assert (code, out) == (0, "0 0 0 1 0 0 1 0 0 0 1 1 1\n0 0 0 1 0 0 1 0 0 0 1 1 2\n0 0 0 1 0 0 1 0 0 0 1 2 1\n")
    # number's range, worker and timing flags are not extremal's.
    for flag in (("--n-start", "9"), ("--n-limit", "8"), ("--threads", "1"), ("--timing",)):
        with pytest.raises(SystemExit) as exc:
            main(["extremal", "--mono", mono, "--at-length", "8", *flag])
        assert exc.value.code == 2, flag
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err, flag


def test_hvalue_and_weight(files, capsys):
    grown = files("fam.json", '{"polys": [[1, 1], [3, 1]]}')
    code, out, err = run(capsys, "hvalue", "--family", grown)
    assert (code, out) == (0, "1\n")
    mixed = files("mixed.json", '{"polys": [[1], [2], [0, 1]]}')
    code, out, err = run(capsys, "weight", "--family", mixed)
    assert (code, out) == (0, "2 1\n")


def test_family_a_command_cannot_use_names_its_file(files, capsys):
    empty = files("empty.json", '{"polys": []}')
    zero = files("zero.json", '{"polys": [[0]]}')
    for argv, message in (
        (("hvalue", "--family", empty), "h_value undefined for an empty family"),
        (("weight", "--family", zero), "weight vector undefined for a family with no nonzero members"),
        (("bstar", "--family", empty, "--d-cap", "2"), "bstar_family requires a nonempty family"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {argv[2]}: {message}\n")


def test_python_dash_m_runs_the_cli(files):
    grown = files("fam.json", '{"polys": [[1, 1], [3, 1]]}')
    src = str(Path(canvdw.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "canvdw", "hvalue", "--family", grown],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


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
    code, out, err = run(capsys, "enumerate", "--length", "-1")
    assert (code, out, err) == (2, "", "error: length must be non-negative, got -1\n")
    code, out, err = run(capsys, "enumerate", "--length", "3", "--max-classes", "0")
    assert (code, out, err) == (2, "", "error: max_classes must be positive, got 0\n")


def test_malformed_inputs_carry_positions(files, capsys):
    mono = files("mono.json", MONO_3AP)
    bad_col = files("bad.txt", "1 zz\n")
    code, out, err = run(capsys, "witness", "--colouring", bad_col, "--mono", mono)
    assert code == 2
    assert f"{bad_col}:1:" in err
    for name, text, line in (
        ("token.txt", "m=1 k=2 N=1\n0\n", 1),  # unknown header token
        ("nolength.txt", "m=1\n0\n", 1),  # header without N=
        ("negative.txt", "m=1 N=2\n0\n-1\n", 3),  # negative label
        ("negm.txt", "m=-1 N=0\n", 1),  # negative m
        ("negm1.txt", "m=-1 N=1\n5\n", 1),  # negative m, with an element line
        ("zeron.txt", "m=1 n=0 N=1\n1 1\n", 1),  # empty bounded palette
        ("huge0.txt", "m=0 N=1000000000000000000\n", 1),  # header without its body
    ):
        path = files(name, text)
        code, out, err = run(capsys, "witness", "--colouring", path, "--mono", mono)
        assert code == 2
        assert f"{path}:{line}:" in err
    bad_fam = files("bad.json", '{"polys": [[1],\n ["x"]]}')
    col = files("col.txt", "1 2\n")
    code, out, err = run(capsys, "witness", "--colouring", col, "--mono", bad_fam)
    assert code == 2
    assert bad_fam in err
    missing = str(files("dir.json", "x")) + ".does-not-exist"
    code, out, err = run(capsys, "witness", "--colouring", col, "--mono", missing)
    assert code == 2
    code, out, err = run(capsys, "verify", "--colouring", col, "--cert", missing)
    assert code == 2
    listed = files("list.json", "[[1], [2]]")
    code, out, err = run(capsys, "witness", "--colouring", col, "--mono", listed)
    assert code == 2
    assert "JSON object" in err
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
    # Certificates are read like colourings and families: one line naming
    # the file, also for errors of the family inside.
    ones = files("ones.txt", "1 1 1\n")
    code, cert, _ = run(capsys, "witness", "--colouring", ones, "--mono", files("x.json", MONO_X))
    assert code == 0
    obj = json.loads(cert)
    huge = "9" * 5000  # past Python's 4,300-digit limit for int literals
    for path, message in (
        (files("cut.json", cert[:2]), ":2: malformed certificate: Expecting"),
        (files("role.json", json.dumps(dict(obj, family={"polys": [[1]], "role": "bogus"}))),
         ": malformed certificate: unknown family role 'bogus'"),
        (files("twins.json", json.dumps(dict(obj, family={"polys": [[1], [1]], "role": "rainbow"}))),
         ": malformed certificate: rainbow families must be pairwise distinct"),
        (files("huge.json", cert.replace('"d": 1', f'"d": {huge}')), ": malformed certificate: Exceeds the limit"),
        (files("list.json", "[1, 2]"), ": malformed certificate: expected a JSON object\n"),
        (files("strfam.json", json.dumps(dict(obj, family="x"))), ": malformed certificate: 'family' must be a JSON object\n"),
        (files("noh.json", json.dumps({k: v for k, v in obj.items() if k != "h"})), ": malformed certificate: missing 'h' field\n"),
    ):
        code, out, err = run(capsys, "verify", "--colouring", ones, "--cert", path)
        assert (code, out) == (2, ""), path
        assert err.startswith(f"error: {path}{message}") and err.count("\n") == 1, err
    # A certificate's family is read by the rules and messages of a family file.
    for polys, elements in (({}, [1]), ("", [1]), ([""], [1, 1]), ([{}], [1, 1]), ([[True]], [1, 2])):
        family = {"polys": polys, "role": "mono"}
        path = files("fam.cert.json", json.dumps(dict(obj, family=family, elements=elements)))
        code, out, err = run(capsys, "verify", "--colouring", ones, "--cert", path)
        assert (code, out) == (2, ""), polys
        assert err.startswith(f"error: {path}: malformed certificate: ") and err.count("\n") == 1, err
        as_file = files("fam.json", json.dumps(family))
        assert run(capsys, "hvalue", "--family", as_file)[2] == f"error: {as_file}: " + err.split("certificate: ", 1)[1]
    family = files("hugefam.json", f'{{"polys": [[{huge}]]}}')
    for argv in (("witness", "--colouring", ones, "--mono", family), ("hvalue", "--family", family)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {family}: Exceeds the limit") and err.count("\n") == 1, err


def test_hostile_certificate_is_answered_at_once(files, capsys):
    # p = x^3001 at a 4,000-digit d: p(d) would have 12 million digits.
    col = files("col.txt", "1 1 1\n")
    mono = files("mono.json", MONO_X)
    code, cert, _ = run(capsys, "witness", "--colouring", col, "--mono", mono)
    obj = dict(json.loads(cert), family={"polys": [[0] * 3000 + [1]], "role": "mono"}, d=int("9" * 4000))
    path = files("hostile.json", json.dumps(obj))
    # x^1000 and x^1000 + 1000 h x^999 pin the shift h = 10**4000, and the
    # full shift difference at h would take powers of h up to h**999.
    polys = [[0] * 999 + [1], [0] * 998 + [1000 * 10**4000, 1]]
    family = files("hv.json", json.dumps({"polys": polys}))
    for argv, answer in (
        (("verify", "--colouring", col, "--cert", path), (1, "certificate rejected: element mismatch\n", "")),
        (("hvalue", "--family", family), (0, "0\n", "")),
    ):
        start = time.perf_counter()
        assert run(capsys, *argv) == answer
        assert time.perf_counter() - start < 1


def test_input_that_is_not_utf8_names_its_file(files, capsys, tmp_path):
    col = files("col.txt", "1 1 1\n")
    mono = files("mono.json", MONO_X)
    undecodable = tmp_path / "utf16.bin"
    undecodable.write_bytes(b"\xff\xfe1\x00 \x001\x00\n\x00")
    bad = str(undecodable)
    for argv in (
        ("witness", "--colouring", bad, "--mono", mono),
        ("number", "--mono", bad, "--max-classes", "2"),
        ("verify", "--colouring", col, "--cert", bad),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode") and err.count("\n") == 1, (argv, err)


def test_out_into_a_missing_directory_is_an_input_error(files, capsys, tmp_path):
    col = files("col.txt", "1 1 1\n")
    mono = files("mono.json", MONO_X)
    rainbow = files("rainbow.json", '{"polys": [[1], [0, 1]], "role": "rainbow"}')
    out = str(tmp_path / "missing" / "out.txt")
    for argv in (
        ("witness", "--colouring", col, "--mono", mono),
        ("number", "--mono", mono, "--max-classes", "2"),
        ("extremal", "--mono", mono, "--max-classes", "2", "--at-length", "1"),
        ("bstar", "--family", rainbow, "--d-cap", "1"),
        ("scale", "--family", mono, "--factor", "2"),
    ):
        code, stdout, err = run(capsys, *argv, "--out", out)
        assert (code, stdout) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1 and out in err, (argv, err)


def test_outsized_flags_are_input_errors(files, capsys):
    # Each fails at once: a huge length or step cap asks for a list or
    # range too large to allocate or to index.
    pair = files("fam.json", '{"polys": [[1], [0, 1]], "role": "rainbow"}')
    mono = files("mono.json", MONO_3AP)
    for argv in (
        ("enumerate", "--length", str(10**18)),
        ("enumerate", "--length", str(10**19)),
        ("number", "--mono", mono, "--n-limit", str(10**18)),
        ("number", "--mono", mono, "--n-limit", str(10**19)),
        ("extremal", "--mono", mono, "--at-length", str(10**18)),
        ("extremal", "--mono", mono, "--at-length", str(10**19)),
        ("bstar", "--family", pair, "--d-cap", str(10**18)),
        ("bstar", "--family", pair, "--d-cap", str(10**19)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) > len("error: \n"), (argv, err)


def test_closed_output_pipe_stops_quietly(monkeypatch, capsys, tmp_path):
    # stdout as a pipe whose reader has gone; main points its file
    # descriptor (here a scratch file's) at devnull.
    with open(tmp_path / "sink", "w") as sink:

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return sink.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["enumerate", "--length", "3"])
        monkeypatch.undo()
    assert (code, capsys.readouterr().err) == (141, "")


def test_closed_output_pipe_leaves_no_traceback():
    src = str(Path(canvdw.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "canvdw", "enumerate", "--length", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"0 0 0 0 0 0 0 0 0 0 0 0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


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


def _fuzzed(rng, text, is_json):
    # One seeded mutant of a valid input: a truncation, byte flips, a value
    # of the wrong type, or deep nesting.
    pick = rng.randrange(4 if is_json else 2)
    if pick == 0:
        return text[: rng.randrange(len(text))].encode()
    if pick == 1:
        data = bytearray(text.encode())
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        return bytes(data)
    doc = json.loads(text)
    slots = []

    def walk(node):
        children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in children:
            slots.append((node, key))
            walk(child)

    walk(doc)
    node, key = rng.choice(slots)
    if pick == 2:
        node[key] = rng.choice(("x", 1.5, True, None, [], {}, -1, 10**30, [[1]], {"polys": 1}))
        return json.dumps(doc).encode()
    node[key] = "NEST"
    depth = rng.choice((50, 5000, 200_000))
    return json.dumps(doc).replace('"NEST"', "[" * depth + "1" + "]" * depth).encode()


def test_fuzzed_inputs_exit_cleanly(tmp_path, capsys):
    colourings = ["1 2 3\n", "m=1 n=2 N=3\n1 2\n2 2\n3 1\n", "0 1\n1 0\n2 2\n", "0 0 1 1 0 0 1 1 0\n"]
    families = [MONO_X, RAINBOW_X, MONO_3AP, '{"polys": [[0, 1], [2]]}']
    certs = []
    for col in colourings:
        for family in families:
            role = json.loads(family).get("role", "mono")
            (tmp_path / "c").write_text(col)
            (tmp_path / "f").write_text(family)
            code, out, _ = run(capsys, "witness", "--colouring", str(tmp_path / "c"), f"--{role}", str(tmp_path / "f"))
            if code == 0:
                certs.append((col, out))
    assert len(certs) > 5

    def rejects(parse, data):
        try:
            parse(data.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError included
            return True
        return False

    rng = random.Random(20200415)
    malformed = 0
    for trial in range(360):
        command = ("witness", "hvalue", "verify")[trial % 3]
        if command == "hvalue":
            family = _fuzzed(rng, rng.choice(families), True)
            inputs = {"f": family}
            argv = ["hvalue", "--family", "f"]
            bad = rejects(parse_family, family)
        elif command == "witness":
            col, family = rng.choice(colourings).encode(), rng.choice(families)
            role = json.loads(family).get("role", "mono")
            if rng.random() < 0.5:
                col = _fuzzed(rng, col.decode(), False)
                family = family.encode()
            else:
                family = _fuzzed(rng, family, True)
            inputs = {"c": col, "f": family}
            argv = ["witness", "--colouring", "c", f"--{role}", "f"]
            bad = rejects(parse_colouring, col) or rejects(lambda s: parse_family(s, role), family)
        else:
            col, cert = rng.choice(certs)
            if rng.random() < 0.3:
                col, cert = _fuzzed(rng, col, False), cert.encode()
            else:
                col, cert = col.encode(), _fuzzed(rng, cert, True)
            inputs = {"c": col, "x": cert}
            argv = ["verify", "--colouring", "c", "--cert", "x"]
            bad = rejects(parse_colouring, col) or rejects(Certificate.from_json, cert)
        for name, data in inputs.items():
            (tmp_path / name).write_bytes(data)
        argv = [str(tmp_path / a) if a in inputs else a for a in argv]
        code, _, err = run(capsys, *argv)  # an escaping exception fails the test
        assert code in (0, 1, 2), (argv, inputs)
        if bad:
            malformed += 1
            assert code == 2 and err.startswith("error: "), (argv, inputs, err)
    assert malformed > 150
