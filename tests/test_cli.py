"""Command-line surface: instances, pipelines, exit codes, determinism."""

import contextlib
import io
import re
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from psl2ham import (ParameterError, certificate_chunks, lift,
                     list_instances, run_pipeline, s_orbits, verify_text)
from psl2ham.cli import (DESK_SCALE_MAX_K, INSTANCES_MAX_K, _resolve_params,
                         parse_args, run)
from psl2ham.gf import admissible, factor_prime_power, prime_factors
import reference
from util import code, fresh_process_env, orbital_of, points, text_verdict


def test_list_instances():
    assert list_instances(71) == [(61, 1)]
    assert list_instances(130) == [(61, 1), (3, 4), (11, 2)]
    assert list_instances(60) == []
    # 361 = 19^2 qualifies: 10 | 360 and (361+1)/2 = 181 is prime
    assert list_instances(1000) == [(61, 1), (3, 4), (11, 2), (19, 2),
                                    (421, 1), (541, 1), (661, 1), (29, 2)]


NOT_ADMISSIBLE = "is not admissible: need 10 | k-1 and (k+1)/2 prime"
TOO_LARGE = "exceeds the limit 4294967296"
K76 = str(10**75 + 129)  # a 76-digit prime
# ids name k by its (s, m), or by its digit count
OVERSIZED = [
    ("s2-m33", ["--k", str(2**33)], f"k = {2**33} {TOO_LARGE}"),
    ("s11-m64", ["--k", str(11**64)], f"k = {11**64} {TOO_LARGE}"),
    ("k76", ["--k", K76], f"k = {K76} {TOO_LARGE}"),
]


@pytest.mark.parametrize("argv,message", [
    pytest.param(["--k", "41"], f"k = 41 {NOT_ADMISSIBLE}",  # 21 = 3*7
                 id="s41"),
    pytest.param(["--k", "13"], f"k = 13 {NOT_ADMISSIBLE}",  # 10 does not divide 12
                 id="s13"),
    pytest.param(["--k", "27"], f"k = 27 {NOT_ADMISSIBLE}",  # 27 < 61
                 id="s3-m3"),
] + [pytest.param(argv, message, id=i) for i, argv, message in OVERSIZED])
def test_instance_params_validation(argv, message, capsys):
    assert run(["hamilton"] + argv) == 2
    assert capsys.readouterr().err == f"parameter error: {message}\n"


@pytest.mark.parametrize("argv", [argv for _, argv, _ in OVERSIZED])
def test_oversized_params_are_rejected_before_any_arithmetic(argv, monkeypatch):
    # trial division and the primality test are unbounded in the input
    def refuse(*args):
        raise AssertionError("number theory on an oversized input")

    for name in ("gf.prime_factors", "gf.is_prime", "gf.admissible",
                 "cli.admissible", "cli.Field"):
        monkeypatch.setattr(f"psl2ham.{name}", refuse)
    tracemalloc.start()
    try:
        assert run(["hamilton"] + argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_one_admissibility_rule_for_params_and_listing(capsys):
    prime_powers = {}
    for k in range(2, 2001):
        try:
            prime_powers[k] = factor_prime_power(k)
        except ParameterError:
            continue
    listed = list_instances(2000)
    assert listed == [sm for k, sm in prime_powers.items() if admissible(k)]
    assert listed[0] == (61, 1)
    for k, sm in prime_powers.items():
        if admissible(k):
            args = parse_args(["quotient", "--k", str(k)])
            assert _resolve_params(args) == sm
        else:
            assert run(["quotient", "--k", str(k)]) == 2
            assert "not admissible" in capsys.readouterr().err


def test_factor_prime_power():
    assert factor_prime_power(81) == (3, 4)
    assert factor_prime_power(61) == (61, 1)
    assert factor_prime_power(121) == (11, 2)
    for k in (12, 1, 0):
        with pytest.raises(ParameterError, match=f"k = {k} is not a prime power"):
            factor_prime_power(k)


def test_run_pipeline_produces_verified_cert(field61):
    cert = run_pipeline(field61, 0)
    assert len(cert.vertices) == 310
    assert text_verdict(cert) is None


def test_run_pipeline_rejects_bad_orbital(field61):
    with pytest.raises(ValueError, match="out of range 0..4"):
        run_pipeline(field61, 7)


def test_full_graph_mode_subsets(tmp_path, capsys):
    union, direct = tmp_path / "u.txt", tmp_path / "h.txt"
    assert run(["full-graph", "--k", "61", "--orbitals", "1,0",
                "--out", str(union)]) == 0
    cert01, failure = verify_text(union.read_text())
    assert failure is None and len(cert01.vertices) == 310
    assert cert01.orbital_index == 0
    assert run(["full-graph", "--k", "61", "--orbitals", "3",
                "--out", str(union)]) == 0
    assert run(["hamilton", "--k", "61", "--orbital", "3",
                "--out", str(direct)]) == 0
    assert union.read_bytes() == direct.read_bytes()
    capsys.readouterr()
    assert run(["full-graph", "--k", "61", "--orbitals", ","]) == 2
    assert "orbital subset must be nonempty" in capsys.readouterr().err
    assert run(["full-graph", "--k", "61", "--orbitals", "0,9"]) == 2
    assert "orbital indices must lie in 0..4" in capsys.readouterr().err
    assert run(["full-graph", "--k", "61", "--orbitals", "0,x"]) == 2
    assert capsys.readouterr().err == (
        "parameter error: malformed orbital subset '0,x'\n")


def test_full_graph_union_is_5k_regular(field61):
    pts = [code(field61, p) for p in points(field61)]
    for v in pts:
        assert sum(orbital_of(field61, v, w) is not None for w in pts) == 5 * 61


def test_cli_instances(capsys):
    assert run(["instances", "--max-k", "130"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["k=61 s=61 m=1 p=31", "k=81 s=3 m=4 p=41", "k=121 s=11 m=2 p=61"]


def test_cli_instances_bounds_max_k(monkeypatch, capsys):
    # the refusal comes before any listing work; the limit itself is listed
    listed = []
    monkeypatch.setattr("psl2ham.cli.list_instances",
                        lambda max_k: listed.append(max_k) or [])
    assert INSTANCES_MAX_K == 10**6
    assert run(["instances", "--max-k", str(10**6 + 1)]) == 2
    assert capsys.readouterr().err == (
        f"parameter error: --max-k {10**6 + 1} exceeds the limit "
        f"1000000 of instances\n")
    assert listed == []
    assert run(["instances", "--max-k", str(10**6)]) == 0
    assert listed == [10**6]


def test_cli_instances_caps_max_k(capsys):
    # without the cap the listing steps through every k up to 10^20
    assert run(["instances", "--max-k", str(10**20)]) == 2
    assert capsys.readouterr().err == (
        f"parameter error: --max-k {10**20} exceeds the limit "
        f"1000000 of instances\n")


def test_list_instances_steps_through_k_one_mod_ten():
    # stepping by 10 from 61 keeps every admissible prime power
    every_k = [factor_prime_power(k) for k in range(61, 5001)
               if admissible(k) and len(prime_factors(k)) == 1]
    assert list_instances(5000) == every_k
    assert len(every_k) == 22


def test_cli_hamilton_verify_round_trip(tmp_path, capsys):
    cert = tmp_path / "c.txt"
    assert run(["hamilton", "--k", "61", "--orbital", "1", "--out", str(cert)]) == 0
    assert run(["verify", "--cert", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "certificate OK" in out


def test_cli_verify_rejects_tampered(tmp_path, capsys):
    cert = tmp_path / "c.txt"
    assert run(["hamilton", "--k", "61", "--out", str(cert)]) == 0
    lines = cert.read_text().splitlines()
    lines[12], lines[40] = lines[40], lines[12]  # swap two cycle vertices
    cert.write_text("\n".join(lines) + "\n")
    assert run(["verify", "--cert", str(cert)]) == 4
    assert "INVALID" in capsys.readouterr().out


def test_cli_verify_truncated_header_exits_2(tmp_path):
    cert = tmp_path / "c.txt"
    assert run(["hamilton", "--k", "61", "--out", str(cert)]) == 0
    head = cert.read_text().splitlines()[:10]
    cut = tmp_path / "cut.txt"
    for n in range(1, 10):
        cut.write_text("\n".join(head[:n]) + "\n")
        assert run(["verify", "--cert", str(cut)]) == 2, f"{n} header lines"


def test_cli_verify_short_consistent_body_exits_4(tmp_path):
    cert = tmp_path / "c.txt"
    assert run(["hamilton", "--k", "61", "--out", str(cert)]) == 0
    lines = cert.read_text().splitlines()
    del lines[50]
    lines[9] = f"vertices {len(lines) - 10}"
    cert.write_text("\n".join(lines) + "\n")
    assert run(["verify", "--cert", str(cert)]) == 4


# spellings that name the right point but are not the one hamilton writes,
# lines that name no point, and a residue or fiber out of range:
# (k, the vertex line, its replacement)
NONCANONICAL = [
    (61, "17:0", "+17:0"),
    (61, "17:0", "017:0"),
    (61, "inf:0", "inf:00"),
    (61, "17:0", "[2, 0,1,1]:4"),
    (61, "17:0", "17:7"),
    (61, "17:0", "17"),
    (61, "17:0", "61:0"),
    (61, "17:0", "1_7:0"),
    (61, "17:0", "\u0661\u0667:0"),  # 17 in Arabic-Indic digits, which int() reads
    (61, "17:0", "1" * 5000 + ":0"),  # past int()'s digit limit
    # a fiber "" or "12" is a substring of "01234"; ":0" is no beta
    (61, "17:0", "17:"),
    (61, "17:0", "17:12"),
    (61, "17:0", ":0"),
    (81, "[2,0,1,1]:4", "[2,0,1]:4"),
    (81, "[2,0,1,1]:4", "[2, 0,1,1]:4"),
    (81, "[2,0,1,1]:4", "[02,0,1,1]:4"),
    (81, "[2,0,1,1]:4", "[2,0,1,1]:04"),
    (81, "inf:0", "inf:00"),
    (81, "[2,0,1,1]:4", "+17:0"),
    (81, "[2,0,1,1]:4", "[2,0,1,1]:7"),
    (81, "[2,0,1,1]:4", "[2,0,1,1]:"),
]


@pytest.mark.parametrize("k,line,spelling", NONCANONICAL,
                         ids=[f"{k}-{new[:16]}" for k, _, new in NONCANONICAL])
def test_cli_verify_reads_only_the_canonical_spelling(k, line, spelling,
                                                      tmp_path, capsys):
    cert = tmp_path / "c.txt"
    assert run(["hamilton", "--k", str(k), "--out", str(cert)]) == 0
    lines = cert.read_text().splitlines()
    idx = lines.index(line, 10) - 10
    lines[10 + idx] = spelling
    cert.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["verify", "--cert", str(cert)]) == 2
    field = "GF(61)" if k == 61 else "GF(3^4)"
    assert capsys.readouterr().err == (
        f"parameter error: vertex {idx}: {spelling!r} is not a point "
        f"beta:fiber of {field}\n")


# edits of the k = 61 certificate of orbital 0.  A valid body is the
# writer's text of the header's lift, so each edit of the body is a
# parameter error that names the line, or counts the lines; so is a
# version other than 1.
# (name, edit, message)
STRICT_EDITS = [
    ("trailing-space", lambda t: t.replace("\n57:0\n", "\n57:0 \n"),
     "vertex 1: '57:0 ' is not a point beta:fiber of GF(61)"),
    ("leading-space", lambda t: t.replace("\n57:0\n", "\n 57:0\n"),
     "vertex 1: ' 57:0' is not a point beta:fiber of GF(61)"),
    ("crlf", lambda t: t.replace("\n", "\r\n"),
     "line 1: '1\\r' is not a number as str() writes it"),
    ("blank-line-after", lambda t: t + "\n",
     "expected 310 vertex lines, found 311"),
    ("no-final-newline", lambda t: t[:-1], "vertex 309: '22:0' has no line end"),
    ("extra-line", lambda t: t + "inf:0\n", "expected 310 vertex lines, found 311"),
    ("version-2", lambda t: t.replace("psl2ham-certificate 1\n",
                                      "psl2ham-certificate 2\n", 1),
     "unsupported certificate version 2"),
]


@pytest.mark.parametrize("edit,message", [e[1:] for e in STRICT_EDITS],
                         ids=[e[0] for e in STRICT_EDITS])
def test_cli_verify_reads_the_text_exactly(edit, message, tmp_path, capsys):
    cert = tmp_path / "c.txt"
    assert run(["hamilton", "--k", "61", "--out", str(cert)]) == 0
    text = cert.read_text()
    assert edit(text) != text
    cert.write_bytes(edit(text).encode())
    capsys.readouterr()
    assert run(["verify", "--cert", str(cert)]) == 2
    assert capsys.readouterr().err == f"parameter error: {message}\n"


def test_cli_verify_checks_the_claims_before_the_body(tmp_path, capsys):
    # the header's claims are checked before any vertex line is read: a
    # zero total decides (exit 4) over a line that is no point (exit 2)
    cert = tmp_path / "c.txt"
    assert run(["hamilton", "--k", "61", "--out", str(cert)]) == 0
    text = cert.read_text()
    assert "\ntotal 14\n" in text and "\n57:0\n" in text
    cert.write_text(text.replace("\ntotal 14\n", "\ntotal 0\n")
                    .replace("\n57:0\n", "\n57:7\n"))
    capsys.readouterr()
    assert run(["verify", "--cert", str(cert)]) == 4
    assert capsys.readouterr().out == (
        "certificate INVALID: total voltage vanishes mod p\n")


def test_cli_verify_reads_a_pipe(tmp_path):
    # verify reads the file whole, so /dev/stdin works from a pipe
    cert = tmp_path / "c.txt"
    assert run(["hamilton", "--k", "81", "--out", str(cert)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "psl2ham", "verify", "--cert", "/dev/stdin"],
        input=cert.read_bytes(), capture_output=True, env=fresh_process_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"certificate OK: 410 vertices, orbital 0, k=81\n"


# a header number is read only as str() writes it, and entries split on
# single spaces.  Each edit of the k = 61 certificate of orbital 0 keeps
# the numbers int() reads: (line, old, new, the text the message names)
HEADER_NONCANONICAL = [
    (0, " 1", " 01", "01"),
    (1, "61", "+61", "+61"),
    (2, "1", "0001", "0001"),
    (3, "61", "6_1", "6_1"),
    (3, "61", "+61", "+61"),
    (3, "61", "\u0666\u0661", "\u0666\u0661"),  # Arabic-Indic digits
    (4, "31", "3_1", "3_1"),
    (5, "0", "00", "00"),
    (5, "0", "-0", "-0"),
    (6, " 9", " \uff19", "\uff19"),  # a fullwidth digit
    (7, " ", "  ", ""),
    (7, " 5", " 05", "05"),
    (8, "14", "+14", "+14"),
    (9, "310", "3_10", "3_10"),
]
# a header orbital outside 0..4 is as malformed: (line, old, new, message)
HEADER_MALFORMED = [
    (at, old, new, f"{number!r} is not a number as str() writes it")
    for at, old, new, number in HEADER_NONCANONICAL] + [
    (5, "0", "5", "orbital 5 is not in 0..4"),
    (5, "0", "7", "orbital 7 is not in 0..4"),
]


@pytest.mark.parametrize("at,old,new,message", HEADER_MALFORMED, ids=[
    f"{at}-{new.strip() or 'space'}" for at, _, new, _ in HEADER_MALFORMED])
def test_cli_verify_reads_header_numbers_only_as_written(at, old, new, message,
                                                        tmp_path, capsys):
    cert = tmp_path / "c.txt"
    assert run(["hamilton", "--k", "61", "--out", str(cert)]) == 0
    lines = cert.read_text().splitlines()
    assert old in lines[at]
    edited = lines[at].replace(old, new, 1)
    if message.endswith("str() writes it"):  # the numbers int() reads stay
        assert ([int(t) for t in edited.split()[1:]] ==
                [int(t) for t in lines[at].split()[1:]])
    lines[at] = edited
    cert.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["verify", "--cert", str(cert)]) == 2
    assert capsys.readouterr().err == (
        f"parameter error: line {at + 1}: {message}\n")


INSTANCE_COMMANDS = ("build", "quotient", "hamilton", "weil-report", "full-graph")


def test_cli_large_k_guard_is_for_build_only(tmp_path, capsys):
    # hamilton and verify are linear in the 10p points; only build is quadratic
    assert 5101 > DESK_SCALE_MAX_K
    cert = tmp_path / "c.txt"
    assert run(["hamilton", "--k", "5101", "--out", str(cert)]) == 0
    assert run(["verify", "--cert", str(cert)]) == 0
    assert "certificate OK: 25510 vertices" in capsys.readouterr().out
    assert run(["build", "--k", "5101"]) == 2
    assert "desk-scale guard" in capsys.readouterr().err
    # a fixed guard: no command, build included, takes a flag to lift it
    for command in INSTANCE_COMMANDS:
        with pytest.raises(SystemExit) as exc:
            run([command, "--k", "61", "--allow-large"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --allow-large" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    pytest.param([command, "--k", "61", *flag],
                 f"unrecognized arguments: {' '.join(flag)}",
                 id=f"{command}{flag[0]}")
    for command in INSTANCE_COMMANDS for flag in (["--s", "61"], ["--m", "1"])
] + [
    # k alone names an instance; this one used to die of 0 ** -1
    pytest.param(["hamilton", "--s", "0", "--m", "-1"],
                 "the following arguments are required: --k", id="s0-m-1"),
])
def test_cli_takes_no_s_or_m(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# the last stderr line of each usage error, as argparse printed it
USAGE_ERRORS = [
    ([], "psl2ham: error: the following arguments are required: command"),
    (["bogus"], "psl2ham: error: argument command: invalid choice: 'bogus' "
                "(choose from 'instances', 'build', 'quotient', 'hamilton', "
                "'verify', 'weil-report', 'full-graph')"),
    (["hamilton"], "psl2ham hamilton: error: the following arguments are "
                   "required: --k"),
    (["hamilton", "--k"],
     "psl2ham hamilton: error: argument --k: expected one argument"),
    (["hamilton", "--k", "--out", "x"],
     "psl2ham hamilton: error: argument --k: expected one argument"),
    (["hamilton", "--k", "x"],
     "psl2ham hamilton: error: argument --k: invalid int value: 'x'"),
    (["hamilton", "--k", "61", "--orbital"],
     "psl2ham hamilton: error: argument --orbital: expected one argument"),
    (["build", "--k", "61", "--format", "svg"],
     "psl2ham build: error: argument --format: invalid choice: 'svg' "
     "(choose from 'edgelist', 'dot')"),
    (["verify"],
     "psl2ham verify: error: the following arguments are required: --cert"),
    (["instances", "--max-k", "ten"],
     "psl2ham instances: error: argument --max-k: invalid int value: 'ten'"),
    (["hamilton", "--k", "61", "--allow-large"],
     "psl2ham: error: unrecognized arguments: --allow-large"),
    # argparse read a prefix of a flag as the flag: --orb ran as --orbital
    (["hamilton", "--k", "61", "--orb", "1"],
     "psl2ham: error: unrecognized arguments: --orb 1"),
]


@pytest.mark.parametrize("argv,last", USAGE_ERRORS,
                         ids=[" ".join(argv) or "none" for argv, _ in USAGE_ERRORS])
def test_cli_usage_errors_exit_2_with_argparse_messages(argv, last, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: psl2ham")
    assert err.splitlines()[-1] == last


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["hamilton", "--help"],
                                  ["verify", "--cert", "c.txt", "-h"]])
def test_cli_help_names_every_command(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("instances", "build", "quotient", "hamilton", "verify",
                    "weil-report", "full-graph"):
        assert f"\n{command} " in out
    # each flag with its help text and default, read off the table
    assert re.search(r"\n  --orbitals +comma-separated orbital indices "
                     r"\(default 0,1,2,3,4\)\n", out)
    assert re.search(r"\n  --k +field order s\^m \(required\)\n", out)


def test_cli_reads_flag_equals_value_dash_and_negative_values(tmp_path, capsys):
    spaced, joined = tmp_path / "spaced.txt", tmp_path / "joined.txt"
    assert run(["hamilton", "--k", "61", "--out", str(spaced)]) == 0
    assert run(["hamilton", "--k=61", f"--out={joined}"]) == 0
    assert joined.read_bytes() == spaced.read_bytes()
    capsys.readouterr()
    assert run(["hamilton", "--k", "61", "--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == spaced.read_bytes()
    # a negative value reaches the pipeline's range check
    assert run(["hamilton", "--k", "61", "--orbital", "-1"]) == 2
    assert capsys.readouterr().err == (
        "parameter error: orbital index -1 out of range 0..4\n")


HOSTILE_HEADERS = [
    (3, 20, 3486784401, 3),  # 3^20-entry tables for a 3-line body
    (61, 0, 1, 3),           # m < 1
    (1, 7, 1, 3),            # s < 2
    (2, 10**6, 64, 70),      # m far above k.bit_length()
    (3, 4, 82, 90),          # s^m != k
    (9, 2, 81, 90),          # s^m = k, but s is not prime
    (81, 1, 81, 90),         # s = k = 81 is not prime
    (7, 1, 7, 7),            # 10 does not divide k-1
    (31, 1, 31, 31),         # p = 16 is not prime
]


@pytest.mark.parametrize("s,m,k,body", HOSTILE_HEADERS)
def test_cli_verify_rejects_hostile_header_before_field(s, m, k, body, tmp_path,
                                                        monkeypatch, capsys):
    def no_field(*args):
        raise AssertionError("Field built from an unchecked header")

    monkeypatch.setattr("psl2ham.quotient.Field", no_field)
    head = ["psl2ham-certificate 1", f"s {s}", f"m {m}", f"k {k}",
            f"p {(k + 1) // 2}", "orbital 0", "cycle 0 1 2 3 4 5 6 7 8 9",
            "voltages 1 1 1 1 1 1 1 1 1 1", "total 10", f"vertices {body}"]
    cert = tmp_path / "c.txt"
    cert.write_text("\n".join(head + ["inf:0"] * body) + "\n")
    assert run(["verify", "--cert", str(cert)]) == 2
    assert "parameter error" in capsys.readouterr().err


def test_cli_verify_rejects_p_other_than_half_k_plus_one(tmp_path, capsys):
    cert = tmp_path / "c.txt"
    assert run(["hamilton", "--k", "61", "--out", str(cert)]) == 0
    text = cert.read_text()
    assert "\np 31\n" in text
    cert.write_text(text.replace("\np 31\n", "\np 37\n"))
    assert run(["verify", "--cert", str(cert)]) == 2
    assert "not an admissible instance" in capsys.readouterr().err


def test_cli_parameter_errors(tmp_path, monkeypatch, capsys):
    assert run(["hamilton", "--k", "41"]) == 2
    assert run(["hamilton", "--k", "12"]) == 2
    assert run(["hamilton", "--k", "61", "--orbital", "9"]) == 2
    assert run(["verify", "--cert", str(tmp_path / "missing.txt")]) == 2
    assert "parameter error" in capsys.readouterr().err
    # 6561 = 3^8 stops at admissibility: (6561+1)/2 = 3281 = 17*193
    assert run(["build", "--k", "6561"]) == 2
    assert "k = 6561 is not admissible" in capsys.readouterr().err
    # 5041 = 71^2 is admissible, so the guard stops it, before any field
    def no_field(*args):
        raise AssertionError("Field built past the desk-scale guard")

    monkeypatch.setattr("psl2ham.cli.Field", no_field)
    assert run(["build", "--k", "5041"]) == 2
    assert "desk-scale guard" in capsys.readouterr().err


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert run(["hamilton", "--k", "81", "--orbital", "2",
                    "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ea, eb = tmp_path / "a.edges", tmp_path / "b.edges"
    for out in (ea, eb):
        assert run(["build", "--k", "81", "--orbital", "1", "--out", str(out)]) == 0
    assert ea.read_bytes() == eb.read_bytes()


def test_cli_build_exports(tmp_path):
    edge = tmp_path / "g.edges"
    dot = tmp_path / "g.dot"
    assert run(["build", "--k", "61", "--orbital", "0", "--out", str(edge)]) == 0
    assert run(["build", "--k", "61", "--orbital", "0", "--format", "dot",
                "--out", str(dot)]) == 0
    lines = edge.read_text().splitlines()
    assert len(lines) == 9455
    assert dot.read_text().startswith('graph "Y0_k61"')


def test_cli_quotient_and_weil_report(capsys):
    assert run(["quotient", "--k", "61", "--orbital", "0"]) == 0
    out = capsys.readouterr().out
    assert "multiplicities:" in out and "voltages:" in out
    assert run(["weil-report", "--k", "61"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 + 375
    assert all(row.endswith("True") for row in out[1:])


FORGED_CLAIMS = [
    ("cycle 9 8 7 6 5 4 3 2 1 0", "voltages 1 1 1 1 1 1 1 1 1 1", "total 1"),
    ("cycle 0 0 0 0 0 0 0 0 0", "voltages 5", "total 3"),
    # consistent arithmetic: only the lift of these claims contradicts the
    # vertices
    ("cycle 9 8 7 6 5 4 3 2 1 0", "voltages 1 1 1 1 1 1 1 1 1 1", "total 10"),
]


@pytest.mark.parametrize("claims", FORGED_CLAIMS)
def test_cli_verify_rejects_forged_header_claims(claims, tmp_path, capsys):
    # a valid k=61 cycle under a header whose cycle, voltages and total lie
    cert = tmp_path / "c.txt"
    assert run(["hamilton", "--k", "61", "--out", str(cert)]) == 0
    lines = cert.read_text().splitlines()
    assert [ln.split()[0] for ln in lines[6:9]] == ["cycle", "voltages", "total"]
    lines[6:9] = claims
    cert.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["verify", "--cert", str(cert)]) == 4
    assert "certificate INVALID" in capsys.readouterr().out


# one non-ASCII digit of each value from three scripts: Arabic-Indic,
# Devanagari and fullwidth; int() reads them all, the certificate none
NON_ASCII_DIGITS = [chr(base + d) for base in (0x660, 0x966, 0xFF10)
                    for d in range(10)]


def _mutation(blob: bytes, data) -> bytes:
    """One edit of a certificate: a line dropped, duplicated or swapped
    with another, the text cut at any byte, one number of the header
    replaced, or one digit of a vertex line made non-ASCII."""
    lines = blob.splitlines(keepends=True)
    kind = data.draw(st.sampled_from(
        ["drop", "dup", "swap", "cut", "header", "digit"]))
    if kind == "cut" or not lines:
        return blob[:data.draw(st.integers(0, len(blob)))]
    if kind in ("drop", "dup", "swap"):
        at, other = (data.draw(st.integers(0, len(lines) - 1))
                     for _ in range(2))
        if kind == "drop":
            del lines[at]
        elif kind == "dup":
            lines.insert(at, lines[at])
        else:
            lines[at], lines[other] = lines[other], lines[at]
        return b"".join(lines)
    header = kind == "header"
    rows = range(1, min(10, len(lines))) if header else range(10, len(lines))
    if not rows:
        return blob
    at = data.draw(st.sampled_from(rows))
    spans = [m.span() for m in re.finditer(rb"\d+" if header else rb"\d",
                                           lines[at])]
    if not spans:
        return blob
    lo, hi = data.draw(st.sampled_from(spans))
    new = (str(data.draw(st.integers(-2, 1000))) if header else
           data.draw(st.sampled_from(NON_ASCII_DIGITS)))
    lines[at] = lines[at][:lo] + new.encode() + lines[at][hi:]
    return b"".join(lines)


def _forged(blob: bytes, data) -> bytes:
    """A valid certificate with one voltage replaced and the total set to
    the new sum: a false claim that passes the header arithmetic."""
    lines = blob.splitlines(keepends=True)
    p = int(lines[4].split()[1])
    volts = [int(w) for w in lines[7].split()[1:]]
    volts[data.draw(st.integers(0, 9))] = data.draw(st.integers(0, p - 1))
    lines[7] = ("voltages " + " ".join(map(str, volts)) + "\n").encode()
    lines[8] = f"total {sum(volts) % p}\n".encode()
    return b"".join(lines)


def _relifted(blob: bytes, data) -> bytes:
    """`_forged`, with the vertex lines rewritten as the lift of its
    header: claims that match the vertices, which only the edge check
    can refuse."""
    cert = reference.read_certificate(_forged(blob, data).decode())
    return "".join(certificate_chunks(cert._replace(vertices=lift(
        s_orbits(cert.field), cert.cycle, cert.chosen_voltages)))).encode()


def _is_the_lift_of_its_header(cert) -> bool:
    """The vertices are a Hamilton cycle of Y(i) by the reference class
    table, and they are `unroll_lift` of the header over the reference
    walks of the S-orbits."""
    field, i, verts = cert.field, cert.orbital_index, list(cert.vertices)
    k, k1, lex = field.order, field.order + 1, field.elements_lex
    table = reference.class_table(field)
    if sorted(verts) != list(range(5 * k1)):
        return False
    for v, w in zip(verts, verts[1:] + verts[:1]):
        (f, r), (g, q) = divmod(v, k1), divmod(w, k1)
        chi = table[lex[r - 1] * k + lex[q - 1]] if r and q else 0
        if r == q or (f + g - i - chi) % 5:
            return False
    walked = reference.walked_orbits(field)
    comps = reference.unroll_lift(SimpleNamespace(p=(k + 1) // 2,
                                                  orbits=walked[::5]),
                                  cert.chosen_voltages)
    return cert.cycle == tuple(range(10)) and [verts] == [list(c) for c in comps]


@pytest.fixture(scope="module")
def fuzz_certs(fields):
    return {(k, i): "".join(certificate_chunks(run_pipeline(fields[k], i)))
            .encode() for k in (61, 81) for i in range(5)}


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cert.txt"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_verify_is_total_on_mutated_certificates(fuzz_certs, fuzz_file,
                                                     data):
    # verify exits 0, 2 or 4 on any edit of a valid k = 61 or 81 certificate,
    # and exits 0 only on a Hamilton cycle that is the lift of its header;
    # the unedited certificates are drawn too, and `_relifted` claims are
    # the only ones that reach the edge check.  The oracle reads the
    # certificate with the reference reader, not the package
    blob = fuzz_certs[data.draw(st.sampled_from(sorted(fuzz_certs)))]
    forge = data.draw(st.sampled_from([None, _forged, _relifted]))
    if forge:
        blob = forge(blob, data)
    for _ in range(data.draw(st.integers(0, 2))):
        blob = _mutation(blob, data)
    fuzz_file.write_bytes(blob)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        status = run(["verify", "--cert", str(fuzz_file)])
    assert status in (0, 2, 4)
    if status == 0:
        assert _is_the_lift_of_its_header(
            reference.read_certificate(blob.decode()))


def test_cli_full_graph(tmp_path):
    cert = tmp_path / "u.txt"
    assert run(["full-graph", "--k", "61", "--orbitals", "0,2,4",
                "--out", str(cert)]) == 0
    assert run(["verify", "--cert", str(cert)]) == 0


def test_fresh_process_verification(tmp_path):
    # emitted certificates must verify in an entirely new interpreter
    cert = tmp_path / "c.txt"
    assert run(["hamilton", "--k", "61", "--orbital", "4", "--out", str(cert)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "psl2ham", "verify", "--cert", str(cert)],
        capture_output=True, text=True, env=fresh_process_env())
    assert proc.returncode == 0, proc.stderr
    assert "certificate OK" in proc.stdout
