"""Exit codes, output formats, and piping behavior of the command line tool."""

import io
import json
import sys

import pytest

from positroids import VerificationReport
from positroids.cli import run

GOLDEN_PERM = "8,1,4,2,5+,7,3,6"
GOLDEN_NECKLACE = "1,2,3,6;2,3,6,8;1,3,6,8;1,4,6,8;1,2,6,8;1,2,6,8;1,2,7,8;1,2,3,8"


def out_of(capsys):
    return capsys.readouterr().out.strip()


def test_necklace_text(capsys):
    assert run(["necklace", "--perm", GOLDEN_PERM]) == 0
    assert out_of(capsys) == GOLDEN_NECKLACE


def test_necklace_json(capsys):
    assert run(["necklace", "--format", "json", "--perm", GOLDEN_PERM]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["n"] == 8 and obj["k"] == 4
    assert obj["entries"][0] == [1, 2, 3, 6]


def test_format_accepted_before_subcommand(capsys):
    assert run(["--format", "json", "perm", "--necklace", GOLDEN_NECKLACE]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["perm"] == [8, 1, 4, 2, 5, 7, 3, 6]
    assert obj["col"] == {"5": 1}


def test_necklace_perm_round_trip_is_byte_identical(capsys):
    for perm in (GOLDEN_PERM, "2,1", "1-", "6,1,4,8,2,7,3,5", "1+,2-,4,3"):
        assert run(["necklace", "--perm", perm]) == 0
        necklace = out_of(capsys)
        assert run(["perm", "--necklace", necklace]) == 0
        assert out_of(capsys) == perm


def test_bases_sources_agree(capsys):
    assert run(["bases", "--perm", GOLDEN_PERM]) == 0
    by_perm = out_of(capsys)
    assert run(["bases", "--necklace", GOLDEN_NECKLACE]) == 0
    assert out_of(capsys) == by_perm
    assert by_perm.split(";")[0] == "1,2,3,6"


def test_bases_of_one_basis_perm_at_n_40(capsys):
    # 20 coloops and 20 loops: the one basis is the coloops
    perm = ",".join([f"{i}-" for i in range(1, 21)] + [f"{i}+" for i in range(21, 41)])
    assert run(["bases", "--perm", perm]) == 0
    assert out_of(capsys) == ",".join(map(str, range(1, 21)))


def test_contract_golden(capsys):
    assert run(["contract", "--perm", "6,1,4,8,2,7,3,5", "-j", "3"]) == 0
    assert out_of(capsys) == "6,1,3+,4+,8,7,2,5"


def test_restrict_golden(capsys):
    assert run(["restrict", "--perm", "6,1,4,8,2,7,3,5", "-j", "5"]) == 0
    assert out_of(capsys) == GOLDEN_PERM


def test_trace_keeps_result_line(capsys):
    assert run(["contract", "--perm", "6,1,4,8,2,7,3,5", "-j", "3", "--trace"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0].startswith("contraction at j=3:")
    assert "Case4a" in "\n".join(lines)
    assert lines[-1] == "6,1,3+,4+,8,7,2,5"


def test_trace_json(capsys):
    assert run(["restrict", "--format", "json", "--perm", "6,1,4,8,2,7,3,5",
                "-j", "5", "--trace"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["result"]["perm"] == [8, 1, 4, 2, 5, 7, 3, 6]
    assert obj["steps"] == [{"j": 5, "degenerate": False}]
    assert obj["traces"][0]["rows"][4]["case"] == "R-start"


def test_sequential_j(capsys):
    assert run(["contract", "--perm", "6,1,4,8,2,7,3,5", "-j", "3", "-j", "5"]) == 0
    combined = out_of(capsys)
    assert run(["contract", "--perm", "6,1,3+,4+,8,7,2,5", "-j", "5"]) == 0
    assert out_of(capsys) == combined


def test_degenerate_warning(capsys):
    assert run(["contract", "--perm", "1+,3,2", "-j", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "1+,2+,3+"
    assert "degenerate" in captured.err


def test_stdin_dash(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOLDEN_PERM + "\n"))
    assert run(["necklace", "--perm", "-"]) == 0
    assert out_of(capsys) == GOLDEN_NECKLACE


def test_is_positroid(capsys):
    assert run(["is-positroid", "--bases", "1,2;1,3;2,3"]) == 0
    assert out_of(capsys) == "positroid: true\nmatroid-exchange: true"
    assert run(["is-positroid", "--format", "json", "--bases", "1,2;2,3;3,4;1,4"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj == {"n": 4, "k": 2, "positroid": False, "matroid_exchange": True}


def test_is_positroid_with_explicit_n(capsys):
    # {1},{2} with a loop 3: still a positroid, but n changes the answer shape
    assert run(["is-positroid", "--bases", "1;2", "--n", "3"]) == 0
    assert out_of(capsys) == "positroid: true\nmatroid-exchange: true"
    assert run(["is-positroid", "--format", "json", "--bases", "1;2"]) == 0
    assert json.loads(out_of(capsys))["n"] == 2


def test_verify_clean(capsys):
    assert run(["verify", "--max-n", "2"]) == 0
    lines = out_of(capsys).splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("n=1 ") and "ok" in lines[0]


def test_verify_json(capsys):
    assert run(["verify", "--max-n", "2", "--format", "json", "--kind", "contraction"]) == 0
    reports = json.loads(out_of(capsys))
    assert [r["n"] for r in reports] == [1, 2]
    assert all(r["mismatches"] == 0 for r in reports)
    assert reports[0]["kind"] == "contraction"


def test_verify_mismatch_exits_2(monkeypatch, capsys):
    stub = VerificationReport(
        n=1, kind="both", instances_checked=1, degenerate_skipped=0, mismatches=1,
        check_failures={"oracle": 1}, first_failure="stub", elapsed=0.0,
    )
    monkeypatch.setattr("positroids.oracle.verify_all", lambda *a, **k: stub)
    assert run(["verify", "--max-n", "1"]) == 2
    assert "FAIL" in out_of(capsys)


def test_input_errors_exit_1(capsys):
    assert run(["necklace", "--perm", "3,2,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "token 2" in err
    assert run(["perm", "--necklace", "1;1;2"]) == 1
    assert run(["is-positroid", "--bases", ";"]) == 1
    assert run(["verify", "--max-n", "99"]) == 1


def test_bases_below_1_named(capsys):
    assert run(["is-positroid", "--bases", "0"]) == 1
    assert capsys.readouterr().err == "error: element 0 is out of range: elements start at 1\n"
    assert run(["is-positroid", "--bases=-1;0"]) == 1
    assert capsys.readouterr().err == "error: element -1 is out of range: elements start at 1\n"


def test_usage_errors_exit_1(capsys):
    assert run(["necklace"]) == 1
    assert run(["no-such-command"]) == 1
    assert run([]) == 1
    assert run(["contract", "--perm", "2,1"]) == 1  # missing -j
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "positroids" in out_of(capsys)


WARNING_2 = ("warning: deleting j=2 is degenerate (no minor of the expected rank exists on this ground set); "
             "returning the identity with all fixed points +1")
COMMAND_CHOICES = "'necklace', 'perm', 'bases', 'contract', 'restrict', 'is-positroid', 'verify'"
NECKLACE_2_1_JSON = '{\n  "n": 2,\n  "k": 1,\n  "entries": [\n    [\n      1\n    ],\n    [\n      2\n    ]\n  ]\n}\n'

# (argv, exit status, stdout, last stderr line), as the argparse parser answered them; the usage block
# above a usage error's last line is not pinned
COMMAND_LINES = [
    ([], 1, "", "positroids: error: the following arguments are required: command"),
    (["no-such"], 1, "",
     f"positroids: error: argument command: invalid choice: 'no-such' (choose from {COMMAND_CHOICES})"),
    (["necklace"], 1, "", "positroids necklace: error: the following arguments are required: --perm"),
    (["necklace", "--perm"], 1, "", "positroids necklace: error: argument --perm: expected one argument"),
    (["necklace", "--perm", "2,1", "extra"], 1, "", "positroids: error: unrecognized arguments: extra"),
    (["necklace", "--perm", "2,1", "--trace"], 1, "", "positroids: error: unrecognized arguments: --trace"),
    (["contract", "--perm", "2,1"], 1, "", "positroids contract: error: the following arguments are required: -j"),
    (["contract", "--perm", "2,1", "-j", "x"], 1, "",
     "positroids contract: error: argument -j: invalid int value: 'x'"),
    (["contract", "--perm", "2,1", "-j", "1", "--trace=yes"], 1, "",
     "positroids contract: error: argument --trace: ignored explicit argument 'yes'"),
    (["--format", "xml", "necklace", "--perm", "2,1"], 1, "",
     "positroids: error: argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    (["verify", "--max-n", "x"], 1, "", "positroids verify: error: argument --max-n: invalid int value: 'x'"),
    (["verify", "--max-n", "2", "--kind", "bad"], 1, "",
     "positroids verify: error: argument --kind: invalid choice: 'bad' "
     "(choose from 'contraction', 'restriction', 'both')"),
    (["bases"], 1, "", "positroids bases: error: one of the arguments --perm --necklace is required"),
    (["bases", "--perm", "2,1", "--necklace", "1;2"], 1, "",
     "positroids bases: error: argument --necklace: not allowed with argument --perm"),
    (["necklace", "--=x"], 1, "", "positroids: error: ambiguous option: --=x could match --help, --format"),
    (["--", "necklace", "--perm", "2,1"], 1, "",
     f"positroids: error: argument command: invalid choice: '--' (choose from {COMMAND_CHOICES})"),
    (["necklace", "--perm", "2,1", "--", "x"], 1, "", "positroids: error: unrecognized arguments: -- x"),
    (["--zzz", "necklace", "--perm", "2,1", "-x"], 1, "", "positroids: error: unrecognized arguments: --zzz -x"),
    (["-hx"], 1, "", "positroids: error: argument -h/--help: ignored explicit argument 'x'"),
    (["necklace", "--perm", "--trace"], 1, "", "positroids necklace: error: argument --perm: expected one argument"),
    # accepted: unique prefixes, --opt=value, -jJ, the last of a repeated option, --format on either side
    (["necklace", "--pe", "2,1"], 0, "1;2\n", ""),
    (["--form", "json", "necklace", "--perm", "2,1"], 0, NECKLACE_2_1_JSON, ""),
    (["contract", "--perm", "2,1", "-j2"], 0, "1+,2+\n", ""),
    (["necklace", "--perm=2,1"], 0, "1;2\n", ""),
    (["necklace", "--perm", "2,1", "--perm", "1+,2+"], 0, ";\n", ""),
    (["--format", "json", "contract", "--perm", "2,1", "-j", "1", "--format", "text"], 0, "1+,2+\n", ""),
    (["restrict", "--perm", "2,1", "-j", "1", "-j", "2"], 0, "1+,2+\n", WARNING_2),
    (["--format=json", "--format", "text", "perm", "--n", "1;2"], 0, "2,1\n", ""),
    # a negative number is a value, not an option
    (["contract", "--perm", "2,1", "-j", "-1"], 1, "", "error: element -1 is out of range 1..2"),
]


@pytest.mark.parametrize(
    "argv, status, out, last_err", COMMAND_LINES, ids=[" ".join(row[0]) or "-" for row in COMMAND_LINES],
)
def test_command_line_table(capsys, argv, status, out, last_err):
    assert run(argv) == status
    captured = capsys.readouterr()
    assert captured.out == out
    assert (captured.err.splitlines() or [""])[-1] == last_err
    if last_err.startswith("positroids"):
        assert captured.err.startswith(f"usage: {last_err.split(':')[0]}")


COMMANDS = ["necklace", "perm", "bases", "contract", "restrict", "is-positroid", "verify"]


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["--format", "json", "--he"], ["necklace", "-x", "-h"], ["contract", "-hj", "1"]],
)
def test_help_lists_the_commands_or_the_options(capsys, argv):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"usage: positroids {argv[0] if argv[0] in COMMANDS else '[-h]'}")
    named = COMMANDS if argv[0] not in COMMANDS else ["--perm"]
    assert all(f"  {name} " in captured.out for name in named)


@pytest.mark.parametrize("command, options", [
    ("necklace", ["--format", "--perm"]), ("perm", ["--necklace"]), ("bases", ["--perm", "--necklace"]),
    ("contract", ["--perm", "-j", "--trace"]), ("restrict", ["--perm", "-j", "--trace"]),
    ("is-positroid", ["--bases", "--n"]), ("verify", ["--max-n", "--kind", "--jobs"]),
])
def test_command_help_names_its_options(capsys, command, options):
    # -h wins over the missing required options, and -hh reads on as -h -h
    for argv in ([command, "-h"], [command, "--help"], [command, "-hh"]):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: positroids {command} ")
        assert all(f"\n  {option} " in out for option in ["-h, --help", *options])
