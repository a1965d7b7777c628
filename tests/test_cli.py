import hashlib
import json
import shlex
from pathlib import Path

import pytest

from permchar.cli import MAX_MIN_PAIRS, main

from helpers import save_group_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "--family", "s4", "--subgroup", "sylow2")
    assert code == 0
    assert out.strip() == "1a+2a"


def test_decompose_json_round_trip(capsys):
    code, out, _ = run(capsys, "decompose", "--family", "s4", "--subgroup", "sylow2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposition"] == "1a+2a"
    assert payload["index"] == 3


def test_fsind_q8(capsys):
    code, out, _ = run(capsys, "fsind", "--family", "q8")
    assert code == 0
    assert "2a: degree 2 indicator -1" in out


def test_table_verb_round_trips(capsys):
    code, out, _ = run(capsys, "table", "--family", "s3")
    assert code == 0
    from permchar.tableio import parse_table

    T = parse_table(out)
    assert T.degrees == [1, 1, 2]


def test_real_classes_verb(capsys):
    code, out, _ = run(capsys, "real-classes", "--family", "agl1_27")
    assert code == 0
    assert "3 real classes" in out


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "theorem-d", "--family", "c6")
    assert code == 0
    assert "[pass]" in out


@pytest.mark.parametrize("family, simple", [("c3", False), ("s4", False), ("a5", True)])
def test_simple_avoidance_reads_its_hypothesis_off_the_table(capsys, family, simple):
    code, out, _ = run(capsys, "verify", "simple-avoidance", "--family", family)
    assert code == 0
    assert "[pass]" in out
    assert f"hypothesis nonabelian_simple: {simple}" in out


def test_verify_json_and_text_agree(capsys):
    code1, out1, _ = run(capsys, "verify", "theorem-a", "--family", "s4", "--subgroup", "sylow2")
    code2, out2, _ = run(capsys, "verify", "theorem-a", "--family", "s4", "--subgroup", "sylow2", "--json")
    assert code1 == code2 == 0
    payload = json.loads(out2)
    assert payload[0]["pass"] is True


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # missing required selector
    code, _, err = run(capsys, "decompose", "--family", "s4")
    assert code == 2
    assert "subgroup" in err


@pytest.mark.parametrize("verb", ["reproduce", "sweep", "table"])
def test_jobs_flag_is_a_usage_error(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--family", "s3", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def _exit_code(argv) -> int:
    """main's exit status, whether argparse rejects argv or main returns."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    # reproduce and sweep read no group, table or threshold
    ["reproduce", "--family", "nosuch"],
    ["reproduce", "--group-file", "/nonexistent.grp"],
    ["reproduce", "--table-file", "/nonexistent.ctbl"],
    ["reproduce", "--threshold", "1"],
    ["sweep", "--family", "nosuch"],
    ["sweep", "--group-file", "/nonexistent.grp"],
    ["sweep", "--table-file", "/nonexistent.ctbl"],
    ["sweep", "--threshold", "1", "--min-pairs", "1"],
    # statements about the whole group take no subgroup
    ["verify", "theorem-d", "--family", "c6", "--subgroup", "bogus"],
    ["verify", "burnside", "--family", "c3", "--subgroup", "bogus"],
    ["verify", "simple-avoidance", "--family", "c6", "--subgroup", "sylow2"],
    ["verify", "c3q16", "--subgroup", "bogus"],
    # c3q16 checks its own two groups
    ["verify", "c3q16", "--group-file", "/nonexistent.grp"],
    ["verify", "c3q16", "--table-file", "/nonexistent.ctbl"],
    ["verify", "c3q16", "--family", "s4"],
    ["verify", "c3q16", "--threshold", "1"],
])
def test_options_a_verb_does_not_read_are_usage_errors(capsys, argv):
    assert _exit_code(argv) == 2
    assert capsys.readouterr().err


def test_family_and_group_file_together_are_a_usage_error(tmp_path, capsys):
    from permchar import corpus

    path = tmp_path / "g.grp"
    save_group_file(path, corpus.build("s4").group, "s4copy")
    code, out, err = run(capsys, "decompose", "--group-file", str(path), "--family", "a5",
                         "--subgroup", "sylow2")
    assert (code, out) == (2, "")
    assert "--family" in err and "--group-file" in err


def test_unknown_family_is_an_error(capsys):
    code, _, err = run(capsys, "decompose", "--family", "nope", "--subgroup", "x")
    assert code == 2
    assert err


def _bad_s3_table(tmp_path, name, old, new):
    from permchar.corpus import data_dir

    path = tmp_path / f"{name}.ctbl"
    path.write_text((data_dir() / "tables" / "s3.ctbl").read_text().replace(old, new))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["decompose", "--family", "s4", "--subgroup", "nope"],
    ["decompose", "--family", "s4", "--subgroup", "point4"],
    ["decompose", "--family", "f4_3", "--subgroup", "whole"],
    ["fsind", "--family", "s3", "--table-file", "{syntax}"],
    ["fsind", "--family", "s3", "--table-file", "{invalid}"],
    ["fsind", "--family", "s4", "--table-file", "{s3}"],
    ["fsind", "--group-file", "{group}"],
    ["table", "--family", "s3", "--table-file", "{empty}"],
    ["table", "--family", "c2000000000"],
    # refused before any context is built
    ["sweep", "--min-pairs", "-1"],
    ["sweep", "--min-pairs", str(MAX_MIN_PAIRS + 1)],
])
def test_input_errors_exit_2(tmp_path, capsys, argv):
    from permchar.corpus import data_dir

    group = tmp_path / "g.grp"
    group.write_text("# order: 999\ndegree 4\n(1,2)\n")
    empty = tmp_path / "empty.ctbl"
    empty.write_text("name x\norder 0\nclasses 0\nsizes\norders\n")
    files = {
        "syntax": _bad_s3_table(tmp_path, "syntax", "power 2 ", "power 0 "),
        "invalid": _bad_s3_table(tmp_path, "invalid", "chi 2 0 -1", "chi 2 0 1"),
        "s3": str(data_dir() / "tables" / "s3.ctbl"),
        "group": str(group),
        "empty": str(empty),
    }
    code, _, err = run(capsys, *[a.format(**files) for a in argv])
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_failed_check_exits_1_and_internal_error_exits_3(capsys, monkeypatch):
    from permchar import verify

    def failing(ctx):
        return verify.VerificationReport("burnside-odd-order", ctx.name, None, {}, {})

    monkeypatch.setattr(verify, "check_burnside", failing)
    code, out, _ = run(capsys, "verify", "burnside", "--family", "c3")
    assert code == 1 and "[FAIL]" in out

    def broken(ctx):
        raise AssertionError("invariant broken")

    monkeypatch.setattr(verify, "check_burnside", broken)
    code, _, err = run(capsys, "verify", "burnside", "--family", "c3")
    assert code == 3 and "invariant broken" in err


def test_group_file_input(tmp_path, capsys):
    from permchar import corpus

    path = tmp_path / "g.grp"
    save_group_file(path, corpus.build("s4").group, "s4copy")
    code, out, _ = run(capsys, "fsind", "--group-file", str(path))
    assert code == 0
    assert out.count("degree") == 5


def test_a_group_file_named_like_a_mathieu_group_gets_its_own_table(tmp_path, capsys):
    """Only a corpus family selects a bundled table, not a file's name."""
    from permchar import corpus

    path = tmp_path / "m22.grp"
    save_group_file(path, corpus.build("s4").group, "s4copy")
    code, out, err = run(capsys, "fsind", "--group-file", str(path))
    assert code == 0, err
    assert out == run(capsys, "fsind", "--family", "s4")[1]


def test_data_dir_override(tmp_path, capsys):
    # an empty data dir must break bundled-table loading loudly
    code, _, err = run(capsys, "decompose", "--family", "m11", "--subgroup", "s5",
                       "--data-dir", str(tmp_path))
    assert code == 2
    # and must not outlive the call
    code, out, _ = run(capsys, "decompose", "--family", "m11", "--subgroup", "s5")
    assert code == 0
    assert out.strip() == "1a+10a+11a+44a"


def test_theorem_d_with_a_table_file(tmp_path, capsys):
    from permchar import corpus

    table = str(corpus.data_dir() / "tables" / "m11.ctbl")
    code, out, _ = run(capsys, "verify", "theorem-d", "--family", "m11", "--table-file", table)
    assert code == 0 and "[pass]" in out
    path = tmp_path / "g.grp"
    save_group_file(path, corpus.build("m11").group, "m11copy")
    code, out, _ = run(capsys, "verify", "theorem-d", "--group-file", str(path),
                       "--table-file", table)
    assert code == 0 and "[pass] theorem-D: g" in out


@pytest.mark.parametrize("family", ["d16", "c12", "agl1_13", "sl23"])
def test_decompose_against_the_groups_own_table_file(tmp_path, capsys, family):
    """A table written by `table` matches back onto its group, including
    Galois-conjugate columns that no stored power map reaches (c12's four
    classes of generators), and decomposes as the computed table does."""
    code, out, _ = run(capsys, "table", "--family", family)
    assert code == 0
    path = tmp_path / f"{family}.ctbl"
    path.write_text(out)
    for subgroup in ["trivial", "sylow2"]:
        argv = ["decompose", "--family", family, "--subgroup", subgroup]
        code, direct, _ = run(capsys, *argv)
        assert code == 0
        code, matched, err = run(capsys, *argv, "--table-file", str(path))
        assert (code, matched) == (0, direct), err


def test_a_table_file_that_cannot_be_matched_exits_2(tmp_path, capsys):
    # q8's three order-4 classes share a cycle type and a size, and are not
    # Galois conjugates: no sample tells them apart
    code, out, _ = run(capsys, "table", "--family", "q8")
    assert code == 0
    path = tmp_path / "q8.ctbl"
    path.write_text(out)
    code, _, err = run(capsys, "decompose", "--family", "q8", "--subgroup", "trivial",
                       "--table-file", str(path))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("old, new", [
    ("E(3)", "E(0_3)"),
    ("E(3)", "E(٣)"),
    ("order 3", "order ٣"),
])
def test_a_table_file_with_digits_that_are_not_ascii_exits_2(tmp_path, capsys, old, new):
    """int() reads `_` separators and non-ASCII digits such as U+0663
    (ARABIC-INDIC DIGIT THREE); the table grammar is ASCII."""
    code, out, _ = run(capsys, "table", "--family", "c3")
    assert code == 0 and old in out
    path = tmp_path / "c3.ctbl"
    path.write_text(out.replace(old, new), encoding="utf-8")
    code, _, err = run(capsys, "decompose", "--family", "c3", "--subgroup", "trivial",
                       "--table-file", str(path))
    assert code == 2 and err.startswith("error:")


def test_theorem_d_over_the_threshold_exits_2(capsys):
    code, _, err = run(capsys, "verify", "theorem-d", "--family", "m23")
    assert code == 2
    assert err.startswith("error:") and "exceeds enumeration threshold" in err


def test_verify_c3q16(capsys):
    code, out, _ = run(capsys, "verify", "c3q16", "--family", "c3q16")
    assert code == 0


def test_verify_c3q16_needs_no_family(capsys):
    # the check builds its own groups, so no --family is required
    code, out, _ = run(capsys, "verify", "c3q16", "--json")
    assert code == 0
    assert run(capsys, "verify", "c3q16", "--family", "c3q16", "--json") == (0, out, "")
    # family names are read without regard to case, as corpus.build reads them
    assert run(capsys, "verify", "c3q16", "--family", "C3Q16", "--json") == (0, out, "")


# sha256 of stdout. A change that alters one of these outputs on purpose
# updates its pin and says so in CHANGES.md.
PINNED_OUTPUTS = [
    (("sweep", "--min-pairs", "500", "--json"),
     "d7bbb9201815009f93794da3cc59f842cab7362124c335574d521a5fa8de1bc2"),
    (("reproduce", "--json"),
     "f86bfb4d9f1e813bc8396b74e2d1243223fe72b408b63fba571421f8dc6e7236"),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUTS, ids=["sweep", "reproduce"])
def test_outputs_match_their_pinned_digests(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (argv, exit status, sha256 of stdout) for every verb, in text and --json
# mode; the same contract as PINNED_OUTPUTS.
PINNED_VERB_OUTPUTS = [
    (("table", "--family", "s4"), 0,
     "88e782e95a29bbb6cc6a356a70e07645f13f924f329d0cf6ea1a6b079405085d"),
    (("table", "--family", "s4", "--json"), 0,
     "45bdd8c0ca2d5acf0758aec223bd1822a8da725a8ff75106df76443471b268d9"),
    (("fsind", "--family", "q8"), 0,
     "a364c738d3abbe34e12307bd1a292139fc8a5e126af43e117ce12ba3616aac95"),
    (("fsind", "--family", "q8", "--json"), 0,
     "18b2cd4f7dca114d94874f0ddec1e5f7f7aecb18622c0265512575b715fccc9b"),
    (("real-classes", "--family", "agl1_27"), 0,
     "4478ea02b3745282217542e266b75f36427bf659a5f29d17007a13bcdee9a2b3"),
    (("real-classes", "--family", "agl1_27", "--json"), 0,
     "fff32bd6f80c0fe4ada703f3a125f61feee328485ddef9023da11e755c07c1e1"),
    (("decompose", "--family", "m11", "--subgroup", "s5"), 0,
     "f38dabacc5c8d341c3df466ff434748a789deb182408ddca27b7400a0eae6a14"),
    (("decompose", "--family", "m11", "--subgroup", "s5", "--json"), 0,
     "90576c643b852b09b6cdca4c498282cd66dba48609b0b7f9908864c72ea661bb"),
    (("verify", "theorem-a", "--family", "s4", "--subgroup", "sylow2"), 0,
     "b728d9cf5b588f4d90460063afd13774c379142a0634c3c0f05808e9064705bd"),
    (("verify", "theorem-a", "--family", "s4", "--subgroup", "sylow2", "--json"), 0,
     "9f755f8244b00ac82b9961e4558bc149dc4bcad859cfae1c1201a1a72a888a14"),
    (("verify", "theorem-d", "--family", "m11"), 0,
     "415080c5aa605dd74a04ed278b5380f53b5edeffa50b7f2a781059d06435f67d"),
    (("verify", "theorem-d", "--family", "m11", "--json"), 0,
     "dd865645efb9a05149bfea6e9287e50d77fc577f78e2683d3d811653ea9dd3cd"),
    (("verify", "c3q16"), 0,
     "ce869ab3d6f50f02d4190cce719b8cba2f35452fda95bf1b19bc4b3a2b6fe418"),
    (("verify", "c3q16", "--json"), 0,
     "bf915fd6ccae6bd263af23a2d388ba998f0d120f3dcee4b63b29d2eccc650759"),
    (("reproduce",), 0,
     "16065f1c117a1b602ee7e5376112c5b0e0b706228d5605bcd52d0afa9c590927"),
    (("reproduce", "--json"), 0,
     "f86bfb4d9f1e813bc8396b74e2d1243223fe72b408b63fba571421f8dc6e7236"),
    (("sweep", "--min-pairs", "1"), 0,
     "d051468c397dbc84db3c4483eaa9b516a89af408c8b16605a7b7efa423e7d835"),
    (("sweep", "--min-pairs", "1", "--json"), 0,
     "57b9c29d2bff2aa01d236b62b9ee2f78de2b78f36d91819f8395c01e5b56e345"),
]


@pytest.mark.parametrize("argv,status,digest", PINNED_VERB_OUTPUTS,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_VERB_OUTPUTS])
def test_every_verb_output_matches_its_pin(capsys, argv, status, digest):
    code, out, _ = run(capsys, *argv)
    assert code == status
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_text_mode_converts_no_report(capsys, monkeypatch):
    """Text mode prints the failures and the counts only, so no report is
    converted to JSON: with `to_json` raising, stdout still matches its pin."""
    from permchar.verify import VerificationReport

    def unconverted(self):
        raise AssertionError("text mode converted a report to JSON")

    monkeypatch.setattr(VerificationReport, "to_json", unconverted)
    argv, status, digest = next(pin for pin in PINNED_VERB_OUTPUTS
                                if pin[0] == ("sweep", "--min-pairs", "1"))
    code, out, _ = run(capsys, *argv)
    assert code == status
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _readme_examples() -> list:
    """The `permchar ...` lines of the README's "Command line" block, as
    (argv, the output after `# ->` or None)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("permchar "):
            comment = comment.strip()
            expected = comment[3:] if comment.startswith("-> ") else None
            out.append((tuple(shlex.split(command)[1:]), expected))
    return out


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv,expected", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples_run_as_documented(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    if expected is not None:
        assert out.strip() == expected
