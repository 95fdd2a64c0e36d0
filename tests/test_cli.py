import _pyio
import functools
import inspect
import json
import math
import os
import re
import time
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsagg import cli, rates as rates_mod, scheme as scheme_mod
from hsagg.cli import (
    EXIT_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    SchemeFileError,
    load_scheme,
    save_scheme,
    scheme_from_text,
)
from hsagg.combi import all_users, count_groups
from hsagg.gf import make_field
from hsagg.rates import ProblemConfig
from hsagg.scheme import build_example1, build_random
from reference import block, enumerate_groups, sample_zero_sum_scheme


def run(argv):
    return cli.main(argv)


def canonical_text(obj) -> str:
    """The text the tool writes for a JSON object."""
    return json.dumps(obj, indent=2) + "\n"


def reference_scheme(s) -> dict:
    """The object of a scheme file, built entry by entry from the scheme."""
    L, L_S = s.dims.L, s.dims.L_S
    groups = enumerate_groups(s.cfg.U, s.cfg.V, s.cfg.G)

    def record(g_idx, member):
        data = [cli._enc_int(int(x)) for x in block(s, g_idx, member).reshape(-1)]
        return {"group_index": g_idx, "user": list(member), "matrix": {"rows": L, "cols": L_S, "data": data}}

    return {
        "format_version": cli.FORMAT_VERSION,
        "prng_id": cli.linalg.PRNG_ID,
        "cfg": {"U": s.cfg.U, "V": s.cfg.V, "G": s.cfg.G, "q": cli._enc_int(s.cfg.field.modulus)},
        "dims": {"regime": s.dims.regime.value, "L": L, "L_S": L_S},
        "group_order": [[list(member) for member in grp] for grp in groups],
        "blocks": [record(g_idx, member) for g_idx, grp in enumerate(groups) for member in grp],
        "provenance": {k: cli._enc_int(v) if isinstance(v, int) else v for k, v in s.provenance.items()},
    }


def saved_text(s) -> str:
    """The text save_scheme writes for a scheme."""
    return written_text(cli._scheme_file(s))


def expected_refusal(text: str, want: str) -> str:
    """The loader's refusal of text when the writer writes want: their first differing line, and the writer's."""
    got_lines, want_lines = (re.findall(r".*\n|.+", t) for t in (text, want))
    for number, (got, line) in enumerate(zip(got_lines, want_lines), 1):
        if got != line:
            break
    else:
        number = min(len(got_lines), len(want_lines)) + 1
        if number > len(want_lines):
            return f"line {number} differs from the writer's text for this scheme, which ends at line {number - 1}"
        line = want_lines[number - 1]
    return f"line {number} differs from the writer's line {line.rstrip(chr(10))!r} for this scheme"


def test_rates_example1(capsys):
    assert run(["rates", "--U", "2", "--V", "2", "--G", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "r_s: 2/5" in out
    assert "regime: RelayDominant" in out
    assert "L: 5" in out and "L_S: 2" in out


def test_rates_example2(capsys):
    assert run(["rates", "--U", "4", "--V", "2", "--G", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "r_s: 3/8" in out
    assert "regime: ServerDominant" in out


def test_rates_counts_past_64_bits(capsys):
    # C(1600, 30) and C(10000, 50) are far past 64 bits; the rates are still exact fractions.
    for U, G in ((40, 30), (100, 50)):
        assert run(["rates", "--U", str(U), "--V", str(U), "--G", str(G)]) == EXIT_OK
        total = comb(U * U, G)
        relay = Fraction(U, total - comb((U - 1) * U, G))
        server = Fraction(U - 1, total - U * comb(U, G))
        out = capsys.readouterr().out
        for line in (f"relay_bound: {relay}", f"server_bound: {server}", f"r_s: {max(relay, server)}"):
            assert line + "\n" in out


def test_rates_refuses_a_huge_count_before_computing_it(capsys, monkeypatch):
    def no_comb(*args):
        raise AssertionError("math.comb called for a refused config")

    for module in (math, rates_mod, cli):
        monkeypatch.setattr(module, "comb", no_comb)
    start = time.process_time()
    assert run(["rates", "--U", "3000", "--V", "3000", "--G", "200000"]) == EXIT_USAGE
    assert time.process_time() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: C(9000000,200000) ") and captured.err.count("\n") == 1


def test_rates_infeasible(capsys):
    assert run(["rates", "--U", "2", "--V", "2", "--G", "1"]) == EXIT_FAILED
    assert capsys.readouterr() == ("", "infeasible: G=1\n")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nosuch"],
        ["rates", "--U", "2"],
        ["rates", "--U", "x", "--V", "2", "--G", "2"],
        ["example", "--id", "3", "--out", "x.json"],
        ["simulate"],
        ["verify", "x.json", "--bogus"],
    ],
    ids=["no-command", "unknown-command", "missing-flags", "bad-int", "bad-choice", "no-scheme",
         "unknown-flag"],
)
def test_usage_errors_are_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("hsagg") and ": error: " in err and err.count("\n") == 1, err


def test_rates_usage_errors(capsys):
    # A config the parser accepts but ProblemConfig refuses is returned, not raised.
    assert run(["rates", "--U", "1", "--V", "2", "--G", "2"]) == EXIT_USAGE  # U < 2
    assert capsys.readouterr() == ("", "error: need U >= 2 relays, got 1\n")
    with pytest.raises(SystemExit) as exc:
        run(["rates", "--U", "2"])  # missing required flags
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_example_roundtrip_and_verify(tmp_path, capsys):
    path = str(tmp_path / "ex1.json")
    assert run(["example", "--id", "1", "--out", path]) == EXIT_OK
    capsys.readouterr()
    s = load_scheme(path)
    golden = build_example1()
    assert np.array_equal(s.encoding, golden.encoding)
    assert block(s, 0, (1, 1)).tolist() == [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1]]
    # save(load(f)) is byte-identical
    again = str(tmp_path / "again.json")
    save_scheme(s, again)
    assert Path(path).read_bytes() == Path(again).read_bytes()
    assert run(["verify", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_verify_with_oracle_example1(tmp_path, capsys):
    path = str(tmp_path / "ex1.json")
    run(["example", "--id", "1", "--out", path])
    capsys.readouterr()
    report_path = str(tmp_path / "report.json")
    assert run(["verify", path, "--oracle", "--out", report_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "server oracle: pass" in out
    report = json.loads(Path(report_path).read_text())
    assert report["passed"] is True
    assert report["oracle_relay"]["1"]["entropy_qary"] == 10.0
    assert report["oracle_server"]["entropy_qary"] == 5.0


def test_verify_example2_oracles_skipped(tmp_path, capsys):
    path = str(tmp_path / "ex2.json")
    run(["example", "--id", "2", "--out", path])
    capsys.readouterr()
    assert run(["verify", path, "--oracle", "--fuzz-rounds", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "server oracle: skipped-infeasible" in out
    assert "overall: pass" in out


def test_verify_corrupted_entry(tmp_path, capsys):
    path = str(tmp_path / "ex1.json")
    run(["example", "--id", "1", "--out", path])
    capsys.readouterr()
    obj = json.loads(Path(path).read_text())
    obj["blocks"][0]["matrix"]["data"][0] = (obj["blocks"][0]["matrix"]["data"][0] + 1) % 5
    Path(path).write_text(canonical_text(obj))  # the writer's layout: a file loads only in it
    assert run(["verify", path, "--fuzz-rounds", "10"]) == EXIT_FAILED
    assert "zero-sum: FAIL" in capsys.readouterr().out
    capsys.readouterr()


def test_verify_malformed_file(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{ not json")
    assert run(["verify", path]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def _write_oversized_config(path):
    """Example 1 with U = V = 3000 and G = 200000: a small file naming a huge problem."""
    obj = reference_scheme(build_example1())
    obj["cfg"].update(U=3000, V=3000, G=200_000)
    path.write_text(json.dumps(obj, separators=(",", ":")))


UNLOADABLE_FILES = {
    "not-utf8": lambda path: path.write_text(canonical_text(reference_scheme(build_example1())), encoding="utf-16"),
    "nested-200000-deep": lambda path: path.write_text("[" * 200_000 + "]" * 200_000),
    "oversized-config": _write_oversized_config,
}


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("kind", sorted(UNLOADABLE_FILES))
def test_unloadable_file_is_a_usage_error(kind, command, tmp_path, capsys):
    path = tmp_path / "s.json"
    UNLOADABLE_FILES[kind](path)
    start = time.process_time()
    assert run([command, str(path)]) == EXIT_USAGE
    assert time.process_time() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def refusal(text: str) -> str:
    with pytest.raises(SchemeFileError) as exc:
        scheme_from_text(text)
    return str(exc.value)


def test_load_rejects_inconsistent_files():
    golden = canonical_text(reference_scheme(build_example1()))

    def edited(edit) -> str:
        bad = json.loads(golden)
        edit(bad)
        return canonical_text(bad)

    # Refused before the encoding matrix is built.
    for edit, message in (
        (lambda bad: bad.update(format_version=99), "unsupported format_version 99"),
        (lambda bad: bad.update(prng_id="other-prng"), "unsupported prng_id 'other-prng'"),
        (lambda bad: bad["blocks"][0]["matrix"]["data"].__setitem__(0, 7), r"matrix entry outside \[0, q-1\]"),
        (lambda bad: bad["blocks"].pop(0), "11 blocks"),
        # The blocks must be exactly the canonical (group, member) sequence.
        (lambda bad: bad["blocks"].insert(1, bad["blocks"][0]), "13 blocks"),  # listed twice
        (lambda bad: bad["blocks"].append(bad["blocks"][-1]), "13 blocks"),  # extra entry
    ):
        assert re.search(message, refusal(edited(edit)))

    # Refused by the comparison with the writer's text, at the first differing line.
    def put(*path, value):
        def edit(bad):
            *parents, last = path
            for key in parents:
                bad = bad[key]
            bad[last] = value

        return edit

    for edit, line in (
        (put("dims", "L", value=6), '    "L": 5,'),
        (lambda bad: bad["group_order"].insert(0, bad["group_order"].pop(1)), "        1,"),
        (put("blocks", 0, "user", value=[2, 2]), "        1,"),  # not a member of group 0
        (lambda bad: bad["blocks"].insert(0, bad["blocks"].pop(1)), "        1"),  # reordered
        # Integers are decoded strictly: no bools, floats or small numbers as strings.
        (put("blocks", 2, "group_index", value=True), '      "group_index": 1,'),
        (put("blocks", 0, "user", value=[True, 1]), "        1,"),
        (put("blocks", 0, "matrix", "rows", value=5.0), '        "rows": 5,'),
        (put("cfg", "q", value="5"), '    "q": 5'),
        (put("format_version", value=True), '  "format_version": 1,'),
    ):
        text = edited(edit)
        message = refusal(text)
        assert message == expected_refusal(text, golden) and f"{line!r} for this scheme" in message


def test_load_decodes_provenance_integers_as_the_writer_writes_them():
    golden = canonical_text(reference_scheme(build_random(ProblemConfig(2, 2, 2, make_field(5)), seed=3)))
    bad = json.loads(golden)
    bad["provenance"]["seed"] = "123"  # the writer writes a small int as a number
    text = canonical_text(bad)
    bad["provenance"]["seed"] = 123
    assert refusal(text) == expected_refusal(text, canonical_text(bad))
    noted = json.loads(golden)
    noted["provenance"]["note"] = "x"  # not an integer: loads as it is
    s = scheme_from_text(canonical_text(noted))
    assert s.provenance["seed"] == 3 and s.provenance["note"] == "x"
    assert saved_text(s) == canonical_text(noted)


def test_load_tells_numbers_from_digit_strings_at_2_pow_53():
    # At q = 2^61 - 1 an entry below 2^53 is a JSON number and one of at
    # least 2^53 a digit string; the other spelling of either is refused.
    obj = _fuzz_golden("p61")
    for value, loads in (
        (2**53 - 1, True),
        (str(2**53 - 1), False),
        (str(2**53), True),
        (2**53, False),
    ):
        edited = json.loads(json.dumps(obj))
        edited["blocks"][3]["matrix"]["data"][5] = value
        text = canonical_text(edited)
        if loads:
            assert saved_text(scheme_from_text(text)) == text
        else:
            edited["blocks"][3]["matrix"]["data"][5] = cli._enc_int(int(value))
            assert refusal(text) == expected_refusal(text, canonical_text(edited))


def _copies(text: str) -> dict:
    """Copies of a canonical scheme text in other layouts, each with the line its first difference is on."""
    obj, lines = json.loads(text), text.count("\n")
    return {
        "compact": (json.dumps(obj, separators=(",", ":")), "line 1 differs from the writer's line '{'"),
        "indent-4": (json.dumps(obj, indent=4) + "\n", """line 2 differs from the writer's line '  "format_version": 1,'"""),
        "crlf": (text.replace("\n", "\r\n"), "line 1 differs from the writer's line '{'"),
        "extra-trailing-newline": (text + "\n", f"line {lines + 1} differs from the writer's text for this scheme, which ends at line {lines}"),
        "no-final-newline": (text[:-1], f"line {lines} differs from the writer's line '}}'"),
        "utf-8-bom": ("\ufeff" + text, "line 1 column 1"),
    }


@pytest.mark.parametrize(
    "copy", ["compact", "indent-4", "crlf", "extra-trailing-newline", "no-final-newline", "utf-8-bom"]
)
def test_a_copy_in_another_layout_is_refused_naming_the_line(copy, tmp_path):
    # json.loads takes each copy but the one with a BOM; only the writer's exact text loads.
    path = tmp_path / "s.json"
    save_scheme(build_example1(), str(path))
    text, message = _copies(path.read_text())[copy]
    path.write_bytes(text.encode())
    with pytest.raises(SchemeFileError) as exc:
        load_scheme(str(path))
    assert str(exc.value).startswith(f"scheme file {path}: ") and message in str(exc.value)


def test_saved_scheme_has_lf_line_ends_where_the_platform_writes_crlf(tmp_path, monkeypatch):
    # The pure-Python io module takes its line end from os.linesep when the
    # file is opened, so it stands in for a platform whose line end is CRLF.
    monkeypatch.setattr(os, "linesep", "\r\n")
    monkeypatch.setattr(cli, "open", _pyio.open, raising=False)
    path = tmp_path / "s.json"
    s = build_example1()
    save_scheme(s, str(path))
    assert path.read_bytes() == saved_text(s).encode()
    assert load_scheme(str(path)).provenance == s.provenance


def test_load_peak_memory_is_a_few_encoding_matrices(monkeypatch):
    # After the parse, the decode, E and the piece-by-piece comparison with
    # the writer hold a few copies of E. The parse itself is left out: the
    # loader is handed an object parsed beforehand.
    cfg = ProblemConfig(3, 3, 6, make_field((1 << 61) - 1))
    s = sample_zero_sum_scheme(cfg, seed=1)
    text = saved_text(s)
    obj = json.loads(text)
    monkeypatch.setattr(cli.json, "loads", lambda _: obj)
    tracemalloc.start()
    try:
        scheme_from_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * s.encoding.nbytes, peak / s.encoding.nbytes


def test_whole_load_holds_the_parse_and_one_block_array(tmp_path):
    # A whole load, the read included, holds at most the file's text, its
    # parsed object and the one array of its blocks: the blocks fill a
    # preallocated array, each parsed block released as it is converted, so
    # no other copy of the blocks is made while the parsed object is alive.
    cfg = ProblemConfig(3, 3, 6, make_field((1 << 61) - 1))
    s = sample_zero_sum_scheme(cfg, seed=1)
    path = str(tmp_path / "s.json")
    save_scheme(s, path)
    load_scheme(path)  # warm up: first-call allocations
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            obj = json.loads(fh.read())
        parse = tracemalloc.get_traced_memory()[1]
        del obj
        tracemalloc.reset_peak()
        load_scheme(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = count_groups(cfg.U, cfg.V, cfg.G) * cfg.G * s.dims.L * s.dims.L_S * 8
    assert peak < parse + blocks + s.encoding.nbytes / 8, (peak / s.encoding.nbytes, parse / s.encoding.nbytes)


def test_save_peak_memory_is_a_small_part_of_the_encoding_matrix(tmp_path):
    # Each block is filled and written before the next, so neither the 4.2 MB of text nor
    # the blocks' texts are held at once.
    cfg = ProblemConfig(3, 3, 6, make_field((1 << 61) - 1))
    s = sample_zero_sum_scheme(cfg, seed=1)
    tracemalloc.start()
    try:
        save_scheme(s, str(tmp_path / "s.json"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < s.encoding.nbytes / 4, peak / s.encoding.nbytes


def test_build_pipeline(tmp_path, capsys):
    path = str(tmp_path / "s.json")
    assert (
        run(
            ["build", "--U", "2", "--V", "2", "--G", "2",
             "--q", "2147483647", "--seed", "7", "--out", path]
        )
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert "retries_used" in out
    assert run(["verify", path, "--fuzz-rounds", "20"]) == EXIT_OK
    capsys.readouterr()
    # round-trip stability for build output too
    s = load_scheme(path)
    again = str(tmp_path / "s2.json")
    save_scheme(s, again)
    assert Path(path).read_bytes() == Path(again).read_bytes()


@pytest.mark.parametrize(
    "q, line",
    [
        # (2,2,2): L = 5, so the bound is (4*5 + 1*5)/q.
        ("2147483647", "attempt failure bound: 25/2147483647\n"),
        ("5", "attempt failure bound: 5 (vacuous)\n"),
    ],
)
def test_build_prints_the_attempt_failure_bound(q, line, tmp_path, capsys):
    path = str(tmp_path / "s.json")
    argv = ["build", "--U", "2", "--V", "2", "--G", "2", "--q", q, "--seed", "7", "--out", path]
    assert run([*argv, "--max-retries", "500"]) == EXIT_OK
    assert line in capsys.readouterr().out
    # The scheme file does not record the bound, and an example build prints none.
    assert "bound" not in Path(path).read_text()
    assert run(["example", "--id", "1", "--out", path]) == EXIT_OK
    assert "bound" not in capsys.readouterr().out


def test_build_infeasible_and_bad_modulus(tmp_path, capsys):
    path = tmp_path / "s.json"
    argv = ["build", "--U", "2", "--V", "2", "--out", str(path)]
    assert run(argv + ["--G", "1"]) == EXIT_FAILED
    assert capsys.readouterr() == ("", "infeasible: G=1\n")
    assert run(argv + ["--G", "2", "--q", "4"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: modulus must be a prime in [2, 2^61-1], got 4\n")
    assert not path.exists()


def test_build_with_its_retries_used_up_exits_1(tmp_path, capsys):
    # At q = 2 the one attempt that --max-retries 0 allows fails a rank gate.
    out = tmp_path / "s.json"
    argv = ["build", "--U", "2", "--V", "2", "--G", "2", "--q", "2", "--max-retries", "0", "--seed", "0"]
    assert run(argv + ["--out", str(out)]) == EXIT_FAILED
    assert capsys.readouterr() == ("", "error: no scheme passed the rank checks after 1 attempts\n")
    assert not out.exists()


def test_simulate(tmp_path, capsys):
    path = str(tmp_path / "ex1.json")
    run(["example", "--id", "1", "--out", path])
    capsys.readouterr()
    t1 = str(tmp_path / "t1.json")
    assert run(["simulate", path, "--rounds", "100", "--seed", "3", "--out", t1]) == EXIT_OK
    assert "correct rounds: 100/100" in capsys.readouterr().out
    t2 = str(tmp_path / "t2.json")
    assert run(["simulate", path, "--rounds", "100", "--seed", "3", "--out", t2]) == EXIT_OK
    capsys.readouterr()
    assert Path(t1).read_bytes() == Path(t2).read_bytes()


def test_build_count_overflow_is_a_usage_error(tmp_path, capsys):
    # C(1600, 30) groups cannot be enumerated; the build is refused, not crashed.
    out = tmp_path / "s.json"
    assert run(["build", "--U", "40", "--V", "40", "--G", "30", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: C(1600,30) = ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        # C(64,5) = 7,624,512 groups fit 64 bits, but E would have about 10^16 entries.
        (("8", "8", "5"), "error: the encoding matrix would have "),
        # C(9,000,000, 200,000) is refused before it is computed.
        (("3000", "3000", "200000"), "error: C(9000000,200000) exceeds 2^63 - 1"),
        # C(67,33) is below 2^64, but above 2^63 - 1, the largest int64 member index.
        (("67", "1", "33"), "error: C(67,33) = 14226520737620288370 exceeds 2^63 - 1\n"),
    ],
    ids=["encoding-entries", "group-count", "group-count-below-2-64"],
)
def test_oversized_build_is_refused_before_enumeration(config, message, tmp_path, capsys, monkeypatch):
    def reached(*args):
        raise AssertionError("a refused build made its member index or drew its blocks")

    # A random build lays out its groups through _members and draws them through _draws.
    monkeypatch.setattr(scheme_mod, "_members", reached)
    monkeypatch.setattr(scheme_mod, "_draws", reached)
    out = tmp_path / "s.json"
    U, V, G = config
    start = time.process_time()
    assert run(["build", "--U", U, "--V", V, "--G", G, "--out", str(out)]) == EXIT_USAGE
    assert time.process_time() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert not out.exists()


def test_build_size_limit_is_the_entry_count_of_e(tmp_path, capsys, monkeypatch):
    # (2,2,2)@5: E is UV*L x C(4,2)*L_S = 20 x 12, 240 entries.
    argv = ["build", "--U", "2", "--V", "2", "--G", "2", "--q", "5", "--max-retries", "100"]
    monkeypatch.setattr(cli, "MAX_ENCODING_ENTRIES", 239)
    assert run(argv + ["--out", str(tmp_path / "a.json")]) == EXIT_USAGE
    assert "240 entries" in capsys.readouterr().err
    monkeypatch.setattr(cli, "MAX_ENCODING_ENTRIES", 240)
    assert run(argv + ["--out", str(tmp_path / "b.json")]) == EXIT_OK
    assert load_scheme(str(tmp_path / "b.json")).encoding.shape == (20, 12)


@pytest.mark.parametrize(
    "target, exc",
    [
        ("audit.full_audit", MemoryError()),
        ("audit.full_audit", RuntimeError("two\nlines")),
        ("scheme_mod.build_random", MemoryError("out of memory")),
        ("protocol.run_rounds", ValueError("")),
    ],
    ids=["verify-MemoryError", "verify-two-line-message", "build-MemoryError", "simulate-empty-message"],
)
def test_unexpected_errors_exit_2_with_one_line(target, exc, tmp_path, capsys, monkeypatch):
    # An error no subcommand handles is not a verdict: exit 2, not 1.
    path = str(tmp_path / "ex1.json")
    assert run(["example", "--id", "1", "--out", path]) == EXIT_OK
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise exc

    module, name = target.split(".")
    monkeypatch.setattr({"audit": cli.audit, "scheme_mod": scheme_mod, "protocol": cli.protocol}[module], name, fail)
    argv = {
        "full_audit": ["verify", path],
        "build_random": ["build", "--U", "2", "--V", "2", "--G", "2", "--out", str(tmp_path / "s.json")],
        "run_rounds": ["simulate", path],
    }[name]
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {type(exc).__name__}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("source", ["ex1", "p61"])
def test_simulate_transcript_file(source, tmp_path, capsys):
    path, out = str(tmp_path / "s.json"), tmp_path / "t.json"
    if source == "ex1":
        run(["example", "--id", "1", "--out", path])
    else:
        run(["build", "--U", "2", "--V", "2", "--G", "2", "--q", str((1 << 61) - 1), "--out", path])
    s = load_scheme(path)
    q, U, V = s.cfg.field.modulus, s.cfg.U, s.cfg.V
    assert run(["simulate", path, "--rounds", "6", "--seed", "4", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    obj = json.loads(out.read_text())
    assert len(obj["rounds"]) == 6

    def vec(data):
        assert len(data) == s.dims.L
        return [int(x) for x in data]  # entries >= 2^53 are decimal strings

    def total(vectors):
        return [sum(column) % q for column in zip(*vectors)]

    users = [[u, v] for u in range(1, U + 1) for v in range(1, V + 1)]
    for r in obj["rounds"]:
        assert [e["user"] for e in r["inputs"]] == users
        assert [e["user"] for e in r["user_messages"]] == users
        assert [e["relay"] for e in r["relay_messages"]] == list(range(1, U + 1))
        messages = {tuple(e["user"]): vec(e["data"]) for e in r["user_messages"]}
        relays = [vec(e["data"]) for e in r["relay_messages"]]
        for u, y in enumerate(relays, 1):
            assert y == total(messages[(u, v)] for v in range(1, V + 1))
        assert vec(r["decoded_sum"]) == total(relays) == total(vec(e["data"]) for e in r["inputs"])
    if source == "p61":
        assert any(isinstance(x, str) for e in obj["rounds"][0]["user_messages"] for x in e["data"])


def test_simulate_zero_rounds(tmp_path, capsys):
    path = str(tmp_path / "ex1.json")
    run(["example", "--id", "1", "--out", path])
    capsys.readouterr()
    assert run(["simulate", path, "--rounds", "0"]) == EXIT_OK
    assert "correct rounds: 0/0" in capsys.readouterr().out


@pytest.mark.parametrize("command, flag", [("simulate", "--rounds"), ("verify", "--fuzz-rounds")])
def test_round_count_past_the_entry_limit_is_refused_before_any_draw(command, flag, tmp_path, capsys, monkeypatch):
    # Example 1's E is 20 x 12: R rounds hold R * 32 input, message and key entries.
    path = str(tmp_path / "ex1.json")
    assert run(["example", "--id", "1", "--out", path]) == EXIT_OK
    capsys.readouterr()
    rounds = cli.MAX_ENCODING_ENTRIES // 32 + 1

    def no_draw(*args, **kwargs):
        raise AssertionError("drew rounds past the limit")

    monkeypatch.setattr(cli.linalg, "random_mats", no_draw)
    monkeypatch.setattr(cli.audit, "full_audit", no_draw)
    tracemalloc.start()
    try:
        assert run([command, path, flag, str(rounds)]) == EXIT_USAGE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    message = f"{flag} {rounds} would have {rounds * 32} entries, more than the limit of {1 << 27}"
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_round_count_limit_is_rounds_times_rows_plus_cols_of_e(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "ex1.json")
    assert run(["example", "--id", "1", "--out", path]) == EXIT_OK
    monkeypatch.setattr(cli, "MAX_ENCODING_ENTRIES", 5 * 32)
    for command, flag in (("simulate", "--rounds"), ("verify", "--fuzz-rounds")):
        assert run([command, path, flag, "5"]) == EXIT_OK
        assert run([command, path, flag, "6"]) == EXIT_USAGE
        assert "192 entries" in capsys.readouterr().err


def test_defaults_are_defined_once(capsys, monkeypatch):
    # The command line and the library take each default from one constant.
    assert cli.audit.DEFAULT_ORACLE_CAP == 1 << 26 and scheme_mod.DEFAULT_MAX_RETRIES == 16
    assert cli.audit.DEFAULT_FUZZ_ROUNDS == 100
    verify = cli.build_parser().parse_args(["verify", "x.json"])
    build = cli.build_parser().parse_args(["build", "--U", "2", "--V", "2", "--G", "2", "--out", "x.json"])
    assert verify.cap is cli.audit.DEFAULT_ORACLE_CAP and build.max_retries is scheme_mod.DEFAULT_MAX_RETRIES
    assert verify.fuzz_rounds is cli.audit.DEFAULT_FUZZ_ROUNDS
    audit_defaults = inspect.signature(cli.audit.full_audit).parameters
    assert audit_defaults["oracle_cap"].default is cli.audit.DEFAULT_ORACLE_CAP
    assert audit_defaults["fuzz_rounds"].default is cli.audit.DEFAULT_FUZZ_ROUNDS
    assert inspect.signature(build_random).parameters["max_retries"].default is scheme_mod.DEFAULT_MAX_RETRIES
    monkeypatch.setenv("COLUMNS", "200")  # the help text on one line
    with pytest.raises(SystemExit):
        run(["verify", "--help"])
    assert "tally cells an oracle may take (default 2^26)\n" in capsys.readouterr().out


def test_cached_parser_runs_commands_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    # main runs on one parser per process; in one process, a usage error, a
    # build with its defaults and a verify give the exit codes, output and
    # file bytes that a freshly built parser gives.
    assert cli.build_parser() is cli.build_parser()
    commands = (
        ["build", "--U", "2", "--V", "2", "--G", "x"],
        ["build", "--U", "2", "--V", "2", "--G", "2", "--out", "s.json"],
        ["verify", "s.json", "--out", "report.json"],
    )

    def outcomes(factory, directory):
        directory.mkdir()
        monkeypatch.chdir(directory)
        monkeypatch.setattr(cli, "build_parser", factory)
        results = []
        for argv in commands:
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
        return results, files

    cached = outcomes(cli.build_parser, tmp_path / "cached")
    fresh = outcomes(cli.build_parser.__wrapped__, tmp_path / "fresh")
    assert [code for code, _, _ in cached[0]] == [EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert sorted(cached[1]) == ["report.json", "s.json"]
    assert cached == fresh


def test_large_modulus_serialized_as_strings(tmp_path):
    path = str(tmp_path / "big.json")
    q = (1 << 61) - 1
    assert (
        run(
            ["build", "--U", "2", "--V", "1", "--G", "2",
             "--q", str(q), "--seed", "0", "--out", path]
        )
        == EXIT_OK
    )
    obj = json.loads(Path(path).read_text())
    assert obj["cfg"]["q"] == str(q)  # >= 2^53, so written as a decimal string
    s = load_scheme(path)
    assert s.cfg.field.modulus == q
    again = str(tmp_path / "big2.json")
    save_scheme(s, again)
    assert Path(path).read_bytes() == Path(again).read_bytes()


def _json_paths(obj, path=()):
    """Every position in a JSON value, as the tuple of keys that leads to it."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, child in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _json_paths(child, path + (key,))


@functools.cache
def _fuzz_golden(name):
    """Canonical scheme objects: example 1, and a build at q = 2^61 - 1 (entries as strings)."""
    if name == "ex1":
        return reference_scheme(build_example1())
    return reference_scheme(build_random(ProblemConfig(2, 2, 2, make_field((1 << 61) - 1)), seed=1))


_JSON_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.text(max_size=4),
    st.from_regex(r"[-+ 0]?[0-9]{1,22}", fullmatch=True),  # digit strings, canonical or not
    st.just("9" * 5000),  # past Python's int() digit limit
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_scheme_loader_fuzz(data):
    # Every mutation of a canonical scheme object, and every insertion or
    # deletion of one whitespace character in its text, either loads and
    # re-saves to exactly that text, or is refused with SchemeFileError.
    obj = json.loads(json.dumps(_fuzz_golden(data.draw(st.sampled_from(["ex1", "p61"])))))
    text = canonical_text(obj)
    paths = list(_json_paths(obj))
    path = paths[data.draw(st.integers(0, len(paths) - 1))]
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else obj
    kinds = ["replace", "derive", "delete", "duplicate", "add", "reorder", "insert-space", "delete-space"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "insert-space":
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from(" \n\t\r")) + text[at:]
    elif kind == "delete-space":
        at = data.draw(st.sampled_from([i for i, c in enumerate(text) if c.isspace()]))
        text = text[:at] + text[at + 1 :]
    elif kind == "replace" and path:
        parent[path[-1]] = data.draw(_JSON_VALUES)
    elif kind == "derive" and path and isinstance(target, int):
        derived = [target + 1, target - 1, -target, float(target), str(target), bool(target)]
        parent[path[-1]] = data.draw(st.sampled_from(derived))
    elif kind == "delete" and path:
        del parent[path[-1]]
    elif kind == "duplicate" and isinstance(target, list) and target:
        copy = target[data.draw(st.integers(0, len(target) - 1))]
        target.insert(data.draw(st.integers(0, len(target))), copy)
    elif kind == "add" and isinstance(target, dict):
        target[data.draw(st.text(max_size=3))] = data.draw(_JSON_VALUES)
    elif kind == "reorder" and isinstance(target, (dict, list)) and len(target) > 1:
        items = list(target.items()) if isinstance(target, dict) else list(target)
        i = data.draw(st.integers(0, len(items) - 1))
        items.append(items.pop(i))
        if isinstance(target, dict):
            target.clear()
            target.update(items)
        else:
            target[:] = items
    if not kind.endswith("-space"):
        text = canonical_text(obj)
    try:
        s = scheme_from_text(text)
    except SchemeFileError:
        return
    assert saved_text(s) == text


@pytest.mark.parametrize(
    "argv, flag, bound",
    [
        (["simulate", "{scheme}"], "--rounds", ""),
        (["verify", "{scheme}"], "--fuzz-rounds", ""),
        (["verify", "{scheme}"], "--cap", ""),
        (["build", "--U", "2", "--V", "2", "--G", "2", "--out", "{out}"], "--max-retries", " below 2^63"),
    ],
    ids=["rounds", "fuzz-rounds", "cap", "max-retries"],
)
def test_count_flags_reject_negative_values(argv, flag, bound, tmp_path, capsys):
    scheme_path, out = tmp_path / "ex1.json", tmp_path / "out.json"
    run(["example", "--id", "1", "--out", str(scheme_path)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([a.format(scheme=scheme_path, out=out) for a in argv] + [flag, "-1"])
    assert exc.value.code == EXIT_USAGE
    message = f"argument {flag}: expected a non-negative integer{bound}, got '-1'"
    assert capsys.readouterr().err == f"hsagg {argv[0]}: error: {message}\n"
    assert not out.exists()


def test_max_retries_below_2_63(tmp_path, capsys):
    # With --seed and --max-retries both below 2^63, every attempt seed seed + k
    # is below 2^64, so no two attempts share a stream.
    out = tmp_path / "s.json"
    argv = ["build", "--U", "2", "--V", "2", "--G", "2", "--q", str(2**31 - 1), "--seed", str(2**63 - 1)]
    assert run([*argv, "--max-retries", str(2**63 - 1), "--out", str(out)]) == EXIT_OK
    assert "retries_used: 0" in capsys.readouterr().out
    out.unlink()
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--max-retries", str(2**63), "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    message = f"argument --max-retries: expected a non-negative integer below 2^63, got '{2**63}'"
    assert capsys.readouterr().err == f"hsagg build: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", [str(2**64), "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--U", "2", "--V", "2", "--G", "2", "--q", "5", "--out", "{out}"],
        ["verify", "{scheme}", "--out", "{out}"],
        ["simulate", "{scheme}", "--out", "{out}"],
    ],
    ids=["build", "verify", "simulate"],
)
def test_seed_outside_its_range_is_a_usage_error(argv, seed, tmp_path, capsys):
    # A seed outside [0, 2^63) would be reduced mod 2^64 and alias another one.
    scheme_path, out = tmp_path / "ex1.json", tmp_path / "out.json"
    run(["example", "--id", "1", "--out", str(scheme_path)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([a.format(scheme=scheme_path, out=out) for a in argv] + ["--seed", seed])
    assert exc.value.code == EXIT_USAGE
    message = f"argument --seed: expected a non-negative integer below 2^63, got '{seed}'"
    assert capsys.readouterr().err == f"hsagg {argv[0]}: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "example", "verify", "simulate"])
def test_unwritable_out_is_a_usage_error(command, tmp_path, capsys):
    scheme_path = str(tmp_path / "ex1.json")
    run(["example", "--id", "1", "--out", scheme_path])
    capsys.readouterr()
    out = str(tmp_path / "no-such-dir" / "x.json")
    argv = {
        "build": ["build", "--U", "2", "--V", "2", "--G", "2"],
        "example": ["example", "--id", "1"],
        "verify": ["verify", scheme_path, "--fuzz-rounds", "5"],
        "simulate": ["simulate", scheme_path, "--rounds", "5"],
    }[command]
    assert run(argv + ["--out", out]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize("U", ["2", "1" + "0" * 4214], ids=["small-UV", "huge-UV"])
def test_build_at_g1_is_infeasible_before_any_count(U, tmp_path, capsys):
    # G = 1 is the paper's impossibility result, whatever UV is; C(10^4214, 1) is never counted.
    out = tmp_path / "s.json"
    for command, extra in (("rates", []), ("build", ["--out", str(out)])):
        assert run([command, "--U", U, "--V", "1", "--G", "1", *extra]) == EXIT_FAILED
        assert capsys.readouterr() == ("", "infeasible: G=1\n")
    assert not out.exists()


def written_text(obj) -> str:
    """The text the writer gives for obj."""
    pieces = []
    cli._write_text(obj, pieces.append)
    return "".join(pieces) + "\n"


JSON_SAFE = 1 << 53
edge_ints = st.sampled_from([0, -1, JSON_SAFE - 1, JSON_SAFE, JSON_SAFE + 1, -JSON_SAFE + 1, -JSON_SAFE, -JSON_SAFE - 1])
json_scalars = st.none() | st.booleans() | st.floats() | st.integers() | edge_ints | st.text()
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(json_values)
def test_writer_text_is_json_dumps_indent_2(value):
    # Empty and nested-empty containers, non-ASCII text, floats (nan and inf too), bools, None, big ints.
    assert written_text(value) == canonical_text(value)
    if isinstance(value, list):  # a list may also be an iterator, drawn as it is written
        assert written_text({"k": iter(value)}) == canonical_text({"k": value})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, (1 << 63) - 1) | st.integers(JSON_SAFE - 2, JSON_SAFE + 1)))
def test_writer_renders_residue_arrays_as_enc_int_does(entries):
    # A template record's residues are written entry by entry as _enc_int gives them: a decimal
    # string from 2^53 on. The entries reach 2^63 - 1, so the template's q is above 2^53.
    array = np.array(entries, dtype=np.int64)
    template = cli._Template({"data": [cli._SLOT] * len(entries)}, 1 << 63)
    expected = canonical_text({"k": [{"data": [cli._enc_int(x) for x in entries]}]})
    assert written_text({"k": template.records([((), array)])}) == expected


# Each digit count's first and last value, 10^k and 10^k - 1, up to 19 digits.
DIGIT_EDGES = sorted({*(10**k for k in range(19)), *(10**k - 1 for k in range(19))})
HEADS = st.sampled_from([0, 1, 9, 10, 99, 100, 999]) | st.integers(0, 999)


@st.composite
def template_records(draw):
    """(template, head, records): two records of a scheme block or of a transcript section.

    Each record is (residue array, the object it stands for). q is below or
    above 2^53. Above it, each record holds any number of entries below
    2^53, from none to all; below it, all of them are. The entries come from
    the digit-count edges 10^k - 1 and 10^k, from 2^53 - 1, 2^53 and q - 1
    (those below q), or from anywhere below q, so values repeat. A head
    entry has one to three digits.
    """
    q = draw(st.sampled_from([5, (1 << 31) - 1, 9_007_199_254_740_881, 9_007_199_254_740_997, 18_014_398_509_482_143, (1 << 61) - 1]))
    edges = [x for x in (*DIGIT_EDGES, JSON_SAFE - 1, JSON_SAFE, q - 1) if x < q]
    below = st.sampled_from([x for x in edges if x < JSON_SAFE]) | st.integers(0, min(q, JSON_SAFE) - 1)
    above = st.sampled_from([x for x in edges if x >= JSON_SAFE]) | st.integers(JSON_SAFE, q - 1) if q > JSON_SAFE else None
    if draw(st.booleans()):  # a scheme block: group_index and user are head slots
        head = (draw(HEADS), draw(HEADS), draw(HEADS))
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        matrix = {"rows": rows, "cols": cols, "data": [cli._SLOT] * rows * cols}
        template = cli._Template({"group_index": cli._SLOT, "user": [cli._SLOT, cli._SLOT], "matrix": matrix}, q)
        n = rows * cols

        def obj(data):
            return {"group_index": head[0], "user": list(head[1:]), "matrix": {**matrix, "data": data}}
    else:  # a transcript section of every user's row block
        head, users, L = (), all_users(draw(st.integers(1, 3)), draw(st.integers(1, 3))), draw(st.integers(1, 5))
        template = cli._Template([{"user": list(u), "data": [cli._SLOT] * L} for u in users], q)
        n = len(users) * L

        def obj(data):
            return [{"user": list(u), "data": data[i * L : (i + 1) * L]} for i, u in enumerate(users)]
    records = []
    for _ in range(2):
        n_below = draw(st.sampled_from([0, n]) | st.integers(0, n)) if q > JSON_SAFE else n
        kinds = draw(st.permutations([below] * n_below + [above] * (n - n_below)))
        entries = [draw(values) for values in kinds]
        records.append((np.array(entries, dtype=np.int64), obj([cli._enc_int(x) for x in entries])))
    return template, head, records


@settings(max_examples=300, deadline=None)
@given(template_records())
def test_template_records_with_quoted_residues_render_as_enc_int_does(args):
    # Two records of one template in a list, so the second fill reuses the rendered text.
    template, head, records = args
    written = written_text({"k": template.records([(head, array) for array, _ in records])})
    assert written == canonical_text({"k": [record for _, record in records]})


def reference_transcripts(s, seed: int, rounds: int) -> dict:
    """The transcript object of simulate, built entry by entry from the protocol's arrays."""
    batch = cli.protocol.run_rounds(s, seed, rounds)
    L, users = s.dims.L, [[u, v] for u in range(1, s.cfg.U + 1) for v in range(1, s.cfg.V + 1)]

    def blocks(a, r):
        return [[cli._enc_int(int(x)) for x in a[i * L : (i + 1) * L, r]] for i in range(len(a) // L)]

    return {
        "format_version": cli.FORMAT_VERSION,
        "prng_id": cli.linalg.PRNG_ID,
        "seed": seed,
        "rounds": [
            {
                "inputs": [{"user": u, "data": d} for u, d in zip(users, blocks(batch.inputs, r))],
                "user_messages": [{"user": u, "data": d} for u, d in zip(users, blocks(batch.user_messages, r))],
                "relay_messages": [{"relay": i, "data": d} for i, d in enumerate(blocks(batch.relay_messages, r), 1)],
                "decoded_sum": blocks(batch.decoded_sum, r)[0],
            }
            for r in range(rounds)
        ],
    }


# 9,007,199,254,740,881 is the largest prime below 2^53, where every entry is bare; below
# 18,014,398,509,481,951, the largest prime below 2^54, about half the entries are >= 2^53,
# so each round and block mixes quoted and bare entries.
@pytest.mark.parametrize("q", [5, (1 << 31) - 1, 9_007_199_254_740_881, 18_014_398_509_481_951, (1 << 61) - 1])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 1 << 20), rounds=st.integers(0, 3))
def test_written_files_are_json_dumps_indent_2(q, seed, rounds, tmp_path_factory):
    d = tmp_path_factory.mktemp("files")
    scheme_path, report_path, transcript_path = (str(d / f"{kind}.json") for kind in ("s", "r", "t"))
    s = build_random(ProblemConfig(2, 2, 2, make_field(q)), seed=seed, max_retries=200)
    save_scheme(s, scheme_path)
    text = Path(scheme_path).read_text()
    assert text == canonical_text(reference_scheme(s))
    if q > JSON_SAFE:  # the largest entry is >= 2^53, so it is written as a string
        assert f'"{s.encoding.max()}"' in text and s.encoding.max() >= JSON_SAFE

    verify = ["verify", scheme_path, "--fuzz-rounds", "3", "--seed", str(seed), "--out", report_path]
    assert cli.main(verify) == EXIT_OK
    report = cli.audit.full_audit(s, fuzz_rounds=3, oracle_cap=None, seed=seed)
    assert Path(report_path).read_text() == canonical_text(cli.report_to_obj(report))

    simulate = ["simulate", scheme_path, "--rounds", str(rounds), "--seed", str(seed), "--out", transcript_path]
    assert cli.main(simulate) == EXIT_OK
    assert Path(transcript_path).read_text() == canonical_text(reference_transcripts(s, seed, rounds))


def test_oracle_report_is_json_dumps_indent_2(tmp_path, capsys, monkeypatch):
    # Every oracle of example 1 runs, so the report holds their tallies and float entropies.
    reports, full_audit = [], cli.audit.full_audit
    monkeypatch.setattr(cli.audit, "full_audit", lambda *args, **kw: reports.append(full_audit(*args, **kw)) or reports[0])
    path, out = str(tmp_path / "ex1.json"), tmp_path / "r.json"
    assert run(["example", "--id", "1", "--out", path]) == EXIT_OK
    assert run(["verify", path, "--oracle", "--fuzz-rounds", "3", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    obj = cli.report_to_obj(reports[0])
    assert isinstance(obj["oracle_server"]["entropy_qary"], float)
    assert out.read_text() == canonical_text(obj)


@pytest.mark.parametrize("rounds", [0, 1])
def test_simulate_writes_zero_and_one_rounds(rounds, tmp_path, capsys):
    # "rounds": [] is the streaming writer's edge case.
    path, out = str(tmp_path / "ex1.json"), tmp_path / "t.json"
    assert run(["example", "--id", "1", "--out", path]) == EXIT_OK
    assert run(["simulate", path, "--rounds", str(rounds), "--seed", "7", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    expected = reference_transcripts(build_example1(), 7, rounds)
    assert out.read_text() == canonical_text(expected)
    assert ('"rounds": []' in out.read_text()) == (rounds == 0)


def test_simulate_writes_round_by_round(tmp_path, capsys, monkeypatch):
    # 100 rounds at (3,3,6) are 6.5 MB of text at q = 2^61-1 and 3.8 MB at q = 2^31-1; the
    # writer holds about one round's worth.
    for q, size in (((1 << 61) - 1, 6_000_000), ((1 << 31) - 1, 3_500_000)):
        s = sample_zero_sum_scheme(ProblemConfig(3, 3, 6, make_field(q)), seed=1)
        batch = cli.protocol.run_rounds(s, 0, 100)
        monkeypatch.setattr(cli, "load_scheme", lambda path: s)
        monkeypatch.setattr(cli.protocol, "run_rounds", lambda *args: batch)
        out = tmp_path / f"t{q}.json"
        tracemalloc.start()
        try:
            assert run(["simulate", "s.json", "--rounds", "100", "--out", str(out)]) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        round_text = out.stat().st_size / 100
        assert out.stat().st_size > size
        assert peak < 4 * round_text, (q, peak / round_text)


def test_simulate_round_is_one_record_of_four_section_fills(tmp_path, capsys, monkeypatch):
    # A round's fixed text is rendered once per file, so more rounds cost more section fills
    # (four a round) and no more than one writer call a round.
    s = sample_zero_sum_scheme(ProblemConfig(2, 2, 2, make_field(5)), seed=1)
    monkeypatch.setattr(cli, "load_scheme", lambda path: s)
    calls = {"_write_text": 0, "fill": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)

        return call

    monkeypatch.setattr(cli, "_write_text", counted("_write_text", cli._write_text))
    monkeypatch.setattr(cli._Template, "fill", counted("fill", cli._Template.fill))
    counts = {}
    for rounds in (10, 100):
        calls.update(dict.fromkeys(calls, 0))
        out = tmp_path / f"t{rounds}.json"
        assert run(["simulate", "s.json", "--rounds", str(rounds), "--out", str(out)]) == EXIT_OK
        counts[rounds] = dict(calls)
    capsys.readouterr()
    assert counts[10]["fill"] == 4 * 10 and counts[100]["fill"] == 4 * 100
    assert counts[100]["_write_text"] - counts[10]["_write_text"] <= 90, counts
    assert out.read_text() == canonical_text(reference_transcripts(s, 0, 100))


def test_rates_computes_the_security_fractions_once(capsys, monkeypatch):
    # Three binomials give every number rates prints: C(UV,G), C((U-1)V,G) and C(V,G).
    calls = []
    monkeypatch.setattr(rates_mod, "comb", lambda n, k: calls.append((n, k)) or comb(n, k))
    assert run(["rates", "--U", "3", "--V", "3", "--G", "6"]) == EXIT_OK
    assert calls == [(9, 6), (6, 6), (3, 6)]
    assert capsys.readouterr() == (
        "feasible: yes\n"
        "relay_bound: 3/83\n"
        "server_bound: 1/42\n"
        "r_x: 1  r_y: 1  r_s: 3/83\n"
        "regime: RelayDominant  L: 83  L_S: 3\n",
        "",
    )
