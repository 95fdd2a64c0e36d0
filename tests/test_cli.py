import json
from fractions import Fraction
from math import comb

import pytest

from hsagg import cli
from hsagg.cli import (
    EXIT_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    SchemeFileError,
    load_scheme,
    save_scheme,
    scheme_from_obj,
    scheme_to_obj,
)
from hsagg.linalg import from_rows
from hsagg.scheme import build_example1


def run(argv):
    return cli.main(argv)


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
    # C(1600, 30) is far past 64 bits; the rates are still exact fractions.
    assert run(["rates", "--U", "40", "--V", "40", "--G", "30"]) == EXIT_OK
    total = comb(1600, 30)
    relay = Fraction(40, total - comb(1560, 30))
    server = Fraction(39, total - 40 * comb(40, 30))
    r_s = max(relay, server)
    assert f"r_s: {r_s.numerator}/{r_s.denominator}\n" in capsys.readouterr().out


def test_rates_infeasible(capsys):
    assert run(["rates", "--U", "2", "--V", "2", "--G", "1"]) == EXIT_FAILED
    assert "infeasible: G=1" in capsys.readouterr().err


def test_rates_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["rates", "--U", "1", "--V", "2", "--G", "2"])  # U < 2
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
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
    assert s.blocks == golden.blocks
    assert s.block(0, (1, 1)) == from_rows(
        s.cfg.field, [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1]]
    )
    # save(load(f)) is byte-identical
    again = str(tmp_path / "again.json")
    save_scheme(s, again)
    assert open(path).read() == open(again).read()
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
    report = json.load(open(report_path))
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
    obj = json.load(open(path))
    obj["blocks"][0]["matrix"]["data"][0] = (obj["blocks"][0]["matrix"]["data"][0] + 1) % 5
    with open(path, "w") as fh:
        json.dump(obj, fh)
    assert run(["verify", path, "--fuzz-rounds", "10"]) == EXIT_FAILED
    capsys.readouterr()


def test_verify_malformed_file(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{ not json")
    assert run(["verify", path]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_load_rejects_inconsistent_files(tmp_path):
    golden = build_example1()
    obj = scheme_to_obj(golden)

    bad = json.loads(json.dumps(obj))
    bad["format_version"] = 99
    with pytest.raises(SchemeFileError):
        scheme_from_obj(bad)

    bad = json.loads(json.dumps(obj))
    bad["dims"]["L"] = 6
    with pytest.raises(SchemeFileError):
        scheme_from_obj(bad)

    bad = json.loads(json.dumps(obj))
    bad["group_order"][0], bad["group_order"][1] = bad["group_order"][1], bad["group_order"][0]
    with pytest.raises(SchemeFileError):
        scheme_from_obj(bad)

    bad = json.loads(json.dumps(obj))
    bad["blocks"][0]["user"] = [2, 2]  # not a member of group 0
    with pytest.raises(SchemeFileError):
        scheme_from_obj(bad)

    bad = json.loads(json.dumps(obj))
    bad["blocks"][0]["matrix"]["data"][0] = 7  # outside [0, q-1]
    with pytest.raises(SchemeFileError):
        scheme_from_obj(bad)

    bad = json.loads(json.dumps(obj))
    del bad["blocks"][0]
    with pytest.raises(SchemeFileError):
        scheme_from_obj(bad)


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
    assert open(path).read() == open(again).read()


def test_build_infeasible_and_bad_modulus(tmp_path, capsys):
    path = str(tmp_path / "s.json")
    assert (
        run(["build", "--U", "2", "--V", "2", "--G", "1", "--out", path]) == EXIT_FAILED
    )
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["build", "--U", "2", "--V", "2", "--G", "2", "--q", "4", "--out", path])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


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
    assert open(t1).read() == open(t2).read()


def test_simulate_zero_rounds(tmp_path, capsys):
    path = str(tmp_path / "ex1.json")
    run(["example", "--id", "1", "--out", path])
    capsys.readouterr()
    assert run(["simulate", path, "--rounds", "0"]) == EXIT_OK
    assert "correct rounds: 0/0" in capsys.readouterr().out


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
    obj = json.load(open(path))
    assert obj["cfg"]["q"] == str(q)  # >= 2^53, so written as a decimal string
    s = load_scheme(path)
    assert s.cfg.field.modulus == q
    again = str(tmp_path / "big2.json")
    save_scheme(s, again)
    assert open(path).read() == open(again).read()
