import functools
import json
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from hsagg.gf import make_field
from hsagg.rates import ProblemConfig
from hsagg.scheme import build_example1, build_random


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
    assert np.array_equal(s.encoding, golden.encoding)
    assert s.block(0, (1, 1)).tolist() == [[1, 0], [0, 1], [1, 1], [1, 2], [2, 1]]
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
    bad["prng_id"] = "other-prng"
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

    # The blocks must be exactly the canonical (group, member) sequence.
    for edit in (
        lambda blocks: blocks.insert(1, blocks[0]),  # listed twice
        lambda blocks: blocks.append(blocks[-1]),  # extra entry
        lambda blocks: blocks.insert(0, blocks.pop(1)),  # reordered
    ):
        bad = json.loads(json.dumps(obj))
        edit(bad["blocks"])
        with pytest.raises(SchemeFileError):
            scheme_from_obj(bad)

    # Integers are decoded strictly: no bools, floats or small numbers as strings.
    for path, value in (
        (("blocks", 2, "group_index"), True),  # group 1
        (("blocks", 0, "user"), [True, 1]),  # user (1, 1)
        (("blocks", 0, "matrix", "rows"), 5.0),
        (("cfg", "q"), "5"),
        (("format_version",), True),
    ):
        bad = json.loads(json.dumps(obj))
        *parents, last = path
        target = bad
        for key in parents:
            target = target[key]
        target[last] = value
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
    assert Path(path).read_bytes() == Path(again).read_bytes()


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
    assert Path(t1).read_bytes() == Path(t2).read_bytes()


def test_build_count_overflow_is_a_usage_error(tmp_path, capsys):
    # C(1600, 30) groups cannot be enumerated; the build is refused, not crashed.
    out = tmp_path / "s.json"
    assert run(["build", "--U", "40", "--V", "40", "--G", "30", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: C(1600,30) = ") and err.count("\n") == 1, err
    assert not out.exists()


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
        return scheme_to_obj(build_example1())
    return scheme_to_obj(build_random(ProblemConfig(2, 2, 2, make_field((1 << 61) - 1)), seed=1))


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
    # Every mutation of a canonical scheme object either loads and re-saves to
    # the same bytes, or is refused with SchemeFileError.
    obj = json.loads(json.dumps(_fuzz_golden(data.draw(st.sampled_from(["ex1", "p61"])))))
    paths = list(_json_paths(obj))
    path = paths[data.draw(st.integers(0, len(paths) - 1))]
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else obj
    kinds = ["replace", "derive", "delete", "duplicate", "add", "reorder"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "replace" and path:
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
    try:
        s = scheme_from_obj(obj)
    except SchemeFileError:
        return
    assert cli._dumps(scheme_to_obj(s)) == cli._dumps(obj)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate", "{scheme}"], "--rounds"),
        (["verify", "{scheme}"], "--fuzz-rounds"),
        (["verify", "{scheme}"], "--cap"),
        (["build", "--U", "2", "--V", "2", "--G", "2", "--out", "{out}"], "--max-retries"),
    ],
    ids=["rounds", "fuzz-rounds", "cap", "max-retries"],
)
def test_count_flags_reject_negative_values(argv, flag, tmp_path, capsys):
    scheme_path, out = tmp_path / "ex1.json", tmp_path / "out.json"
    run(["example", "--id", "1", "--out", str(scheme_path)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([a.format(scheme=scheme_path, out=out) for a in argv] + [flag, "-1"])
    assert exc.value.code == EXIT_USAGE
    message = f"argument {flag}: expected a non-negative integer, got '-1'"
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
