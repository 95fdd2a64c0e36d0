"""Byte identity across versions: pinned SHA-256 digests of CLI outputs.

Criterion 9 compares two runs of the same code; these digests pin the bytes
of scheme files, verify reports and simulate transcripts themselves, so a
change to the protocol, the linear algebra or the JSON encoder that alters
any output fails here unless it bumps format_version or prng_id.
"""

import hashlib
import json

import pytest

from hsagg import audit, cli

Q61 = (1 << 61) - 1

# name -> (scheme, verify report, simulate --rounds 20 --seed 3 transcripts)
GOLDEN = {
    "ex1": (
        "1dad07df65c2ae63f44b6e686a0ad2a00f0cbf3f10f77c6f468f12161f79ee3b",
        "f9d917c0ed8259bcf0f6426b24072f1f3849501c853217ad04a4c467003f4ec0",
        "7e07d3802630c91c5db7a42ddcd9992263461b538eb9d41361fa52c5a7cb1c7e",
    ),
    "ex2": (
        "174b21e73ffcdd8c88906d4af66cdebcb5bdd1444b56112d6cce5ff75aa3d989",
        "2e38bad61556b3d444bb0f4e416d2e5830d6acf2ca438524e29e2eed6589b799",
        "62e1fc38da5c31328e15574348e6236e07882cf9b486345d3662cb18603355cb",
    ),
    "rand336": (
        "ffd71190843a1cd1586629a650be2c248e4dcef3891588ce06bc4546f5787e2a",
        "cdd90ea40f8508439b962e70b047930f26a4e400b9ec93b7532e1400629c654d",
        "a4886882862ddfa63d3ec48b5bcbc1af83e5985516266989b7514703c948c041",
    ),
    "rand323": (
        "e27fef582dd19c14ec2e3cdf7fb3f2ca3bc8bb94dd983d87e6383bff53e6c6bd",
        "74e168faee93d1f4fe498398a46c112bf382f8327592095077989e16035caa2d",
        "d660a5658ef5418a85975bea3f18c2bf0caadd3dcedc97d05a9086bcf004ca4d",
    ),
    "retry235": (
        "105f57bdc5baad8f70bc09770ff4c849913c27868a2509be1d3d69f869142d6e",
        "eb9433e9f231768ac45856634314d8b04300fd3a14b6359c8c183aa30d55d7e0",
        "8d392378a07a340c1c980784599c5b547918fb9432462f80373bb9da1b346bdd",
    ),
}
MAKE = {
    "ex1": ["example", "--id", "1"],
    "ex2": ["example", "--id", "2"],
    "rand336": ["build", "--U", "3", "--V", "3", "--G", "6", "--q", str(Q61), "--seed", "5"],
    # README's build at q = 2^31 - 1, where rank's leaves are plain int64 and every slot is bare.
    "rand323": ["build", "--U", "3", "--V", "2", "--G", "3", "--q", "2147483647", "--seed", "7"],
    # Passes on attempt 22 (retries_used 21), so build_random's retries are pinned too.
    "retry235": ["build", "--U", "2", "--V", "3", "--G", "5", "--q", "2", "--seed", "4", "--max-retries", "500"],
}
# ex2's oracles are skipped as infeasible, which pins the required_states encoding.
# retry235's oracles all run.
VERIFY_EXTRA = {"ex1": [], "ex2": ["--oracle"], "rand336": [], "rand323": [], "retry235": ["--oracle"]}
# verify --oracle --seed 2 of ex1: every oracle runs, so the report pins their tallies.
EX1_ORACLE_REPORT = "733f9b8f2a534db68111eadae6f12ee9979ad2c05976092bb67174f845ae6a97"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def scheme_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, argv in MAKE.items():
        paths[name] = d / f"{name}.json"
        assert cli.main(argv + ["--out", str(paths[name])]) == cli.EXIT_OK
    return paths


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, scheme_files, tmp_path, capsys):
    scheme_path = scheme_files[name]
    report, transcripts = tmp_path / "report.json", tmp_path / "transcripts.json"
    verify = ["verify", str(scheme_path), "--seed", "2", *VERIFY_EXTRA[name], "--out", str(report)]
    assert cli.main(verify) == cli.EXIT_OK
    simulate = ["simulate", str(scheme_path), "--rounds", "20", "--seed", "3", "--out", str(transcripts)]
    assert cli.main(simulate) == cli.EXIT_OK
    capsys.readouterr()
    assert (sha256(scheme_path), sha256(report), sha256(transcripts)) == GOLDEN[name]


def test_golden_oracle_report(scheme_files, tmp_path, capsys):
    report = tmp_path / "report.json"
    verify = ["verify", str(scheme_files["ex1"]), "--oracle", "--seed", "2", "--out", str(report)]
    assert cli.main(verify) == cli.EXIT_OK
    assert "server oracle: pass" in capsys.readouterr().out
    assert sha256(report) == EX1_ORACLE_REPORT


def test_oracles_refuse_61_bit_scheme_without_giant_integers(scheme_files, tmp_path, capsys):
    # (3,3,6) at q = 2^61 - 1: q^249 relay states and q^252 server states,
    # both past the 4300 digits Python converts to a string.
    s = cli.load_scheme(str(scheme_files["rand336"]))
    for u in range(1, 4):
        with pytest.raises(audit.StateSpaceTooLarge) as exc:
            audit.entropy_oracle_relay(s, u, 1 << 26)
        assert (exc.value.q, exc.value.n) == (Q61, 249)
        assert f"{Q61}^249" in str(exc.value)
    with pytest.raises(audit.StateSpaceTooLarge) as exc:
        audit.entropy_oracle_server(s, 1 << 26)
    assert (exc.value.q, exc.value.n) == (Q61, 252)

    report = tmp_path / "report.json"
    argv = ["verify", str(scheme_files["rand336"]), "--oracle", "--fuzz-rounds", "5", "--out", str(report)]
    assert cli.main(argv) == cli.EXIT_OK
    assert "server oracle: skipped-infeasible" in capsys.readouterr().out
    obj = json.loads(report.read_text())
    assert obj["oracle_relay"]["1"] == {
        "status": "skipped-infeasible",
        "required_states": f"{Q61}^249",
        "cap": 1 << 26,
    }
    assert obj["oracle_server"]["required_states"] == f"{Q61}^252"
