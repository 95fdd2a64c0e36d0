"""README's CLI block and exit-code table, run as they are written."""

import re
import shlex
from pathlib import Path

import pytest

from hsagg import cli
from hsagg.combi import CountOverflow
from hsagg.rates import Infeasible
from hsagg.scheme import ConstructionFailed

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SECTION = README[README.index("\n## CLI\n") :]


def cli_block() -> list[list[str]]:
    """The argument lists of the commands in the CLI section's first sh block."""
    block = SECTION[SECTION.index("```sh\n") + 6 : SECTION.index("\n```", SECTION.index("```sh\n"))]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(argv[0] == "hsagg" for argv in commands if argv)
    return [argv[1:] for argv in commands if argv]


def test_cli_block_runs_as_annotated(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for argv in cli_block():
        assert cli.main(argv) == cli.EXIT_OK, argv
        out, err = capsys.readouterr()
        assert err == "", argv
        outputs[" ".join(argv[:2])] = out
    assert len(outputs) == 6
    rates = outputs["rates --U"]
    assert "r_s: 2/5" in rates and "regime: RelayDominant  L: 5  L_S: 2\n" in rates
    # No --oracle: every oracle of the build's scheme reads not-run.
    oracles = re.findall(r"^(?:relay \d+|server) oracle: (.*)$", outputs["verify s.json"], re.M)
    assert oracles == ["not-run"] * 4
    assert "overall: pass" in outputs["verify s.json"]
    assert "server oracle: pass" in outputs["verify ex1.json"]
    assert (tmp_path / "transcripts.json").is_file()


def exit_table() -> list[tuple[str, int, str]]:
    """The rows of README's exit-code table: (error, exit code, stderr line)."""
    rows = re.findall(r"^\| (.+?) \| (\d) \| `(.+)` \|$", SECTION, re.M)
    assert len(rows) == 5
    return [(error, int(code), line) for error, code, line in rows]


EXCEPTIONS = {cls.__name__: cls for cls in (Infeasible, ConstructionFailed, cli.UsageError, cli.SchemeFileError, CountOverflow, MemoryError)}


def raised(name: str) -> BaseException:
    return ConstructionFailed(3) if name == "ConstructionFailed" else EXCEPTIONS[name]("what went wrong")


@pytest.mark.parametrize("row", range(5))
def test_exit_table_rows_match_main(row, capsys, monkeypatch):
    error, code, line = exit_table()[row]
    names = [name for name in re.findall(r"`(\w+)`", error) if name in EXCEPTIONS]
    if error == "argument parser":
        with pytest.raises(SystemExit) as exc:
            cli.main(["rates", "--U", "x"])
        assert exc.value.code == code
        prefix = line.replace("<command>", "rates").split("<message>")[0]
        assert capsys.readouterr().err.startswith(prefix)
        return
    assert names, error
    # The subcommand a fresh parser binds raises each exception the row names.
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    for name in names:
        exc = raised(name)

        def cmd_rates(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "cmd_rates", cmd_rates)
        assert cli.main(["rates", "--U", "2", "--V", "2", "--G", "2"]) == code, name
        expected = line.replace("<exception type>", name).replace("<message>", str(exc))
        assert capsys.readouterr() == ("", expected + "\n"), name
