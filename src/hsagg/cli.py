"""Command-line front end and the JSON formats for schemes, transcripts, reports.

Serialization is canonical: fields are emitted in a fixed order with a fixed
layout, so loading a file written by this tool and saving it again is
byte-identical. Integers of magnitude >= 2^53 are written as decimal strings
so JSON consumers with double-precision parsers cannot lose digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import comb

import numpy as np

from . import audit, linalg, protocol, scheme as scheme_mod
from .combi import CountOverflow, all_users, enumerate_groups
from .gf import NotPrime, make_field
from .rates import (
    Infeasible,
    ProblemConfig,
    classify_regime,
    optimal_rates,
    security_fractions,
)
from .scheme import ConstructionFailed, PrecodingScheme

FORMAT_VERSION = 1
_JSON_SAFE = 1 << 53

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


class SchemeFileError(ValueError):
    """Raised when a scheme file is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# canonical JSON encoding

def _enc_int(x: int):
    return str(x) if abs(x) >= _JSON_SAFE else x


def _dec_int(x) -> int:
    """The inverse of _enc_int, so that a file that loads re-saves to the same bytes.

    A bool, a float, or a string that _enc_int would not write is refused.
    """
    if isinstance(x, int) and not isinstance(x, bool) and abs(x) < _JSON_SAFE:
        return x
    if isinstance(x, str):
        try:
            value = int(x)
        except ValueError as exc:
            raise SchemeFileError(f"bad integer literal {x[:40]!r}") from exc
        if abs(value) >= _JSON_SAFE and str(value) == x:
            return value
    raise SchemeFileError(f"expected integer, got {x!r:.40}")


def _dec_user(x) -> tuple[int, ...]:
    return tuple(_dec_int(c) for c in x)


def _dec_provenance(v):
    """Integers, as numbers or digit strings, go through _dec_int; other values load as they are."""
    is_int = isinstance(v, (int, str)) and not isinstance(v, bool) and str(v).lstrip("-").isdigit()
    return _dec_int(v) if is_int else v


def _fields(obj, *names: str) -> list:
    """The values of a JSON object that must have exactly the named keys, in that order."""
    if not isinstance(obj, dict) or list(obj) != list(names):
        raise SchemeFileError(f"expected an object with keys {list(names)}")
    return [obj[name] for name in names]


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def scheme_to_obj(s: PrecodingScheme) -> dict:
    blocks = []
    for g_idx, grp in enumerate(s.groups):
        for member in grp:
            data = [_enc_int(x) for x in s.block(g_idx, member).reshape(-1).tolist()]
            matrix = {"rows": s.dims.L, "cols": s.dims.L_S, "data": data}
            blocks.append({"group_index": g_idx, "user": list(member), "matrix": matrix})
    return {
        "format_version": FORMAT_VERSION,
        "prng_id": linalg.PRNG_ID,
        "cfg": {"U": s.cfg.U, "V": s.cfg.V, "G": s.cfg.G, "q": _enc_int(s.cfg.field.modulus)},
        "dims": {"regime": s.dims.regime.value, "L": s.dims.L, "L_S": s.dims.L_S},
        "group_order": [[list(member) for member in grp] for grp in s.groups],
        "blocks": blocks,
        "provenance": {k: _enc_int(v) if isinstance(v, int) else v for k, v in s.provenance.items()},
    }


def scheme_from_obj(obj: dict) -> PrecodingScheme:
    """The scheme a canonical scheme object describes; SchemeFileError for any other object.

    The object must be exactly what scheme_to_obj writes for some scheme (same
    keys in the same order, blocks in canonical (group, member) order, integers
    encoded as _enc_int does), so that it re-saves to the same bytes. The
    member blocks are copied into the encoding matrix as they are: a file that
    breaks zero-sum loads, and verify reports it.
    """
    try:
        version, prng_id, cfg_obj, dims_obj, group_order, blocks, provenance = _fields(
            obj, "format_version", "prng_id", "cfg", "dims", "group_order", "blocks", "provenance"
        )
        if _dec_int(version) != FORMAT_VERSION:
            raise SchemeFileError(f"unsupported format_version {version!r}")
        if prng_id != linalg.PRNG_ID:
            raise SchemeFileError(f"unsupported prng_id {prng_id!r}")
        U, V, G, q = (_dec_int(x) for x in _fields(cfg_obj, "U", "V", "G", "q"))
        cfg = ProblemConfig(U, V, G, make_field(q))
        dims = classify_regime(cfg)
        regime, L, L_S = _fields(dims_obj, "regime", "L", "L_S")
        L, L_S = _dec_int(L), _dec_int(L_S)
        if (regime, L, L_S) != (dims.regime.value, dims.L, dims.L_S):
            raise SchemeFileError(f"dims {dims_obj} do not match the config's regime")
        # Counted before the groups are enumerated, so the work stays in
        # proportion to the file's size.
        n_groups = comb(U * V, G)
        if len(group_order) != n_groups or len(blocks) != n_groups * G:
            raise SchemeFileError("group_order or blocks has the wrong number of entries")
        groups = tuple(enumerate_groups(U, V, G))
        if [tuple(_dec_user(m) for m in grp) for grp in group_order] != list(groups):
            raise SchemeFileError("group_order does not match the canonical enumeration")
        e = np.zeros((U * V * L, n_groups * L_S), dtype=np.int64)
        expected = ((g_idx, member) for g_idx, grp in enumerate(groups) for member in grp)
        for i, (entry, (g_idx, member)) in enumerate(zip(blocks, expected)):
            group_index, user, matrix = _fields(entry, "group_index", "user", "matrix")
            if (_dec_int(group_index), _dec_user(user)) != (g_idx, member):
                raise SchemeFileError(f"block {i} must be group {g_idx} member {list(member)}")
            rows, cols, data = _fields(matrix, "rows", "cols", "data")
            if (_dec_int(rows), _dec_int(cols), len(data)) != (L, L_S, L * L_S):
                raise SchemeFileError(f"block for group {g_idx} user {member} has wrong shape")
            values = [_dec_int(x) for x in data]
            if any(not 0 <= x < q for x in values):
                raise SchemeFileError("matrix entry outside [0, q-1]")
            e[scheme_mod.block_slices(cfg, dims, g_idx, member)] = np.reshape(values, (L, L_S))
        if not isinstance(provenance, dict):
            raise SchemeFileError("provenance must be an object")
        provenance = {k: _dec_provenance(v) for k, v in provenance.items()}
        return PrecodingScheme(cfg, dims, groups, e, provenance)
    except (KeyError, TypeError, ValueError, Infeasible) as exc:
        if isinstance(exc, SchemeFileError):
            raise
        raise SchemeFileError(f"malformed scheme file: {exc}") from exc


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def save_scheme(s: PrecodingScheme, path: str):
    _write(path, _dumps(scheme_to_obj(s)))


def load_scheme(path: str) -> PrecodingScheme:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemeFileError(f"cannot read scheme file {path}: {exc}") from exc
    return scheme_from_obj(obj)


def transcript_to_obj(batch: protocol.Rounds, r: int) -> dict:
    """Round r of the batch: each user's input and message in canonical order, then each relay's."""
    s = batch.scheme

    def blocks(a: np.ndarray) -> list[list]:
        return [[_enc_int(x) for x in block] for block in a[:, r].reshape(-1, s.dims.L).tolist()]

    users = all_users(s.cfg.U, s.cfg.V)
    return {
        "inputs": [{"user": list(u), "data": w} for u, w in zip(users, blocks(batch.inputs))],
        "user_messages": [
            {"user": list(u), "data": x} for u, x in zip(users, blocks(batch.user_messages))
        ],
        "relay_messages": [
            {"relay": u, "data": y} for u, y in enumerate(blocks(batch.relay_messages), 1)
        ],
        "decoded_sum": blocks(batch.decoded_sum)[0],
    }


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _oracle_to_obj(result) -> dict:
    if result is None:
        return {"status": "not-run"}
    if isinstance(result, audit.StateSpaceTooLarge):
        return {
            "status": "skipped-infeasible",
            "required_states": _enc_int(result.required) if result.printable else result.required_text,
            "cap": _enc_int(result.cap),
        }
    return {
        "status": "pass" if result.passed else "fail",
        "states": _enc_int(result.states),
        "distinct": _enc_int(result.distinct),
        "uniform": result.uniform,
        "entropy_qary": result.entropy_qary,
        "target": result.target,
    }


def report_to_obj(r: audit.AuditReport) -> dict:
    return {
        "passed": r.passed,
        "zero_sum": r.zero_sum,
        "relay_ranks": {
            str(u): {"expected": c.expected, "computed": c.computed, "passed": c.passed}
            for u, c in r.relay_ranks.items()
        },
        "server_rank": {
            "expected": r.server_rank.expected,
            "computed": r.server_rank.computed,
            "passed": r.server_rank.passed,
        },
        "fuzz": {"rounds": r.fuzz_rounds, "failures": r.fuzz_failures},
        "oracle_relay": {str(u): _oracle_to_obj(o) for u, o in r.oracle_relay.items()},
        "oracle_server": _oracle_to_obj(r.oracle_server),
        "achieved_rates": {
            "r_x": _frac(r.achieved_rates.r_x),
            "r_y": _frac(r.achieved_rates.r_y),
            "r_s": _frac(r.achieved_rates.r_s),
        },
        "optimal_rates": {
            "r_x": _frac(r.optimal_rates.r_x),
            "r_y": _frac(r.optimal_rates.r_y),
            "r_s": _frac(r.optimal_rates.r_s),
        },
    }


# ---------------------------------------------------------------------------
# subcommands

def _unwritable(path: str, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_USAGE


def _count(text: str) -> int:
    """argparse type of --rounds, --fuzz-rounds, --max-retries and --cap."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _cfg_from_args(args, q: int) -> ProblemConfig:
    try:
        field = make_field(q)
        return ProblemConfig(args.U, args.V, args.G, field)
    except (NotPrime, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_rates(args) -> int:
    cfg = _cfg_from_args(args, q=2)  # rates do not depend on the field
    if cfg.G == 1:
        print("infeasible: G=1", file=sys.stderr)
        return EXIT_FAILED
    rates = optimal_rates(cfg)
    dims = classify_regime(cfg)
    relay_frac, server_frac = security_fractions(cfg)
    print("feasible: yes")
    print(f"relay_bound: {_frac(relay_frac)}")
    print(f"server_bound: {_frac(server_frac)}")
    print(f"r_x: {_frac(rates.r_x)}  r_y: {_frac(rates.r_y)}  r_s: {_frac(rates.r_s)}")
    print(f"regime: {dims.regime.value}  L: {dims.L}  L_S: {dims.L_S}")
    return EXIT_OK


def _save_and_summarize(s: PrecodingScheme, path: str) -> int:
    try:
        save_scheme(s, path)
    except OSError as exc:
        return _unwritable(path, exc)
    _, achieved, _ = audit.rate_audit(s)
    retries = s.provenance.get("retries_used", 0)
    print(f"construction: {s.provenance['construction']}  retries_used: {retries}")
    print(
        f"achieved rates: r_x={_frac(achieved.r_x)} r_y={_frac(achieved.r_y)} "
        f"r_s={_frac(achieved.r_s)}"
    )
    print(f"scheme written to {path}")
    return EXIT_OK


def cmd_build(args) -> int:
    cfg = _cfg_from_args(args, q=args.q)
    try:
        s = scheme_mod.build_random(cfg, seed=args.seed, max_retries=args.max_retries)
    except Infeasible:
        print("infeasible: G=1", file=sys.stderr)
        return EXIT_FAILED
    except ConstructionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except CountOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _save_and_summarize(s, args.out)


def cmd_example(args) -> int:
    s = scheme_mod.build_example1() if args.id == 1 else scheme_mod.build_example2()
    return _save_and_summarize(s, args.out)


def cmd_verify(args) -> int:
    try:
        s = load_scheme(args.scheme)
    except SchemeFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = audit.full_audit(
        s,
        fuzz_rounds=args.fuzz_rounds,
        oracle_cap=args.cap,
        seed=args.seed,
        run_oracles=args.oracle,
    )
    obj = report_to_obj(report)
    print(f"zero-sum: {'pass' if report.zero_sum else 'FAIL'}")
    for u, c in report.relay_ranks.items():
        print(f"relay {u} rank: {c.computed}/{c.expected} {'pass' if c.passed else 'FAIL'}")
    c = report.server_rank
    print(f"server rank: {c.computed}/{c.expected} {'pass' if c.passed else 'FAIL'}")
    print(f"correctness fuzz: {report.fuzz_rounds - report.fuzz_failures}/{report.fuzz_rounds}")
    for u, o in report.oracle_relay.items():
        print(f"relay {u} oracle: {_oracle_to_obj(o)['status']}")
    print(f"server oracle: {_oracle_to_obj(report.oracle_server)['status']}")
    print(f"rates: {'pass' if report.rates_match else 'FAIL'}")
    print(f"overall: {'pass' if report.passed else 'FAIL'}")
    if args.out:
        try:
            _write(args.out, _dumps(obj))
        except OSError as exc:
            return _unwritable(args.out, exc)
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_simulate(args) -> int:
    try:
        s = load_scheme(args.scheme)
    except SchemeFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    batch = protocol.run_rounds(s, args.seed, args.rounds)
    correct = int(np.count_nonzero(batch.correct))
    print(f"correct rounds: {correct}/{args.rounds}")
    if args.out:
        rounds = [transcript_to_obj(batch, i) for i in range(args.rounds)]
        # Free the round arrays and the encoding matrix before the JSON text,
        # the peak of this command's memory, is built.
        del s, batch
        obj = {
            "format_version": FORMAT_VERSION,
            "prng_id": linalg.PRNG_ID,
            "seed": _enc_int(args.seed),
            "rounds": rounds,
        }
        try:
            _write(args.out, _dumps(obj))
        except OSError as exc:
            return _unwritable(args.out, exc)
        print(f"transcripts written to {args.out}")
    return EXIT_OK if correct == args.rounds else EXIT_FAILED


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as the one line `<prog>: error: <message>`; subparsers inherit it."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hsagg",
        description="Hierarchical secure aggregation with groupwise keys: "
        "rate region, scheme construction, verification, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="print the optimal rate region for (U, V, G)")
    p.add_argument("--U", type=int, required=True)
    p.add_argument("--V", type=int, required=True)
    p.add_argument("--G", type=int, required=True)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("build", help="random construction with rank-check-and-retry")
    p.add_argument("--U", type=int, required=True)
    p.add_argument("--V", type=int, required=True)
    p.add_argument("--G", type=int, required=True)
    p.add_argument("--q", type=int, default=scheme_mod.DEFAULT_RANDOM_MODULUS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-retries", type=_count, default=16)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("example", help="write one of the deterministic golden schemes")
    p.add_argument("--id", type=int, choices=(1, 2), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("verify", help="audit a scheme file (ranks, fuzz, oracles, rates)")
    p.add_argument("scheme")
    p.add_argument("--oracle", action="store_true", help="run the exhaustive entropy oracles")
    p.add_argument("--fuzz-rounds", type=_count, default=100)
    p.add_argument("--cap", type=_count, default=1 << 26)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the audit report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run aggregation rounds and check decoding")
    p.add_argument("scheme")
    p.add_argument("--rounds", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the round transcripts as JSON")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
