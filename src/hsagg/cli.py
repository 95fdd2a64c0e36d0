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

import numpy as np

from . import audit, linalg, protocol, scheme as scheme_mod
from .combi import enumerate_groups
from .gf import NotPrime, make_field
from .linalg import Mat
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
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise SchemeFileError(f"expected integer, got {x!r}")
    try:
        return int(x)
    except ValueError as exc:
        raise SchemeFileError(f"bad integer literal {x!r}") from exc


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _mat_to_obj(m: Mat) -> dict:
    return {"rows": m.rows, "cols": m.cols, "data": [_enc_int(x) for x in m.entries()]}


def scheme_to_obj(s: PrecodingScheme) -> dict:
    blocks = []
    for g_idx, grp in enumerate(s.groups):
        for member in grp:
            blocks.append(
                {
                    "group_index": g_idx,
                    "user": list(member),
                    "matrix": _mat_to_obj(s.block(g_idx, member)),
                }
            )
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
    try:
        if obj["format_version"] != FORMAT_VERSION:
            raise SchemeFileError(f"unsupported format_version {obj['format_version']!r}")
        cfg_obj = obj["cfg"]
        field = make_field(_dec_int(cfg_obj["q"]))
        cfg = ProblemConfig(cfg_obj["U"], cfg_obj["V"], cfg_obj["G"], field)
        dims = classify_regime(cfg)
        dims_obj = obj["dims"]
        if (dims_obj["regime"], dims_obj["L"], dims_obj["L_S"]) != (
            dims.regime.value,
            dims.L,
            dims.L_S,
        ):
            raise SchemeFileError(f"dims {dims_obj} do not match the config's regime")
        groups = tuple(enumerate_groups(cfg.U, cfg.V, cfg.G))
        listed = [tuple(tuple(m) for m in grp) for grp in obj["group_order"]]
        if listed != list(groups):
            raise SchemeFileError("group_order does not match the canonical enumeration")
        blocks: dict[tuple[int, tuple[int, int]], Mat] = {}
        for entry in obj["blocks"]:
            g_idx = entry["group_index"]
            user = tuple(entry["user"])
            if not 0 <= g_idx < len(groups):
                raise SchemeFileError(f"block group_index {g_idx} out of range")
            if user not in groups[g_idx]:
                raise SchemeFileError(f"block user {user} is not a member of group {g_idx}")
            mobj = entry["matrix"]
            if (mobj["rows"], mobj["cols"]) != (dims.L, dims.L_S):
                raise SchemeFileError(f"block for group {g_idx} user {user} has wrong shape")
            data = [_dec_int(x) for x in mobj["data"]]
            if any(not 0 <= x < field.modulus for x in data):
                raise SchemeFileError("matrix entry outside [0, q-1]")
            blocks[(g_idx, user)] = linalg.from_flat(field, dims.L, dims.L_S, data)
        for g_idx, grp in enumerate(groups):
            for member in grp:
                if (g_idx, member) not in blocks:
                    raise SchemeFileError(f"missing block for group {g_idx} member {member}")
        provenance = {
            k: _dec_int(v) if isinstance(v, str) and v.lstrip("-").isdigit() else v
            for k, v in obj["provenance"].items()
        }
        return PrecodingScheme(cfg, dims, groups, blocks, provenance)
    except (KeyError, TypeError, ValueError, Infeasible) as exc:
        if isinstance(exc, SchemeFileError):
            raise
        raise SchemeFileError(f"malformed scheme file: {exc}") from exc


def save_scheme(s: PrecodingScheme, path: str):
    with open(path, "w") as fh:
        fh.write(_dumps(scheme_to_obj(s)))


def load_scheme(path: str) -> PrecodingScheme:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemeFileError(f"cannot read scheme file {path}: {exc}") from exc
    return scheme_from_obj(obj)


def _vec_to_list(v: Mat) -> list:
    return [_enc_int(x) for x in v.entries()]


def transcript_to_obj(t: protocol.Transcript) -> dict:
    return {
        "inputs": [{"user": list(u), "data": _vec_to_list(w)} for u, w in sorted(t.inputs.items())],
        "user_messages": [
            {"user": list(u), "data": _vec_to_list(x)} for u, x in sorted(t.user_messages.items())
        ],
        "relay_messages": [
            {"relay": u, "data": _vec_to_list(y)} for u, y in sorted(t.relay_messages.items())
        ],
        "decoded_sum": _vec_to_list(t.decoded_sum),
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


def _print_scheme_summary(s: PrecodingScheme):
    _, achieved, _ = audit.rate_audit(s)
    retries = s.provenance.get("retries_used", 0)
    print(f"construction: {s.provenance['construction']}  retries_used: {retries}")
    print(
        f"achieved rates: r_x={_frac(achieved.r_x)} r_y={_frac(achieved.r_y)} "
        f"r_s={_frac(achieved.r_s)}"
    )


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
    save_scheme(s, args.out)
    _print_scheme_summary(s)
    print(f"scheme written to {args.out}")
    return EXIT_OK


def cmd_example(args) -> int:
    s = scheme_mod.build_example1() if args.id == 1 else scheme_mod.build_example2()
    save_scheme(s, args.out)
    _print_scheme_summary(s)
    print(f"scheme written to {args.out}")
    return EXIT_OK


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
        with open(args.out, "w") as fh:
            fh.write(_dumps(obj))
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_simulate(args) -> int:
    try:
        s = load_scheme(args.scheme)
    except SchemeFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    batch = protocol.run_rounds(s, protocol.round_seeds(args.seed, args.rounds))
    correct = int(np.count_nonzero(batch.correct))
    print(f"correct rounds: {correct}/{args.rounds}")
    if args.out:
        rounds = [transcript_to_obj(batch.transcript(i)) for i in range(args.rounds)]
        # Free the round arrays and the encoding matrix before the JSON text,
        # the peak of this command's memory, is built.
        del s, batch
        obj = {
            "format_version": FORMAT_VERSION,
            "prng_id": linalg.PRNG_ID,
            "seed": _enc_int(args.seed),
            "rounds": rounds,
        }
        with open(args.out, "w") as fh:
            fh.write(_dumps(obj))
        print(f"transcripts written to {args.out}")
    return EXIT_OK if correct == args.rounds else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--max-retries", type=int, default=16)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("example", help="write one of the deterministic golden schemes")
    p.add_argument("--id", type=int, choices=(1, 2), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("verify", help="audit a scheme file (ranks, fuzz, oracles, rates)")
    p.add_argument("scheme")
    p.add_argument("--oracle", action="store_true", help="run the exhaustive entropy oracles")
    p.add_argument("--fuzz-rounds", type=int, default=100)
    p.add_argument("--cap", type=int, default=1 << 26)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the audit report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run aggregation rounds and check decoding")
    p.add_argument("scheme")
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the round transcripts as JSON")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
