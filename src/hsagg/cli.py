"""Command-line front end and the JSON formats for schemes, transcripts, reports.

Every file is json.dumps(obj, indent=2) and a newline, with LF line ends on
every platform, fields in a fixed order, written piece by piece by one
writer. Integers of magnitude >= 2^53 are decimal strings so JSON consumers
with double-precision parsers cannot lose digits. Records that recur in a
file, the blocks of a scheme and the sections of each transcript round, are
% fills of a template that the writer renders once per file, one fill rule
per q (_Template). A transcript round is one record: its fixed text,
rendered once, around four section fills. The writer alone defines the
scheme format: the loader decodes a scheme file's text leniently, then
compares the text, piece by piece, with what save_scheme writes for the
decoded scheme. So a scheme file loads iff re-saving it gives the same bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from math import comb

import numpy as np

from . import audit, linalg, protocol, scheme as scheme_mod
from .combi import CountOverflow, all_users, count_groups, huge_count
from .rates import Infeasible, ProblemConfig, classify_regime, optimal_rates, require_feasible, security_fractions
from .scheme import ConstructionFailed, PrecodingScheme

FORMAT_VERSION = 1
_JSON_SAFE = 1 << 53
_SCALARS = (str, int, float, type(None))

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

# Most entries of an encoding matrix that build makes (2^27 int64 entries are
# 1 GiB; the relay and server matrices copy parts of it), and of R rounds of
# simulate or verify, whose inputs, keys and messages are R * (rows + cols of E).
MAX_ENCODING_ENTRIES = 1 << 27


class SchemeFileError(ValueError):
    """Raised when a scheme file is malformed or inconsistent."""


class UsageError(Exception):
    """Raised by a subcommand for an input it refuses: main prints `error: <message>`, exits 2."""


# ---------------------------------------------------------------------------
# canonical JSON encoding

def _enc_int(x: int):
    return str(x) if abs(x) >= _JSON_SAFE else x


def _scalar_text(x) -> str:
    return encode_basestring_ascii(x) if isinstance(x, str) else str(x) if type(x) is int else json.dumps(x)


def _write_text(obj, write, pad: str = ""):
    """Pass the text of json.dumps(obj, indent=2), at indentation pad, to write in pieces.

    Any value may also be a function that writes its own text, called as
    value(write, pad) (a list of template records). A list of scalars is one
    piece, made by one join.
    """
    inner = pad + "  "
    if isinstance(obj, list) and all(isinstance(x, _SCALARS) for x in obj):
        texts = list(map(_scalar_text, obj))
        write("[\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "]" if texts else "[]")
    elif callable(obj):
        obj(write, pad)
    elif isinstance(obj, (dict, list)):
        is_dict = isinstance(obj, dict)
        opener, closer = "{}" if is_dict else "[]"
        head = opener + "\n" + inner
        for item in obj.items() if is_dict else obj:
            write(head + encode_basestring_ascii(item[0]) + ": " if is_dict else head)
            _write_text(item[1] if is_dict else item, write, inner)
            head = ",\n" + inner
        write("\n" + pad + closer if head[0] == "," else opener + closer)
    else:
        write(_scalar_text(obj))


def _text(obj, pad: str) -> str:
    """The text of json.dumps(obj, indent=2) at indentation pad, as the writer makes it."""
    pieces = []
    _write_text(obj, pieces.append, pad)
    return "".join(pieces)


# Marks a slot in a template's prototype: no record holds this string, and
# the writer renders it as the text _SLOT_TEXT.
_SLOT = "\0"
_SLOT_TEXT = encode_basestring_ascii(_SLOT)
# 10^1 .. 10^18: an int64 x >= 0 has 1 + (the count of these <= x) digits.
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


class _Template:
    """A record layout that recurs in a list: the writer renders it once, and a record costs only its % fill.

    The prototype is the record's object with _SLOT wherever records differ,
    head slots (small ints) first, then residue slots, whose entries are
    residues of q, in [0, q-1]. Its text, rendered by _write_text at the
    records' indentation, has a %s in each slot, quoted, "%s", in each
    residue slot if q > 2^53. At q <= 2^53 every residue is below 2^53, so a
    record is just that text % (head, residues). Above 2^53 a record fills
    the quoted text once, then drops the quotes around each of its entries
    below 2^53. Their offsets are counted back from the record's end: the
    fixed text after each slot, measured unescaped, plus the widths of the
    entries after it, each its digit count (one searchsorted over powers of
    ten) and two quotes. Either way each slot holds its entry's JSON text,
    as _enc_int gives it.
    """

    def __init__(self, prototype, q: int):
        self.prototype, self.quoted = prototype, q > _JSON_SAFE
        self.pad = None

    def fill(self, pad: str, head: tuple, residues: np.ndarray) -> str:
        """The text, at indentation pad, of the record whose slots hold the ints of head, then the entries of a 1-D residue array."""
        if pad != self.pad:
            text = _text(self.prototype, pad)
            if self.quoted:  # the length of the fixed text after each residue slot, to the record's end
                marks = np.fromiter((m.end() for m in re.finditer(re.escape(_SLOT_TEXT), text)), np.int64)[len(head) :]
                self.after = len(text) - marks - len(_SLOT_TEXT) * np.arange(len(marks))[::-1]
            text = text.replace("%", "%%").replace(_SLOT_TEXT, "%s", len(head))
            self.pad, self.text = pad, text.replace(_SLOT_TEXT, '"%s"' if self.quoted else "%s")
        text = self.text % (*head, *residues.tolist())
        if not self.quoted:
            return text
        bare = np.flatnonzero(residues < _JSON_SAFE)
        if not len(bare):
            return text
        widths = np.searchsorted(_POWERS_OF_TEN, residues, side="right") + 3  # digits and two quotes
        total = widths.cumsum()
        ends = total[bare] + (len(text) - total[-1]) - self.after[bare]  # past each closing quote
        chars = np.frombuffer(text.encode("ascii"), np.uint8)
        kept = np.ones(len(chars), bool)
        kept[ends - widths[bare]] = kept[ends - 1] = False
        return str(chars[kept], "ascii")

    def records(self, items):
        """The list of records, one per (head, residues) that items yields, as a value the writer calls."""

        def write_list(write, pad: str):
            inner, opener = pad + "  ", "[\n"
            for head, residues in items:
                write(opener + inner + self.fill(inner, head, residues))
                opener = ",\n"
            write("[]" if opener == "[\n" else "\n" + pad + "]")

        return write_list


def _dec_provenance(v):
    """An int, as a number or a digit string, becomes an int; other values load as they are."""
    is_int = isinstance(v, (int, str)) and not isinstance(v, bool) and str(v).lstrip("-").isdigit()
    return int(v) if is_int else v


def _scheme_file(s: PrecodingScheme) -> dict:
    """The object save_scheme writes for s; its blocks, in canonical (group, member) order, fill one template.

    Each group's blocks are one gather from E through the member index (the build's scatter,
    inverted), group by group; member index i is the user all_users(U, V)[i].
    """
    L, L_S = s.dims.L, s.dims.L_S
    members, users = scheme_mod._members(s.cfg.U, s.cfg.V, s.cfg.G).tolist(), all_users(s.cfg.U, s.cfg.V)
    matrix = {"rows": L, "cols": L_S, "data": [_SLOT] * L * L_S}
    block = _Template({"group_index": _SLOT, "user": [_SLOT, _SLOT], "matrix": matrix}, s.cfg.q)
    return {
        "format_version": FORMAT_VERSION,
        "prng_id": linalg.PRNG_ID,
        "cfg": {"U": s.cfg.U, "V": s.cfg.V, "G": s.cfg.G, "q": _enc_int(s.cfg.q)},
        "dims": {"regime": s.dims.regime.value, "L": L, "L_S": L_S},
        "group_order": [[list(users[i]) for i in grp] for grp in members],
        "blocks": block.records(
            ((g_idx, *users[i]), data.reshape(-1))
            for g_idx, grp in enumerate(members)
            for i, data in zip(grp, s.encoding.reshape(-1, L, len(members), L_S)[grp, :, g_idx])
        ),
        "provenance": {k: _enc_int(v) if isinstance(v, int) else v for k, v in s.provenance.items()},
    }


def _refuse_unless_written(s: PrecodingScheme, text: str):
    """Raise SchemeFileError unless text is exactly what save_scheme writes for s.

    Each piece the writer makes is compared with text at its offset, so the
    writer's text is never held whole, and text after its last piece differs
    too. From the first difference on, the writer's pieces are kept until it
    ends that line: the refusal names the line and the writer's text for it.
    """
    pos, line = 0, []  # line: once a piece differs, the writer's text of that line so far

    def compare(piece: str):
        nonlocal pos
        if not line:
            if text.startswith(piece, pos):
                pos += len(piece)
                return
            got = text[pos : pos + len(piece)]
            same = next((i for i, (a, b) in enumerate(zip(piece, got)) if a != b), len(got))
            pos += same
            line.append(text[text.rfind("\n", 0, pos) + 1 : pos])
            piece = piece[same:]
        head, newline, _ = piece.partition("\n")
        line.append(head)
        if newline:
            number = text.count("\n", 0, pos) + 1
            raise SchemeFileError(f"line {number} differs from the writer's line {''.join(line)!r} for this scheme")

    _write_text(_scheme_file(s), compare)
    compare("\n")
    if pos < len(text):
        number = text.count("\n", 0, pos) + 1
        raise SchemeFileError(f"line {number} differs from the writer's text for this scheme, which ends at line {number - 1}")


def scheme_from_text(text: str) -> PrecodingScheme:
    """The scheme a scheme file's text describes, if save_scheme writes exactly that text for it.

    The text is decoded leniently and refused at once for a format_version
    or prng_id this version does not write, too few blocks for its users
    (checked before any binomial), blocks of the wrong count or length, or an
    entry outside [0, q-1]. The blocks fill one array, each parsed block
    released as it is converted, and the object is dropped before the build's
    scatter places them in E; then the text is compared with what save_scheme
    writes for the decoded scheme (_refuse_unless_written), so a file loads
    iff re-saving it gives the same bytes. Blocks are placed as they are: a
    file that breaks zero-sum loads, and verify reports it.
    """
    try:
        obj = json.loads(text)
        if obj["format_version"] != FORMAT_VERSION:
            raise SchemeFileError(f"unsupported format_version {obj['format_version']!r}")
        if obj["prng_id"] != linalg.PRNG_ID:
            raise SchemeFileError(f"unsupported prng_id {obj['prng_id']!r}")
        U, V, G, q = (int(obj["cfg"][key]) for key in ("U", "V", "G", "q"))
        blocks = obj["blocks"]
        # A canonical file has at least UV blocks: UV of them if G = UV, else
        # C(UV,G) >= UV groups of G members. Checked before any binomial, so
        # a huge config in a small file is refused at once.
        if U * V > len(blocks):
            raise SchemeFileError(f"{len(blocks)} blocks cannot describe U*V = {U * V} users")
        cfg = ProblemConfig(U, V, G, q)
        dims = classify_regime(cfg)
        # Counted before the member index is made, so the work stays in
        # proportion to the file's size.
        n_groups = comb(U * V, G)
        if len(blocks) != n_groups * G:
            raise SchemeFileError(f"{len(blocks)} blocks, expected C(UV,G)*G = {n_groups * G}")
        data = np.empty((len(blocks), dims.L * dims.L_S), dtype=np.int64)
        for i, block in enumerate(blocks):
            data[i] = block["matrix"]["data"]  # a wrong length raises; the comparison refuses a scalar
            blocks[i] = None  # the parsed block is released as soon as it is converted
        if ((data < 0) | (data >= q)).any():
            raise SchemeFileError("matrix entry outside [0, q-1]")
        provenance = {k: _dec_provenance(v) for k, v in dict(obj["provenance"]).items()}
        del obj, blocks
        e = scheme_mod._encoding_matrix(cfg, dims, data.reshape(n_groups, G, dims.L, dims.L_S))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        if isinstance(exc, SchemeFileError):
            raise
        raise SchemeFileError(f"malformed scheme file: {exc}") from exc
    s = PrecodingScheme(cfg, dims, e, provenance)
    # The decode above accepts more than the writer writes (True, 5.0, " 5",
    # "+5" all become 5, and any layout parses); the comparison refuses it.
    _refuse_unless_written(s, text)
    return s


def _write_json(path: str, obj):
    """Write json.dumps(obj, indent=2) and a newline, piece by piece, LF line ends on any platform; UsageError if unwritable."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            _write_text(obj, fh.write)
            fh.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def save_scheme(s: PrecodingScheme, path: str):
    """Write the scheme file: the header through the writer, then each block as one fill of a block template."""
    _write_json(path, _scheme_file(s))


def load_scheme(path: str) -> PrecodingScheme:
    """The scheme in a scheme file, whose text is read as it is (no newline translation); a refusal names the file."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise SchemeFileError(f"cannot read scheme file {path}: {exc}") from exc
    try:
        return scheme_from_text(text)
    except SchemeFileError as exc:
        raise SchemeFileError(f"scheme file {path}: {exc}") from exc


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _rates_to_obj(t) -> dict:
    return {"r_x": _frac(t.r_x), "r_y": _frac(t.r_y), "r_s": _frac(t.r_s)}


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


def _rank_to_obj(c: audit.RankCheck) -> dict:
    return {"expected": c.expected, "computed": c.computed, "passed": c.passed}


def report_to_obj(r: audit.AuditReport) -> dict:
    return {
        "passed": r.passed,
        "zero_sum": r.zero_sum,
        "relay_ranks": {str(u): _rank_to_obj(c) for u, c in r.relay_ranks.items()},
        "server_rank": _rank_to_obj(r.server_rank),
        "fuzz": {"rounds": r.fuzz_rounds, "failures": r.fuzz_failures},
        "oracle_relay": {str(u): _oracle_to_obj(o) for u, o in r.oracle_relay.items()},
        "oracle_server": _oracle_to_obj(r.oracle_server),
        "achieved_rates": _rates_to_obj(r.achieved_rates),
        "optimal_rates": _rates_to_obj(r.optimal_rates),
    }


# ---------------------------------------------------------------------------
# subcommands

def _count(text: str, bits: int | None = None) -> int:
    """argparse type of --rounds, --fuzz-rounds and --cap; of --seed and --max-retries with bits = 63."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0 or bits is not None and value >> bits:
        bound = "" if bits is None else f" below 2^{bits}"
        raise argparse.ArgumentTypeError(f"expected a non-negative integer{bound}, got {text!r}")
    return value


def _below_2_63(text: str) -> int:
    """argparse type of --seed and --max-retries: below 2^63, so build's attempt seeds seed + k are distinct mod 2^64."""
    return _count(text, 63)


def _cfg_from_args(args, q: int) -> ProblemConfig:
    try:
        return ProblemConfig(args.U, args.V, args.G, q)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_rates(args) -> int:
    cfg = _cfg_from_args(args, q=2)  # rates do not depend on the field
    # Both refused before any binomial is computed: G = 1 as infeasible
    # whatever UV is, then a count too large for exact rates.
    require_feasible(cfg)
    if huge_count(cfg.U, cfg.V, cfg.G):
        raise UsageError(f"C({cfg.U * cfg.V},{cfg.G}) may exceed 14000 bits, too large for exact rates")
    fractions = security_fractions(cfg)  # once: r_s, the regime, L and L_S all follow from them
    relay_frac, server_frac = fractions
    rates = optimal_rates(cfg, fractions)
    dims = classify_regime(cfg, fractions)
    print("feasible: yes")
    print(f"relay_bound: {_frac(relay_frac)}")
    print(f"server_bound: {_frac(server_frac)}")
    print(f"r_x: {_frac(rates.r_x)}  r_y: {_frac(rates.r_y)}  r_s: {_frac(rates.r_s)}")
    print(f"regime: {dims.regime.value}  L: {dims.L}  L_S: {dims.L_S}")
    return EXIT_OK


def _check_entries(entries: int, what: str):
    """Refuse, before anything is drawn, what would hold more than MAX_ENCODING_ENTRIES int64 entries."""
    if entries > MAX_ENCODING_ENTRIES:
        raise UsageError(f"{what} would have {entries} entries, more than the limit of {MAX_ENCODING_ENTRIES}")


def _save_and_summarize(s: PrecodingScheme, path: str) -> int:
    save_scheme(s, path)
    _, achieved, _ = audit.rate_audit(s)
    retries = s.provenance.get("retries_used", 0)
    print(f"construction: {s.provenance['construction']}  retries_used: {retries}")
    if s.provenance["construction"] == "random":
        bound = scheme_mod.attempt_failure_bound(s.cfg, s.dims)
        print(f"attempt failure bound: {_frac(bound)}{' (vacuous)' if bound >= 1 else ''}")
    print(
        f"achieved rates: r_x={_frac(achieved.r_x)} r_y={_frac(achieved.r_y)} "
        f"r_s={_frac(achieved.r_s)}"
    )
    print(f"scheme written to {path}")
    return EXIT_OK


def cmd_build(args) -> int:
    cfg = _cfg_from_args(args, q=args.q)
    require_feasible(cfg)  # before any count, as in rates
    # E has UV*L x C(UV,G)*L_S entries. The group count comes first: once it
    # is at most 2^63 - 1, the regime's binomials are cheap.
    n_groups = count_groups(cfg.U, cfg.V, cfg.G)
    dims = classify_regime(cfg)
    _check_entries(cfg.U * cfg.V * dims.L * n_groups * dims.L_S, "the encoding matrix")
    s = scheme_mod.build_random(cfg, seed=args.seed, max_retries=args.max_retries)
    return _save_and_summarize(s, args.out)


def cmd_example(args) -> int:
    s = scheme_mod.build_example1() if args.id == 1 else scheme_mod.build_example2()
    return _save_and_summarize(s, args.out)


def cmd_verify(args) -> int:
    s = load_scheme(args.scheme)
    _check_entries(args.fuzz_rounds * sum(s.encoding.shape), f"--fuzz-rounds {args.fuzz_rounds}")
    oracle_cap = args.cap if args.oracle else None
    report = audit.full_audit(s, fuzz_rounds=args.fuzz_rounds, oracle_cap=oracle_cap, seed=args.seed)
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
        _write_json(args.out, report_to_obj(report))
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_simulate(args) -> int:
    s = load_scheme(args.scheme)
    _check_entries(args.rounds * sum(s.encoding.shape), f"--rounds {args.rounds}")
    batch = protocol.run_rounds(s, args.seed, args.rounds)
    correct = int(np.count_nonzero(batch.correct))
    print(f"correct rounds: {correct}/{args.rounds}")
    if args.out:
        # A round is one record: its fixed text, rendered once, around four
        # section fills read from column r of the batch's arrays (users' row
        # blocks in canonical order, relays' row blocks, the sum), each written
        # before the next: neither the whole text, nor a list of rounds, nor
        # more than one section's values and text is held.
        L, q = s.dims.L, s.cfg.q
        users = _Template([{"user": list(u), "data": [_SLOT] * L} for u in all_users(s.cfg.U, s.cfg.V)], q)
        relays = _Template([{"relay": u, "data": [_SLOT] * L} for u in range(1, s.cfg.U + 1)], q)
        sections = {
            "inputs": (users, batch.inputs),
            "user_messages": (users, batch.user_messages),
            "relay_messages": (relays, batch.relay_messages),
            "decoded_sum": (_Template([_SLOT] * L, q), batch.decoded_sum),
        }

        def write_rounds(write, pad: str):
            inner, opener = pad + "  ", "[\n"
            section_pad = inner + "  "
            head, *tails = _text(dict.fromkeys(sections, _SLOT), inner).split(_SLOT_TEXT)
            for r in range(args.rounds):
                write(opener + inner + head)
                for (template, a), tail in zip(sections.values(), tails):
                    write(template.fill(section_pad, (), a[:, r]) + tail)
                opener = ",\n"
            write("[]" if opener == "[\n" else "\n" + pad + "]")

        header = {"format_version": FORMAT_VERSION, "prng_id": linalg.PRNG_ID, "seed": _enc_int(args.seed)}
        _write_json(args.out, {**header, "rounds": write_rounds})
        print(f"transcripts written to {args.out}")
    return EXIT_OK if correct == args.rounds else EXIT_FAILED


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as the one line `<prog>: error: <message>`; subparsers inherit it."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `hsagg` argument parser, built once per process: a process may run main many times."""
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
    p.add_argument("--seed", type=_below_2_63, default=0)
    p.add_argument("--max-retries", type=_below_2_63, default=scheme_mod.DEFAULT_MAX_RETRIES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("example", help="write one of the deterministic golden schemes")
    p.add_argument("--id", type=int, choices=(1, 2), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("verify", help="audit a scheme file (ranks, fuzz, oracles, rates)")
    p.add_argument("scheme")
    p.add_argument("--oracle", action="store_true", help="run the exhaustive entropy oracles")
    p.add_argument("--fuzz-rounds", type=_count, default=audit.DEFAULT_FUZZ_ROUNDS)
    p.add_argument(
        "--cap",
        type=_count,
        default=audit.DEFAULT_ORACLE_CAP,
        help="most q^cols key states and q^rows tally cells an oracle may take "
        f"(default 2^{audit.DEFAULT_ORACLE_CAP.bit_length() - 1})",
    )
    p.add_argument("--seed", type=_below_2_63, default=0)
    p.add_argument("--out", help="write the audit report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run aggregation rounds and check decoding")
    p.add_argument("scheme")
    p.add_argument("--rounds", type=_count, default=100)
    p.add_argument("--seed", type=_below_2_63, default=0)
    p.add_argument("--out", help="write the round transcripts as JSON")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; its exit code is 0 ok, 1 verification failed, 2 anything else.

    Subcommands return 0 or 1 for their verdict and raise for everything
    else; this is the one place that maps an exception to its exit code and
    its one stderr line:

    exception                                    exit  stderr line
    Infeasible                                   1     infeasible: G=1
    ConstructionFailed                           1     error: <message>
    UsageError, SchemeFileError, CountOverflow   2     error: <message>
    any other Exception, MemoryError included    2     error: <type>: <message>

    An unexpected exception is a resource or program error, not a verdict,
    so it never exits 1. Argument-parser errors exit 2 by SystemExit, with the
    line `hsagg <command>: error: <message>`.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Infeasible:
        print("infeasible: G=1", file=sys.stderr)
        return EXIT_FAILED
    except ConstructionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (UsageError, SchemeFileError, CountOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        message = " ".join(str(exc).split()) or "no message"
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
