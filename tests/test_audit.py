import itertools
import json
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsagg import audit, cli, scheme
from hsagg.audit import (
    OracleResult,
    StateSpaceTooLarge,
    correctness_fuzz,
    entropy_oracle_relay,
    entropy_oracle_server,
    full_audit,
    mask_distribution,
    rate_audit,
)
from hsagg.gf import make_field
from hsagg.linalg import from_array, rank
from hsagg.rates import ProblemConfig, SchemeDims
from hsagg.scheme import build_random
from reference import block_slices, enumerate_groups, sample_zero_sum_scheme

CAP = 1 << 26
Q61 = (1 << 61) - 1
GF2 = make_field(2)
GF3 = make_field(3)


def zeros(field, rows, cols):
    return from_array(field, np.zeros((rows, cols), dtype=np.int64))


def narrowest(n):
    """The narrowest unsigned integer dtype that holds n, or object past 2^64 - 1."""
    fits = [t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if n <= np.iinfo(t).max]
    return np.dtype(fits[0] if fits else object)


def brute_force(a, q):
    """The positive multiplicities of a @ s over all key vectors s, in base-q code order."""
    outputs = Counter(
        tuple(sum(x * k for x, k in zip(row, keys)) % q for row in a)
        for keys in itertools.product(range(q), repeat=len(a[0]))
    )
    return [outputs[out] for out in sorted(outputs)]


@st.composite
def sparse_matrices(draw, max_cols):
    """(q, rows x cols array) with a random zero mask: all-zero rows and columns,
    single-entry columns and columns that couple two row sets late. max_cols maps q."""
    q = draw(st.sampled_from(sorted(max_cols)), label="q")
    rows = draw(st.integers(1, 6), label="rows")
    cols = draw(st.integers(1, max_cols[q]), label="cols")
    entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols))
    keep = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    return q, (np.array(entries, dtype=np.int64) * np.array(keep)).reshape(rows, cols)


def traced_mask_distribution(m):
    """(states, tallies, tracemalloc peak in bytes) of one mask_distribution call."""
    tracemalloc.start()
    try:
        states, tallies = mask_distribution(m, CAP)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return states, tallies, peak


def zero_group_recompleted(s, g_idx, member):
    """Zero one member's block in a copy of E and re-complete the group's last member."""
    e = s.encoding.copy()
    grp = enumerate_groups(s.cfg.U, s.cfg.V, s.cfg.G)[g_idx]
    e[block_slices(s.cfg, s.dims, g_idx, member)] = 0
    others = sum(e[block_slices(s.cfg, s.dims, g_idx, m)] for m in grp[:-1])
    e[block_slices(s.cfg, s.dims, g_idx, grp[-1])] = -others % s.cfg.field.modulus
    return replace(s, encoding=e)


def zero_cross_family(s, user):
    """Zero, in a copy of E, every cross-relay group containing the user (zero-sum preserved)."""
    e = s.encoding.copy()
    for g_idx, grp in enumerate(enumerate_groups(s.cfg.U, s.cfg.V, s.cfg.G)):
        if user in grp and len({m[0] for m in grp}) >= 2:
            e[:, block_slices(s.cfg, s.dims, g_idx, user)[1]] = 0
    return replace(s, encoding=e)


def gate_check(s, u=None):
    """The RankCheck of relay u's gate, or of the server's if u is None, as full_audit makes it on a zero-sum scheme."""
    m, target = scheme.gate(s, u)
    return audit.RankCheck(target, rank(m))


def test_relay_rank_examples(ex1, ex2):
    for u in (1, 2):
        c = gate_check(ex1, u)
        assert c.passed and c.computed == 10 and c.expected == 10
    c = gate_check(ex2, 1)
    assert c.passed and c.computed == 16


def test_relay_rank_negative(ex1):
    # Group {(1,1),(2,1)} is index 1 in canonical order; zeroing user (1,1)'s
    # block there removes those columns from relay 1's view.
    assert enumerate_groups(ex1.cfg.U, ex1.cfg.V, ex1.cfg.G)[1] == ((1, 1), (2, 1))
    mutated = zero_group_recompleted(ex1, 1, (1, 1))
    assert scheme.check_zero_sum(mutated)
    assert not gate_check(mutated, 1).passed


def test_server_rank_examples(ex1, ex2):
    c = gate_check(ex1)
    assert c.passed and c.computed == 5 and c.expected == 5
    c = gate_check(ex2)
    assert c.passed and c.computed == 24


def test_all_cross_blocks_zeroed_rank_zero_and_entropy_zero():
    s = build_random(ProblemConfig(2, 1, 2, GF2), seed=0)
    dead = zero_cross_family(s, (1, 1))  # the only group is cross-relay
    c = gate_check(dead)
    assert not c.passed and c.computed == 0
    o = entropy_oracle_server(dead, CAP)
    assert o.entropy_qary == 0.0 and not o.passed
    assert not gate_check(dead, 1).passed
    r = entropy_oracle_relay(dead, 1, CAP)
    assert r.entropy_qary == 0.0 and not r.passed


def test_mask_distribution_basics():
    states, tallies = mask_distribution(zeros(GF2, 1, 1), CAP)
    assert states == 2 and list(tallies) == [2]
    states, tallies = mask_distribution(from_array(GF3, np.eye(2, dtype=np.int64)), CAP)
    assert states == 9 and sorted(tallies) == [1] * 9
    with pytest.raises(StateSpaceTooLarge) as exc:
        mask_distribution(zeros(GF2, 1, 40), 1 << 26)
    assert exc.value.required == 2**40 and exc.value.cap == 1 << 26


def test_state_space_guard_is_exact():
    # The cap decision is exact at the boundary and for huge exponents.
    cap = 100
    for q, n in ((2, 6), (2, 7), (3, 4), (3, 5), (97, 1), (101, 1), (Q61, 1)):
        try:
            mask_distribution(zeros(make_field(q), 1, n), cap)
            refused = False
        except StateSpaceTooLarge as exc:
            refused = True
            assert exc.required == q**n
        assert refused == (q**n > cap), (q, n)
    exc = StateSpaceTooLarge(Q61, 10**6, CAP)
    assert exc.required_text == f"{Q61}^{10**6}" and not exc.printable
    assert StateSpaceTooLarge(11, 24, CAP).required_text == str(11**24)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mask_distribution_matches_brute_force(data):
    """The tallies equal a Counter of the outputs over all key vectors."""
    q = data.draw(st.sampled_from([2, 3, 5, 7]), label="q")
    # Up to 6 columns for q <= 3, so the cells cross from uint8 to uint16 (3^6 = 729).
    rows = data.draw(st.integers(1, 4), label="rows")
    cols = data.draw(st.integers(1, 6 if q <= 3 else 4), label="cols")
    # A product through an inner dimension r: r = 0 gives the zero matrix,
    # r < min(rows, cols) a rank-deficient one.
    r = data.draw(st.integers(0, min(rows, cols)), label="r")
    entry = st.integers(0, q - 1)
    left = data.draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=rows, max_size=rows))
    right = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=r, max_size=r))
    a = [[sum(left[i][k] * right[k][j] for k in range(r)) % q for j in range(cols)] for i in range(rows)]
    states, tallies = mask_distribution(from_array(make_field(q), np.array(a, dtype=np.int64)), CAP)
    assert states == q**cols and tallies.dtype == narrowest(q**cols)
    assert tallies.tolist() == brute_force(a, q)


@settings(max_examples=200, deadline=None)
@given(qa=sparse_matrices({2: 8, 3: 8}))
def test_mask_distribution_matches_brute_force_on_sparse_matrices(qa):
    """Sparse matrices split the tally into several factors; q^cols <= 3^8 keeps the Counter cheap."""
    q, a = qa
    states, tallies = mask_distribution(from_array(make_field(q), a), CAP)
    assert states == q ** a.shape[1] and tallies.dtype == narrowest(states)
    assert tallies.tolist() == brute_force(a.tolist(), q)


@settings(max_examples=100, deadline=None)
@given(qa=sparse_matrices({2: 12, 3: 9, 5: 6}), data=st.data())
def test_mask_distribution_ignores_column_order(qa, data):
    """Permuting the columns changes the order of the factors and merges, not a count."""
    q, a = qa
    order = data.draw(st.permutations(range(a.shape[1])), label="order")
    states, tallies = mask_distribution(from_array(make_field(q), a), CAP)
    permuted_states, permuted = mask_distribution(from_array(make_field(q), a[:, order]), CAP)
    assert permuted_states == states and permuted.dtype == tallies.dtype
    assert permuted.tolist() == tallies.tolist()


# Most axes per q that keep a translated slice at a few 10^4 cells.
ROLL_AXES = {2: 7, 3: 7, 5: 6, 7: 5, 11: 4, 257: 2}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_roll_is_np_roll_along_every_axis(data):
    """audit._roll translates like np.roll, on contiguous tallies and on strided slices of one,
    through indexes of at most q^ceil(n/2) entries for n axes."""
    q = data.draw(st.sampled_from(sorted(ROLL_AXES)), label="q")
    n = data.draw(st.integers(1, ROLL_AXES[q]), label="axes")
    dtype = data.draw(st.sampled_from([np.uint8, np.uint16]), label="dtype")
    shift = data.draw(st.lists(st.sampled_from([0, 1]) | st.integers(0, q - 1), min_size=n, max_size=n), label="shift")
    i = data.draw(st.integers(0, n), label="sliced axis")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # Slice 1 of a length-2 axis at i: contiguous at i = 0, strided past it.
    t = rng.integers(0, np.iinfo(dtype).max, (q,) * i + (2,) + (q,) * (n - i), dtype, endpoint=True)
    strided = np.moveaxis(t, i, 0)[1]
    sizes = []
    shift_index = audit._shift_index
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(audit, "_shift_index", lambda q, part: sizes.append(q ** len(part)) or shift_index(q, part))
        for a in (strided, np.ascontiguousarray(strided)):
            for s in (shift, [0] * n):
                moved = audit._roll(a, s)
                assert moved.dtype == a.dtype and moved.shape == a.shape
                assert np.array_equal(moved, np.roll(a, s, tuple(range(n))))
    assert max(sizes, default=0) <= q ** -(-n // 2)


@pytest.mark.parametrize(
    "q, cols",
    [(2, c) for c in (7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65)] + [(3, 5), (3, 6), (3, 40), (3, 41), (251, 1)],
)
def test_mask_distribution_cells_are_the_narrowest_exact_type(q, cols):
    """Each cell type boundary, on both single-row paths: a zero column multiplies the
    tally by q, and a nonzero one sets every cell to the tally's sum."""
    field = make_field(q)
    states, tallies = mask_distribution(zeros(field, 1, cols), q**cols)
    assert states == q**cols and tallies.dtype == narrowest(q**cols)
    assert tallies.tolist() == [q**cols]
    ones = from_array(field, np.ones((1, cols), dtype=np.int64))
    states, tallies = mask_distribution(ones, q**cols)
    assert states == q**cols and tallies.dtype == narrowest(q**cols)
    assert tallies.tolist() == [q ** (cols - 1)] * q


def test_mask_distribution_counts_past_int64_exactly():
    # A cap past 2^64 admits 2^70 key states; the tallies stay exact Python integers.
    wide = np.array([[1, 0] * 35, [1, 1] * 35], dtype=np.int64)
    states, tallies = mask_distribution(from_array(GF2, wide), 1 << 80)
    assert states == 2**70 and tallies.tolist() == [2**68] * 4
    states, tallies = mask_distribution(zeros(GF2, 1, 70), 1 << 80)
    assert tallies.tolist() == [2**70]


def test_mask_distribution_counts_past_int64_exactly_over_two_factors():
    # Rows 0 and 2 are reached by disjoint columns, row 1 by none, and 10 columns are zero.
    columns = [[1, 0, 0]] * 30 + [[0, 0, 1]] * 30 + [[0, 0, 0]] * 10
    m = from_array(GF2, np.array(columns, dtype=np.int64).T)
    states, tallies = mask_distribution(m, 1 << 80)
    assert states == 2**70 and tallies.dtype == object
    assert tallies.tolist() == [2**68] * 4  # y = (y_0, 0, y_2)


def test_mask_distribution_peak_memory_is_a_few_tallies():
    # 7x7 over GF(5): the dense tally has 5^7 cells, uint32 since 2^16 < 5^7 < 2^32.
    rng = np.random.default_rng(0)
    m = from_array(make_field(5), rng.integers(0, 5, size=(7, 7), dtype=np.int64))
    _, tallies, peak = traced_mask_distribution(m)
    assert tallies.dtype == np.uint32
    tally_bytes = tallies.itemsize * 5**7
    assert peak < 3 * tally_bytes, peak / tally_bytes


def test_mask_distribution_returns_a_full_tally_without_copying_it():
    # A full-rank 7x7 matrix over GF(5) attains every output, so the tally is the result.
    rng = np.random.default_rng(1)
    m = from_array(make_field(5), rng.integers(0, 5, size=(7, 7), dtype=np.int64))
    assert rank(m) == 7
    states, tallies, peak = traced_mask_distribution(m)
    assert states == 5**7 and tallies.tolist() == [1] * 5**7 and tallies.dtype == np.uint32
    tally_bytes = tallies.itemsize * 5**7
    assert peak < 2 * tally_bytes, peak / tally_bytes


@pytest.mark.parametrize("cfg, cells", [(ProblemConfig(2, 2, 2, GF3), 3**10), (ProblemConfig(2, 3, 5, GF2), 2**18)])
def test_mask_distribution_peak_memory_on_relay_matrices(cfg, cells, monkeypatch):
    """Relay matrices go through several merges of factors. Full rank, they attain every
    output: under two tallies. One column zeroed, they attain 1/q of them: under three."""
    s = build_random(cfg, seed=0)
    merges = []
    product = audit._product
    for u in range(1, cfg.U + 1):
        m = scheme.assemble_relay_matrix(s, u)
        assert cfg.field.modulus**m.rows == cells
        with monkeypatch.context() as patch:
            patch.setattr(audit, "_product", lambda *args: merges.append(args[1]) or product(*args))
            mask_distribution(m, CAP)
        assert len(merges) >= 3, merges
        merges.clear()
        states, tallies, peak = traced_mask_distribution(m)
        tally_bytes = narrowest(states).itemsize * cells
        assert tallies.size == cells and peak < 2 * tally_bytes, peak / tally_bytes
        a = m.array.copy()
        a[:, 0] = 0
        states, tallies, peak = traced_mask_distribution(from_array(cfg.field, a))
        assert tallies.size * cfg.field.modulus == cells and peak < 3 * tally_bytes, peak / tally_bytes


def test_refused_oracle_allocates_less_than_its_matrix():
    # The cap checks come before the column list and any tally, so refusing a
    # 249 x 249 relay matrix at q = 2^61 - 1 costs less than the matrix itself.
    s = sample_zero_sum_scheme(ProblemConfig(3, 3, 6, make_field(Q61)), 0)
    m = scheme.assemble_relay_matrix(s, 1)
    assert (m.rows, m.cols) == (249, 249)
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLarge):
            mask_distribution(m, CAP)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m.array.nbytes, peak


def test_mask_distribution_refuses_an_output_space_over_the_cap():
    m = zeros(GF3, 5, 2)  # 3^2 key states, 3^5 possible outputs
    with pytest.raises(StateSpaceTooLarge) as exc:
        mask_distribution(m, 3**5 - 1)
    assert exc.value.required == 3**5 and exc.value.cap == 3**5 - 1
    assert mask_distribution(m, 3**5)[1].tolist() == [9]
    # The key states are checked first.
    with pytest.raises(StateSpaceTooLarge) as exc:
        mask_distribution(zeros(GF3, 5, 6), 3**5 - 1)
    assert exc.value.required == 3**6


def test_entropy_oracle_minimal():
    for q in (2, 3):
        s = build_random(ProblemConfig(2, 1, 2, make_field(q)), seed=0)
        r = entropy_oracle_relay(s, 1, CAP)
        assert (r.states, r.entropy_qary, r.target) == (q, 1.0, 1)
        assert r.uniform and r.passed
        o = entropy_oracle_server(s, CAP)
        assert (o.states, o.entropy_qary, o.target) == (q, 1.0, 1)
        assert o.passed


def test_entropy_oracle_example1(ex1):
    r = entropy_oracle_relay(ex1, 1, CAP)
    assert r.states == 5**10 and r.uniform and r.entropy_qary == 10.0
    assert r.passed
    o = entropy_oracle_server(ex1, CAP)
    assert o.states == 5**8 and o.uniform and o.entropy_qary == 5.0
    assert o.passed


def test_entropy_oracle_example2_too_large(ex2):
    with pytest.raises(StateSpaceTooLarge) as exc:
        entropy_oracle_relay(ex2, 1, CAP)
    assert exc.value.required == 11**24
    with pytest.raises(StateSpaceTooLarge):
        entropy_oracle_server(ex2, CAP)


def test_rate_audit(ex1, ex2):
    ok, achieved, optimal = rate_audit(ex1)
    assert ok and achieved == optimal
    ok, achieved, optimal = rate_audit(ex2)
    assert ok
    # Padding the key blocklength breaks rate optimality.
    padded_dims = SchemeDims(ex1.dims.regime, ex1.dims.L, ex1.dims.L_S + 1)
    padded = replace(ex1, dims=padded_dims)
    ok, achieved, optimal = rate_audit(padded)
    assert not ok and achieved.r_s > optimal.r_s


def test_full_audit_example1(ex1):
    report = full_audit(ex1, fuzz_rounds=100, oracle_cap=CAP, seed=0)
    assert report.passed
    assert report.zero_sum
    assert all(isinstance(o, OracleResult) for o in report.oracle_relay.values())
    assert isinstance(report.oracle_server, OracleResult)
    assert report.fuzz_failures == 0
    assert report.rates_match


def test_full_audit_assembles_each_relay_matrix_once(ex1, monkeypatch):
    # The relay rank and the relay oracle take the same matrix.
    calls = []
    assemble = scheme.assemble_relay_matrix
    monkeypatch.setattr(scheme, "assemble_relay_matrix", lambda s, u: calls.append(u) or assemble(s, u))
    report = full_audit(ex1, fuzz_rounds=1, oracle_cap=CAP)
    assert all(isinstance(o, OracleResult) for o in report.oracle_relay.values())
    assert calls == list(range(1, ex1.cfg.U + 1))


def test_full_audit_example2_oracles_skipped(ex2):
    report = full_audit(ex2, fuzz_rounds=100, oracle_cap=CAP, seed=0)
    assert report.passed
    assert all(isinstance(o, StateSpaceTooLarge) for o in report.oracle_relay.values())
    assert isinstance(report.oracle_server, StateSpaceTooLarge)


def test_full_audit_oracles_not_run(ex1):
    report = full_audit(ex1, fuzz_rounds=10, oracle_cap=None)
    assert report.passed
    assert all(o is None for o in report.oracle_relay.values())
    assert report.oracle_server is None


def test_full_audit_catches_sign_flip(ex1, tmp_path, capsys):
    e = ex1.encoding.copy()
    rows, cols = block_slices(ex1.cfg, ex1.dims, 0, (1, 1))
    e[rows, cols] = -e[rows, cols] % 5
    corrupted = replace(ex1, encoding=e)
    report = full_audit(corrupted, fuzz_rounds=20, oracle_cap=None)
    assert not report.zero_sum
    assert report.fuzz_failures > 0
    assert not report.passed
    # Off zero-sum the server rank is taken on the relay sums of all of E, 7;
    # the server matrix, which has that rank on zero-sum schemes, would give 5.
    assert (report.server_rank.expected, report.server_rank.computed) == (5, 7)
    assert rank(scheme.server_matrix(corrupted)) == 5
    # A file that breaks zero-sum loads, and its report carries the same value.
    path, out = str(tmp_path / "flip.json"), tmp_path / "report.json"
    cli.save_scheme(corrupted, path)
    assert cli.main(["verify", path, "--fuzz-rounds", "20", "--out", str(out)]) == cli.EXIT_FAILED
    capsys.readouterr()
    assert json.loads(out.read_text())["server_rank"] == {"expected": 5, "computed": 7, "passed": False}


def test_server_oracle_never_exceeds_target_on_zero_sum_schemes():
    cfg = ProblemConfig(2, 2, 2, GF2)
    for seed in range(10):
        s = sample_zero_sum_scheme(cfg, seed)  # ungated, may be insecure
        o = entropy_oracle_server(s, CAP)
        assert o.entropy_qary <= (s.cfg.U - 1) * s.dims.L + 1e-12


def test_oracle_and_rank_verdicts_agree_on_ungated_schemes():
    for q, f in ((2, GF2), (3, GF3)):
        cfg = ProblemConfig(2, 2, 2, f)
        for seed in range(8):
            s = sample_zero_sum_scheme(cfg, seed)
            for u in (1, 2):
                assert entropy_oracle_relay(s, u, CAP).passed == gate_check(s, u).passed
            assert entropy_oracle_server(s, CAP).passed == gate_check(s).passed


def test_correctness_fuzz_counts(ex1):
    assert correctness_fuzz(ex1, rounds=25, seed=3) == 0


def test_oracle_checks_uniform_tally_without_assert(ex1, monkeypatch):
    # Four equal tallies over GF(5) cannot come from a linear map; the check
    # raises even under python -O, which strips asserts.
    monkeypatch.setattr(audit, "mask_distribution", lambda m, cap: (8, np.array([2, 2, 2, 2])))
    with pytest.raises(ArithmeticError):
        entropy_oracle_relay(ex1, 1, CAP)


def test_oracle_refuses_a_non_uniform_tally(ex1, monkeypatch):
    # A linear image of uniform keys is uniform on its image, so unequal
    # tallies are an arithmetic fault, not a failed verdict. They sum to
    # 5^2 over 5 outputs, so only the uniformity check can catch them.
    monkeypatch.setattr(audit, "mask_distribution", lambda m, cap: (25, np.array([6, 4, 5, 5, 5])))
    with pytest.raises(ArithmeticError, match="not uniform"):
        entropy_oracle_relay(ex1, 1, CAP)
    with pytest.raises(ArithmeticError, match="not uniform"):
        entropy_oracle_server(ex1, CAP)


def test_oracle_checks_uniformity_without_a_pass_over_the_tally(ex1, monkeypatch):
    # mask_distribution returns one multiplicity broadcast over the attained
    # outputs, 5^10 of them for (2,2,2)@5's relay 1; an elementwise comparison
    # would make a 9.77 MB bool array of it.
    m = scheme.assemble_relay_matrix(ex1, 1)
    tallies = np.broadcast_to(np.array(1, np.min_scalar_type(5**10)), (5**10,))
    monkeypatch.setattr(audit, "mask_distribution", lambda m, cap: (5**10, tallies))
    tracemalloc.start()
    try:
        result = audit._oracle_from_matrix(m, 10, CAP)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.states, result.distinct, result.passed, result.entropy_qary) == (5**10, 5**10, True, 10.0)
    assert peak < 1 << 20, peak


@pytest.mark.parametrize(
    "build",
    [scheme.build_example1, lambda: build_random(ProblemConfig(2, 3, 5, GF2), seed=0)],
    ids=["2,2,2@5", "2,3,5@2"],
)
def test_mask_distribution_holds_two_one_byte_tallies_on_full_rank_relays(build):
    """(2,2,2)@5 has 5^10 key states, which need uint32 counts, and (2,3,5)@2 has 2^18;
    either way the cells hold q, so the peak is under two one-byte q^rows tallies."""
    s = build()
    for u in range(1, s.cfg.U + 1):
        m = scheme.assemble_relay_matrix(s, u)
        assert rank(m) == m.rows
        states, tallies, peak = traced_mask_distribution(m)
        cells = s.cfg.field.modulus**m.rows
        assert tallies.size == cells and tallies.tolist() == [states // cells] * cells
        assert peak < 2 * cells, peak / cells


def test_mask_distribution_refuses_a_factor_of_two_cell_values(ex1, tmp_path, capsys, monkeypatch):
    # A convolution that leaves nonzero cells of two values is an arithmetic
    # fault: it is caught at that step, and verify reports it as an error, not a verdict.
    convolve = audit._convolve_line

    def faulty(tally, c, q):
        convolve(tally, c, q)
        flat = tally.reshape(-1)  # a view: the factor is contiguous
        flat[np.flatnonzero(flat)[0]] += 1

    monkeypatch.setattr(audit, "_convolve_line", faulty)
    m = scheme.assemble_relay_matrix(ex1, 1)
    with pytest.raises(ArithmeticError, match="not one value"):
        mask_distribution(m, CAP)
    path = str(tmp_path / "ex1.json")
    assert cli.main(["example", "--id", "1", "--out", path]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["verify", path, "--oracle"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ArithmeticError: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "a",
    # Full rank, one zero column, a second column on the first one's line (so the
    # convolution leaves cells of q = 257, past uint8), and two unrelated rows.
    [[[1, 0], [0, 1]], [[3, 0]], [[1, 2], [2, 4]], [[5], [0]], [[0, 0], [7, 256]]],
)
def test_mask_distribution_at_q_257_uses_two_byte_cells(a, monkeypatch):
    q, seen = 257, set()
    convolve = audit._convolve_line
    monkeypatch.setattr(audit, "_convolve_line", lambda tally, c, q: seen.add(tally.dtype) or convolve(tally, c, q))
    states, tallies = mask_distribution(from_array(make_field(q), np.array(a, dtype=np.int64)), CAP)
    assert states == q ** len(a[0]) and tallies.dtype == narrowest(states)
    assert tallies.tolist() == brute_force(a, q)
    assert seen == {np.dtype(np.uint16)}


def test_full_audit_sums_the_relays_once(ex1, monkeypatch):
    # Build and the audit of a zero-sum scheme sum only E's first U-1 relays, for
    # the server matrix; the audit of one that is not zero-sum also sums all of E, once.
    calls = []
    relay_sums = scheme._relay_sums
    monkeypatch.setattr(scheme, "_relay_sums", lambda s, rows: calls.append(rows.shape) or relay_sums(s, rows))
    built = build_random(ProblemConfig(3, 2, 3, make_field(2**31 - 1)), seed=0)
    assert calls and {rows for rows, _ in calls} == {(built.cfg.U - 1) * built.cfg.V * built.dims.L}, calls
    calls.clear()
    report = full_audit(ex1, fuzz_rounds=1, oracle_cap=CAP)
    assert calls == [(10, 8)]  # relay 1's 2 users x L = 5 rows, at the 4 cross-relay groups' L_S = 2 columns
    assert report.oracle_server == entropy_oracle_server(ex1, CAP) and report.oracle_server.passed
    e = ex1.encoding.copy()
    rows, cols = block_slices(ex1.cfg, ex1.dims, 0, (1, 1))
    e[rows, cols] = -e[rows, cols] % 5
    calls.clear()
    assert not full_audit(replace(ex1, encoding=e), fuzz_rounds=1, oracle_cap=CAP).zero_sum
    assert calls.count(e.shape) == 1, calls


def test_server_oracle_refuses_before_any_matrix_is_made(ex1, monkeypatch):
    def no_matrix(*args):
        raise AssertionError("a matrix was made for a refused oracle")

    for name in ("_relay_sums", "server_matrix", "gate"):
        monkeypatch.setattr(scheme, name, no_matrix)
    # The cross-relay matrix is 5 x 8: its 5^8 key states are checked before its 5^5 outputs.
    for cap in (5**4, 5**8 - 1):
        with pytest.raises(StateSpaceTooLarge) as exc:
            entropy_oracle_server(ex1, cap)
        assert (exc.value.q, exc.value.n, exc.value.cap) == (5, 8, cap)
