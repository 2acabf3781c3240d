import functools
import gc
import itertools
import math
import sys
import tracemalloc
import weakref

import pytest

from skolem_starters import search
from skolem_starters.constructions import qr_starter
from skolem_starters.modnt import in_half_class, InvalidModulus
from skolem_starters.search import (
    BoundExceeded,
    enumerate_starters,
    exhaustive_skolem_search,
    find_common_primitive_root,
    scan_cyclotomic_primes,
    scan_pq_pairs,
    scan_qr_primes,
    SearchTimeout,
)
from skolem_starters.starters import classify, negate_starter, Starter, verify_skolem, verify_strong
from test_constructions import _record_primality_tests
from oracles import (
    backtrack_skolem_search,
    bytearray_enumerate_starters,
    multiplicative_order,
    naive_dlog,
    naive_order,
    trial_division_prime,
)


# ---- scan_qr_primes ----------------------------------------------------------


def test_scan_qr_primes_fixed_ranges():
    assert [h.params["p"] for h in scan_qr_primes(30).hits] == [11, 19]
    assert [h.params["p"] for h in scan_qr_primes(60).hits] == [11, 19, 43, 59]
    assert scan_qr_primes(10).hits == ()


def test_scan_qr_hits_revalidate_from_scratch():
    for hit in scan_qr_primes(120).hits:
        p = hit.params["p"]
        assert trial_division_prime(p) and p % 8 == 3 and p != 3
        assert naive_order(2, p) == hit.certificates["ord2"]


# ---- scan_cyclotomic_primes ----------------------------------------------------


def test_scan_cyclotomic_primes_fixed_ranges():
    assert scan_cyclotomic_primes(3, 100).hits == ()
    hits = scan_cyclotomic_primes(3, 300).hits
    assert [h.params["p"] for h in hits] == [281]
    assert hits[0].certificates["ord2"] == 70
    assert hits[0].certificates["index2"] == 4
    with pytest.raises(ValueError):
        scan_cyclotomic_primes(2, 300)


def test_cyclotomic_ord2_matches_multiplicative_order():
    # Both prime scans read ord_p(2) from the factorization of p - 1 in
    # modnt's memo; the retired multiplicative_order factors p and p - 1
    # afresh, by trial division.
    for scan, args in [*((scan_cyclotomic_primes, (k, 200000)) for k in (3, 4, 5, 6)), (scan_qr_primes, (200000,))]:
        hits = scan(*args).hits
        assert hits
        for hit in hits:
            assert hit.certificates["ord2"] == multiplicative_order(2, hit.params["p"]), hit


def test_scan_cyclotomic_matches_independent_predicate():
    # recompute the admissible set below 700 with naive tools only
    expected = []
    for p in range(10, 700):
        if not trial_division_prime(p) or (p - 1) % 8:
            continue
        t = (p - 1) // 8
        if t % 2 == 0 or t <= 1:
            continue
        root = next(r for r in range(2, p) if naive_order(r, p) == p - 1)
        if naive_dlog(2, root, p) % 8 == 4:
            expected.append(p)
    assert expected == [281, 617]
    assert [h.params["p"] for h in scan_cyclotomic_primes(3, 700).hits] == expected


@pytest.mark.parametrize(
    "scan,args,primes",
    [
        (scan_cyclotomic_primes, (3, 3000), 12),
        (scan_pq_pairs, (20000, "cyclotomic", 3), 69),
        (scan_pq_pairs, (5000,), 167),
    ],
    ids=[
        "scan_cyclotomic_primes(3, 3000)",
        "scan_pq_pairs(20000, 'cyclotomic', 3)",
        "scan_pq_pairs(5000)",
    ],
)
def test_each_scanned_prime_is_proven_once(monkeypatch, scan, args, primes):
    # The filter's proof is modnt's memo, where the roots and orders find it again.
    calls = _record_primality_tests(monkeypatch)
    scan(*args)
    assert len(calls) == len(set(calls)) == primes


def test_a_composite_in_the_half_class_is_refused_and_not_kept(monkeypatch):
    # 233017 = 8 * 29127 + 1, the least composite that passes the class
    # test of 2 at k = 3: the memo refuses it on each scan and keeps only
    # the primes, each proven once over both scans.
    calls = _record_primality_tests(monkeypatch)
    assert in_half_class(2, 233017, 233016, 8)
    primes = search._cyclotomic_primes(3, 233017)
    assert search._cyclotomic_primes(3, 233017) == primes
    assert 233017 not in primes
    assert calls.count(233017) == 2 and len(calls) == len(primes) + 2


def test_a_composite_that_meets_euler_s_criterion_is_refused_by_the_qr_walk(monkeypatch):
    # 476971 = 8 * 59621 + 3, the least composite p = 3 (mod 8) with
    # 2^((p-1)/2) = -1: Euler's criterion passes it, the memo refuses it.
    calls = _record_primality_tests(monkeypatch)
    assert in_half_class(2, 476971, 476970, 2) and not trial_division_prime(476971)
    primes = search._qr_primes(476971)
    assert search._qr_primes(476971) == primes
    assert primes[-1] < 476971 and all(p % 8 == 3 for p in primes)
    assert calls.count(476971) == 2 and len(calls) == len(primes) + 2


def test_the_qr_scan_leaves_each_hit_proven_for_its_recipe(monkeypatch):
    # The scan proves each hit in modnt's memo, so building the qr starter
    # of every hit tests no number for primality again.
    calls = _record_primality_tests(monkeypatch)
    hits = scan_qr_primes(3000).hits
    proven = len(calls)
    assert proven == len(hits) == 108
    for hit in hits:
        qr_starter(hit.params["p"])
    assert len(calls) == proven


# ---- common primitive roots -----------------------------------------------------


def test_find_common_primitive_root_examples():
    assert find_common_primitive_root(11, 19) == 2
    assert find_common_primitive_root(281, 617) == 3


def test_common_root_order_is_lcm():
    for p, q in ((11, 19), (11, 43), (19, 59)):
        r = find_common_primitive_root(p, q)
        assert multiplicative_order(r, p * q) == math.lcm(p - 1, q - 1)


def test_common_primitive_root_is_the_smallest_and_below_pq():
    # By the CRT a common root exists below pq, so the search never runs out.
    primes = [p for p in range(3, 60) if trial_division_prime(p)]
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            smallest = next(
                r
                for r in itertools.count(2)
                if r % p and r % q and naive_order(r, p) == p - 1 and naive_order(r, q) == q - 1
            )
            assert find_common_primitive_root(p, q) == smallest < p * q, (p, q)


def test_find_common_primitive_root_validates():
    # Past p = q, is_primitive_root refuses whichever non-odd-prime it meets.
    for p, q in ((11, 11), (9, 11), (11, 9), (2, 11), (11, 2), (1, 11), (11, 15)):
        with pytest.raises(InvalidModulus):
            find_common_primitive_root(p, q)


# ---- scan_pq_pairs --------------------------------------------------------------


def test_scan_pq_pairs_qr_mode():
    report = scan_pq_pairs(25, mode="qr")
    pairs = [(h.params["p"], h.params["q"]) for h in report.hits]
    assert pairs == [(11, 19)]
    assert report.hits[0].certificates["common_root"] == 2
    assert report.hits[0].certificates["gcd_p1_q1"] == 2


def test_scan_pq_pairs_qr_mode_larger():
    report = scan_pq_pairs(60, mode="qr")
    pairs = [(h.params["p"], h.params["q"]) for h in report.hits]
    assert (11, 19) in pairs and (19, 43) in pairs
    assert (11, 11) not in pairs
    assert all(p < q for p, q in pairs)
    assert all((q - 1) % (p - 1) for p, q in pairs)
    # (19, 43) satisfies the congruences but carries the gcd warning flag
    by_pair = {(h.params["p"], h.params["q"]): h.certificates for h in report.hits}
    assert by_pair[(19, 43)]["gcd_p1_q1"] == 6


def test_scan_pq_pairs_cyclotomic_mode():
    report = scan_pq_pairs(700, mode="cyclotomic", k=3)
    pairs = [(h.params["p"], h.params["q"]) for h in report.hits]
    assert pairs == [(281, 617)]
    assert report.hits[0].certificates["common_root"] == 3
    with pytest.raises(ValueError):
        scan_pq_pairs(700, mode="cyclotomic")


def test_scan_pq_pairs_common_roots_match_the_naive_search():
    # One process, two scans: each prime pairs with many others, so most
    # lookups of its root exponents come from the cache.
    @functools.cache
    def generates(r, p):
        return r % p != 0 and naive_order(r, p) == p - 1

    reports = (scan_pq_pairs(600), scan_pq_pairs(3000, "cyclotomic", 3))
    assert [len(report.hits) for report in reports] == [391, 66]
    roots = {}
    for report in reports:
        for hit in report.hits:
            p, q = hit.params["p"], hit.params["q"]
            smallest = next(r for r in itertools.count(2) if generates(r, p) and generates(r, q))
            assert hit.certificates["common_root"] == smallest, (p, q)
            roots[p, q] = smallest
    # The pairs whose smallest common root lies above the root masks'
    # 2..63, so the scan falls back to find_common_primitive_root.
    assert {pair: r for pair, r in roots.items() if r >= 64} == {
        (307, 571): 67,
        (499, 523): 75,
        (281, 2281): 74,
        (1033, 2281): 77,
        (1481, 2281): 77,
        (2281, 2857): 65,
    }


def test_root_masks_match_the_primitive_root_test():
    # Bit r of a prime's mask, 2 <= r < 64, says whether r is a primitive
    # root mod p, for every odd prime p < 5000.  Below 64 the multiples of p
    # stay clear: their powers are 0, not 1 (22^5 = 0 mod 11).
    checked = 0
    for p in range(3, 5000, 2):
        if trial_division_prime(p):
            expected = sum(1 << r for r in range(2, search._MASK_ROOTS) if search.is_primitive_root(r, p))
            assert search._root_mask(p) == expected, p
            checked += 1
    assert checked == 668
    assert pow(22, 5, 11) == 0 and not search._root_mask(11) >> 22 & 1
    assert search._root_mask(3) == sum(1 << r for r in range(2, 64, 3))


def test_scan_pq_pairs_qr_mode_refuses_k():
    # The mirror of "cyclotomic mode needs k": a k is refused, not dropped.
    with pytest.raises(ValueError, match="qr mode takes no k"):
        scan_pq_pairs(60, "qr", 3)


def test_scan_pq_pairs_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        scan_pq_pairs(100, "bogus")


# Each scan and search with a valid call; every keyword named is an integer.
_INTEGER_CALLS = (
    (scan_qr_primes, {"limit": 60}),
    (scan_cyclotomic_primes, {"k": 3, "limit": 700}),
    (scan_pq_pairs, {"limit": 60}),
    (functools.partial(scan_pq_pairs, mode="cyclotomic"), {"limit": 700, "k": 3}),
    (exhaustive_skolem_search, {"n": 19}),
    (enumerate_starters, {"n": 7}),
    (find_common_primitive_root, {"p": 11, "q": 19}),
)


class _Int(int):
    pass


def test_every_scan_and_search_refuses_a_bool_or_float_integer_argument(monkeypatch):
    # The rule the recipes keep: True == 1, 60.0 == 60 and _Int(60) == 60,
    # yet all are refused by name, before any walk, primality test, root
    # or recursion.
    for name in ("_odd_prime", "in_half_class", "is_primitive_root", "find_primitive_root", "_order_of_2"):
        monkeypatch.setattr(search, name, None)
    for call, kwargs in _INTEGER_CALLS:
        for name, value in kwargs.items():
            for bad in (True, float(value), _Int(value)):
                with pytest.raises(ValueError, match=f"^{name} must be an int, got {bad!r}$"):
                    call(**{**kwargs, name: bad})


# ---- exhaustive_skolem_search ----------------------------------------------------


def test_search_modulus_3():
    found = exhaustive_skolem_search(3)
    assert len(found) == 1
    assert found[0] == Starter.from_pairs(3, [(1, 2)])


def test_search_modulus_5_proves_nonexistence():
    assert exhaustive_skolem_search(5, find_all=True) == []


def test_search_19_strong_is_verified_by_classify():
    found = exhaustive_skolem_search(19, require_strong=True)
    assert found
    cls = classify(found[0])
    assert cls.is_starter and cls.is_strong and cls.is_skolem


def test_search_is_deterministic():
    a = exhaustive_skolem_search(19, require_strong=True)
    b = exhaustive_skolem_search(19, require_strong=True)
    assert a == b


def test_search_timeout_is_distinct_from_nonexistence():
    with pytest.raises(SearchTimeout):
        exhaustive_skolem_search(21, timeout=0.001)


@pytest.mark.parametrize("timeout", [math.nan, -1.0, -math.inf])
def test_search_rejects_nan_and_negative_timeout(timeout):
    # NaN compares false against every clock reading, so it would never expire.
    with pytest.raises(ValueError, match="timeout"):
        exhaustive_skolem_search(21, timeout=timeout)


@pytest.mark.parametrize(
    "timeout", ["5", True, False, b"1", [1], complex(1)], ids=["str", "true", "false", "bytes", "list", "complex"]
)
def test_search_rejects_a_timeout_that_is_not_an_int_or_float(timeout):
    # True would otherwise run as 1 s, and "5" would fail on the clock
    # arithmetic with a raw TypeError; an int is accepted as a float is.
    with pytest.raises(ValueError, match="timeout must be a non-negative number of seconds"):
        exhaustive_skolem_search(11, timeout=timeout)
    assert exhaustive_skolem_search(11, timeout=5) == exhaustive_skolem_search(11, timeout=5.0)


def test_search_zero_timeout_is_valid():
    assert len(exhaustive_skolem_search(3, timeout=0.0)) == 1
    with pytest.raises(SearchTimeout):
        exhaustive_skolem_search(21, timeout=0.0)
    with pytest.raises(SearchTimeout):
        exhaustive_skolem_search(21, require_strong=True, find_all=True, timeout=0.0)


def test_search_int_timeout_beyond_float_range_sets_no_deadline():
    # monotonic() + 10**400 would raise a raw OverflowError.
    assert exhaustive_skolem_search(11, timeout=10**400) == exhaustive_skolem_search(11, timeout=None)


def test_search_without_timeout_never_reads_the_clock(monkeypatch):
    def no_clock():
        raise AssertionError("clock read without a timeout")

    monkeypatch.setattr(search.time, "monotonic", no_clock)
    assert exhaustive_skolem_search(21, timeout=None) == []


def test_search_reads_the_clock_once_per_4096_candidates(monkeypatch):
    # The plain n = 21 proof charges 65 380 candidates (185 184 without
    # the dead-state table): a clock read per call or per placement would
    # exceed the bound.
    reads = []
    real = search.time.monotonic

    def counted():
        reads.append(None)
        return real()

    monkeypatch.setattr(search.time, "monotonic", counted)
    assert exhaustive_skolem_search(21, timeout=60) == []
    assert 2 <= len(reads) <= 185184 // 4096 + 2


def test_search_results_do_not_depend_on_the_dead_state_table(monkeypatch):
    # A dead entry only skips a subtree that added no solution, so the
    # table off (depth 0), on, and crowded gives the same list in the
    # same order.  Two crowded tables: the list layout with one slot,
    # where every write evicts and every read can collide, reached from
    # n = 31 on; and a byte table of 8 231 slots, the least prime S with
    # 2^21 <= 255 S, so every value the n <= 23 runs store just fits a
    # byte and most writes evict.  Plain n = 41 is the least first-found
    # search with a solution that passes one clock budget, when the
    # table is allocated.
    tables = {
        "off": {"_DEAD_DEPTH": 0},
        "on": {},
        "one slot": {"_DEAD_SLOTS": 1},
        "crowded bytes": {"_DEAD_BYTE_SLOTS": 8231},
    }
    runs = [(n, strong, every) for n in range(3, 22, 2) for strong in (False, True) for every in (False, True)]
    runs += [(n, False, False) for n in (23, 25, 27, 41)]
    results = {}
    for name, settings in tables.items():
        with monkeypatch.context() as patch:
            for constant, value in settings.items():
                patch.setattr(search, constant, value)
            results[name] = [
                exhaustive_skolem_search(n, require_strong=strong, find_all=every) for n, strong, every in runs
            ]
    for run, *lists in zip(runs, *results.values()):
        assert all(found == lists[0] for found in lists), run
    assert results["on"][runs.index((23, False, False))] == []


def test_dead_state_table_takes_bytes_while_every_value_fits():
    # A key is odd and below 2^(n-1), and its slot holds key // (2 S),
    # at most (2^(n-2) - 1) // S: bytes hold it up to n = 29, with 255
    # left for empty.  From n = 31 the table is the list, -1 for empty.
    for n in (3, 5, 21, 23, 27, 29):
        table = search._dead_table(n)
        assert type(table) is bytearray and len(table) == search._DEAD_BYTE_SLOTS, n
        assert (2 ** (n - 2) - 1) // len(table) <= 254, n
        assert table.count(255) == len(table), n
    assert (2**29 - 1) // search._DEAD_BYTE_SLOTS > 254
    for n in (31, 33, 57, 1001):
        assert search._dead_table(n) == [-1] * search._DEAD_SLOTS, n


def test_dead_state_table_is_fixed_in_size_and_freed():
    # The two plain proofs peak at the byte table's size plus frames and
    # working ints, so the table is allocated without a temporary copy,
    # and no call keeps it.  A search of under 4096 candidates allocates
    # none.
    slack = 1 << 14
    table = sys.getsizeof(search._dead_table(23))
    runs = (
        (functools.partial(exhaustive_skolem_search, 23), table + slack),
        (functools.partial(exhaustive_skolem_search, 21, find_all=True), table + slack),
        (functools.partial(exhaustive_skolem_search, 25), slack),
    )
    tracemalloc.start()
    try:
        for run, bound in runs:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = run()
            del result
            current, peak = tracemalloc.get_traced_memory()
            assert peak - start <= bound, run
            # Within a few hundred bytes of interpreter caches.
            assert current - start < 1024, run
    finally:
        tracemalloc.stop()


def test_search_rejects_even_modulus():
    with pytest.raises(ValueError):
        exhaustive_skolem_search(8)


def test_search_bound():
    # The search recurses once per difference; past the bound it would
    # overflow the interpreter's stack instead of answering.
    for n in (1003, 20001):
        with pytest.raises(BoundExceeded):
            exhaustive_skolem_search(n)
    with pytest.raises(SearchTimeout):
        exhaustive_skolem_search(1001, timeout=0.25)


def test_scan_bound(monkeypatch):
    # The benchmark's largest scans sit well inside the bound.
    qr_hits = len(scan_qr_primes(5000).hits)
    assert max(qr_hits * (qr_hits - 1) // 2, 200000 >> 4) * 10 < search._SCAN_BOUND
    # Refused before either progression is walked.
    for scan, args in (
        (scan_qr_primes, (search._SCAN_BOUND + 1,)),
        (scan_cyclotomic_primes, (3, 10**15)),
        (scan_pq_pairs, (10**8,)),
        (scan_pq_pairs, (10**15, "cyclotomic", 3)),
    ):
        with pytest.raises(BoundExceeded, match="exceed the scan bound"):
            scan(*args)
    # The prime pairs count too: a qr limit of 5000 passes, its pairs do not.
    monkeypatch.setattr(search, "_SCAN_BOUND", 5000)
    with pytest.raises(BoundExceeded, match=f"pq-pairs up to 5000: {qr_hits * (qr_hits - 1) // 2} "):
        scan_pq_pairs(5000)


def test_pq_pairs_refused_before_any_certificate(monkeypatch):
    # The base primes are taken without ord_p(2) or a primitive root, so
    # the pair bound refuses a scan before any certificate is computed.
    def no_certificates(*args):
        raise AssertionError("certificate computed before the pair bound")

    monkeypatch.setattr(search, "_order_of_2", no_certificates)
    monkeypatch.setattr(search, "find_primitive_root", no_certificates)
    monkeypatch.setattr(search, "_SCAN_BOUND", 5000)
    with pytest.raises(BoundExceeded, match="pq-pairs up to 5000: 13861 candidates exceed the scan bound"):
        scan_pq_pairs(5000)
    with pytest.raises(BoundExceeded, match="pq-pairs-cyclotomic-3 up to 80000: 27028 candidates exceed"):
        scan_pq_pairs(80000, "cyclotomic", 3)


def test_search_find_all_at_11():
    all_skolem = exhaustive_skolem_search(11, find_all=True)
    strong_skolem = exhaustive_skolem_search(11, require_strong=True, find_all=True)
    assert {s for s in strong_skolem} <= {s for s in all_skolem}
    assert qr_starter(11, 2) in all_skolem
    assert qr_starter(11, 2) in strong_skolem
    assert all(verify_skolem(s)[0] for s in all_skolem)


def test_search_matches_the_backtracking_oracle():
    # Same results, same order: the bitmask search, which walks half the
    # tree and mirrors the rest, returns exactly the list the
    # bytearray-and-set backtracking over the whole tree returns.
    # n = 21 (k = 10) has no solution, and no top pair is its own negation.
    for strong in (False, True):
        for n in range(3, 22, 2):
            expected = backtrack_skolem_search(n, require_strong=strong, find_all=True)
            assert exhaustive_skolem_search(n, require_strong=strong, find_all=True) == expected, (n, strong)
    for n in (11, 17, 19, 25, 27, 33):
        assert exhaustive_skolem_search(n, require_strong=True) == backtrack_skolem_search(n, require_strong=True)
    for n in (n for n in range(3, 28, 2) if n % 8 in (1, 3)):
        assert exhaustive_skolem_search(n) == backtrack_skolem_search(n)


def test_search_results_are_closed_under_negation():
    # The search places the top pair (a, a + k) only at a <= (k + 1) / 2
    # and mirrors the rest: the first result already lies in that half,
    # and find_all returns each solution's negation too.
    for strong in (False, True):
        for n in range(3, 22, 2):
            k = (n - 1) // 2
            found = exhaustive_skolem_search(n, require_strong=strong, find_all=True)
            assert len(set(found)) == len(found), (n, strong)
            assert {negate_starter(s) for s in found} == set(found), (n, strong)
            first = exhaustive_skolem_search(n, require_strong=strong)
            assert first == found[:1], (n, strong)
            for s in first:
                top = next(lo for lo, hi in zip(s.lows, s.highs) if hi - lo == k)
                assert 2 * top <= k + 1, (n, strong)


def test_search_and_enumeration_results_die_with_the_last_reference():
    # The recursive closures hold no reference cycle that outlives the call:
    # with the cyclic collector off, dropping the list frees its starters.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        runs = (
            functools.partial(exhaustive_skolem_search, 19, find_all=True),
            functools.partial(exhaustive_skolem_search, 19, require_strong=True, find_all=True),
            functools.partial(enumerate_starters, 11),
        )
        for run in runs:
            result = run()
            refs = [weakref.ref(result[0]), weakref.ref(result[-1])]
            del result
            assert [ref() for ref in refs] == [None, None], run
    finally:
        if was_enabled:
            gc.enable()


# ---- enumerate_starters ------------------------------------------------------------


def test_enumerate_3():
    assert enumerate_starters(3) == [Starter.from_pairs(3, [(1, 2)])]


def test_enumerate_refuses_an_even_modulus():
    with pytest.raises(ValueError, match="^modulus must be odd and >= 3, got 4$"):
        enumerate_starters(4)


def test_enumerate_5_has_no_skolem_starter():
    starters = enumerate_starters(5)
    assert starters == [Starter.from_pairs(5, [(1, 4), (2, 3)])]
    assert not any(verify_skolem(s)[0] for s in starters)


def test_enumerate_11_contains_qr_construction():
    starters = enumerate_starters(11)
    assert qr_starter(11, 2) in starters


def test_enumerate_bound():
    with pytest.raises(BoundExceeded):
        enumerate_starters(17)


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_enumeration_matches_the_bytearray_oracle(n):
    # Same starters, same order: the bitmask walk lists exactly what the
    # bytearray walk it replaced lists, up to the bound n = 15.
    assert enumerate_starters(n) == bytearray_enumerate_starters(n)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_oracle_agreement(n):
    enumerated = enumerate_starters(n)
    skolem = [s for s in enumerated if verify_skolem(s)[0]]
    strong_skolem = [s for s in skolem if verify_strong(s)[0]]
    assert bool(skolem) == bool(exhaustive_skolem_search(n))
    assert bool(strong_skolem) == bool(exhaustive_skolem_search(n, require_strong=True))
    # existence matches the congruence criterion
    assert bool(skolem) == (n % 8 in (1, 3))


def test_doubling_starter_laws_on_enumerated_corpus():
    # for admissible n (1 or 3 mod 8) every doubling-shaped starter is
    # Skolem, and strong exactly when 3 does not divide n
    for n in (3, 9, 11):
        cardioidal = [
            s for s in enumerate_starters(n) if classify(s).is_cardioidal
        ]
        assert cardioidal, f"no doubling starter found for n={n}"
        for s in cardioidal:
            cls = classify(s)
            assert cls.is_skolem
            assert cls.is_strong == (n % 3 != 0)


def test_enumerated_verdicts_stable_under_negation():
    for n in (7, 9, 11):
        for s in enumerate_starters(n):
            before = classify(s)
            after = classify(negate_starter(s))
            assert (before.is_starter, before.is_strong, before.is_skolem, before.is_cardioidal) == (
                after.is_starter,
                after.is_strong,
                after.is_skolem,
                after.is_cardioidal,
            )
