"""Acceptance suite.

One test per acceptance criterion, each asserting the exact expected
outcome and its runtime budget, and printing a single pass line
(visible under pytest -s / in verbose test names).
"""

import time

import pytest

from skolem_starters.constructions import (
    check_minus_one_coset,
    check_two_in_coset,
    cyclotomic_starter,
    pq_cyclotomic_starter,
    pq_starter,
    prime_power_starter,
    qr_starter,
)
from skolem_starters.search import (
    enumerate_starters,
    exhaustive_skolem_search,
    find_common_primitive_root,
    scan_cyclotomic_primes,
)
from skolem_starters.starters import (
    classify,
    negate_starter,
    Starter,
    verify_skolem,
    verify_strong,
)
from oracles import multiplicative_order, naive_dlog, naive_order, trial_division_prime

from test_starters import Z19_PAIRS


def _passed(tag: str, detail: str) -> None:
    print(f"[acceptance {tag}] PASS {detail}")


@pytest.fixture(scope="module")
def qr_sweep():
    """Every p = 3 (mod 8), 3 < p < 1000, both beta variants."""
    start = time.perf_counter()
    built = {}
    for p in range(5, 1000, 2):
        if p % 8 == 3 and trial_division_prime(p):
            built[p] = (qr_starter(p, 2), qr_starter(p, "2inv"))
    return built, time.perf_counter() - start


@pytest.fixture(scope="module")
def big_pq():
    start = time.perf_counter()
    s = pq_cyclotomic_starter(281, 617, 3, 2)
    return s, time.perf_counter() - start


def test_criterion_1_golden_fixture_verifies():
    s = Starter.from_pairs(19, Z19_PAIRS)
    classify(s)  # warm-up
    start = time.perf_counter()
    cls = classify(s)
    elapsed = time.perf_counter() - start
    assert cls.is_starter and cls.is_strong and cls.is_skolem and cls.is_cardioidal
    assert elapsed < 0.001
    _passed("1", f"9-pair fixture for Z_19 verifies all four in {elapsed * 1e6:.0f} us")


def test_criterion_2_qr_sweep_below_1000(qr_sweep):
    built, elapsed = qr_sweep
    assert built, "no admissible primes found"
    for p, (s2, s2inv) in built.items():
        assert len(s2.pairs) == (p - 1) // 2
        assert s2.classification.all_four
        assert s2inv.classification.all_four
        assert s2inv == negate_starter(s2)
    assert elapsed < 5.0
    _passed("2", f"{len(built)} primes swept, both variants, in {elapsed:.2f} s")


def test_criterion_3_prime_power_instances():
    start = time.perf_counter()
    s121 = prime_power_starter(11, 2, 2)
    s1331 = prime_power_starter(11, 3, 2)
    elapsed = time.perf_counter() - start
    assert s121.modulus == 121 and len(s121.pairs) == 60
    assert s121.classification.all_four
    assert s1331.modulus == 1331 and len(s1331.pairs) == 665
    assert s1331.classification.all_four
    assert elapsed < 1.0
    _passed("3", f"60 pairs over Z_121 and 665 over Z_1331 in {elapsed:.2f} s")


def test_criterion_4_cyclotomic_instance_and_scan():
    start = time.perf_counter()
    s = cyclotomic_starter(281, 3)
    report = scan_cyclotomic_primes(3, 300)
    elapsed = time.perf_counter() - start

    assert len(s.pairs) == 140 and s.classification.all_four

    # independent recomputation of the admissible set below 300
    expected = []
    for p in range(10, 300):
        if not trial_division_prime(p) or (p - 1) % 8:
            continue
        t = (p - 1) // 8
        if t % 2 == 0 or t <= 1:
            continue
        root = next(r for r in range(2, p) if naive_order(r, p) == p - 1)
        if naive_dlog(2, root, p) % 8 == 4:
            expected.append(p)
    hits = [h.params["p"] for h in report.hits]
    assert hits == expected and 281 in hits
    assert all(multiplicative_order(2, p) % 4 == 2 for p in hits)
    assert elapsed < 1.0
    _passed("4", f"140 pairs at p=281; scan(3, 300) = {hits} in {elapsed:.2f} s")


def test_criterion_5_two_prime_instance():
    start = time.perf_counter()
    s = pq_starter(11, 19, 2)
    elapsed = time.perf_counter() - start
    assert s.modulus == 209 and len(s.pairs) == 104
    assert s.classification.all_four
    sizes = (
        sum(1 for pr in s.pairs if pr.lo % 11 == 0),
        sum(1 for pr in s.pairs if pr.lo % 19 == 0),
        sum(1 for pr in s.pairs if pr.lo % 11 and pr.lo % 19),
    )
    assert sizes == (9, 5, 90)
    assert elapsed < 1.0
    _passed("5", f"104 pairs over Z_209, families {sizes}, in {elapsed:.2f} s")


def test_criterion_6_two_prime_cyclotomic_instance(big_pq):
    s, elapsed = big_pq
    assert s.modulus == 173377 and len(s.pairs) == 86688
    assert s.classification.all_four
    root = find_common_primitive_root(281, 617)
    assert (281 - 1) * (617 - 1) // 2**4 == 10780
    assert check_minus_one_coset(281, 617, 3, root)
    assert check_two_in_coset(281, 617, 3, root)
    assert elapsed < 30.0
    _passed("6", f"86688 pairs over Z_173377 plus both coset certificates in {elapsed:.2f} s")


def test_criterion_7_strongness_boundary(qr_sweep, big_pq):
    tri = classify(Starter.from_pairs(3, [(1, 2)]))
    assert tri.is_cardioidal and tri.is_skolem and not tri.is_strong

    built, _ = qr_sweep
    constructed = [s for pair in built.values() for s in pair]
    constructed += [
        prime_power_starter(11, 2, 2),
        prime_power_starter(11, 3, 2),
        cyclotomic_starter(281, 3),
        pq_starter(11, 19, 2),
        big_pq[0],
    ]
    for s in constructed:
        assert s.modulus % 3 != 0
        assert s.classification.is_cardioidal
        assert s.classification.is_strong
    _passed(
        "7",
        f"modulus-3 fixture fails strong; {len(constructed)} constructed starters "
        "with 3 not dividing n are all strong",
    )


def test_criterion_8_existence_sweep_3_to_27():
    start = time.perf_counter()
    outcome = {}
    for n in range(3, 28, 2):
        found = exhaustive_skolem_search(n, timeout=60.0)
        outcome[n] = bool(found)
    elapsed = time.perf_counter() - start
    for n, found in outcome.items():
        assert found == (n % 8 in (1, 3)), f"existence mismatch at n={n}"
    assert elapsed < 60.0
    _passed("8", f"Skolem existence over odd n in 3..27 matches n mod 8 in {elapsed:.2f} s")


def test_criterion_9_strong_skolem_slice_11_to_33():
    admissible = [n for n in range(11, 34, 2) if n % 8 in (1, 3)]
    assert admissible == [11, 17, 19, 25, 27, 33]
    times = {}
    for n in admissible:
        start = time.perf_counter()
        found = exhaustive_skolem_search(n, require_strong=True, timeout=60.0)
        times[n] = time.perf_counter() - start
        assert found, f"no strong Skolem starter found for n={n}"
        cls = classify(found[0])
        assert cls.is_starter and cls.is_strong and cls.is_skolem
        assert times[n] < 60.0
    _passed("9", f"strong Skolem starters found for all of {admissible}, max {max(times.values()):.2f} s")


def test_criterion_10_oracle_agreement_to_15():
    start = time.perf_counter()
    for n in range(3, 16, 2):
        enumerated = enumerate_starters(n)
        skolem = [s for s in enumerated if verify_skolem(s)[0]]
        strong_skolem = [s for s in skolem if verify_strong(s)[0]]
        assert bool(skolem) == bool(exhaustive_skolem_search(n, timeout=60.0))
        assert bool(strong_skolem) == bool(
            exhaustive_skolem_search(n, require_strong=True, timeout=60.0)
        )
        for s in enumerated:
            before = classify(s)
            after = classify(negate_starter(s))
            assert before.is_starter == after.is_starter
            assert before.is_strong == after.is_strong
            assert before.is_cardioidal == after.is_cardioidal
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed("10", f"both oracles agree for odd n <= 15, negation-stable, in {elapsed:.2f} s")
