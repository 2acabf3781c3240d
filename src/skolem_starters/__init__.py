"""Strong Skolem starters: constructions, verifiers, and search oracles.

The package splits into five layers:

  modnt          exact modular arithmetic (primality, primitive roots,
                 the root-free half-class test, discrete logs, CRT)
  starters       the Pair/Starter types and the four verifiers
  constructions  explicit doubling-pair recipes for Z_p, Z_{p^n}, Z_{pq},
                 each one certified walk over the orbits of a multiplier
  search         admissible-parameter scans and exhaustive brute force
  cli            the skolem-starters command-line tool
"""

from .constructions import (
    check_minus_one_coset,
    check_two_in_coset,
    CoverageFailure,
    cyclotomic_starter,
    horton_starter,
    HypothesisViolation,
    pq_cyclotomic_starter,
    pq_starter,
    prime_power_cyclotomic_starter,
    prime_power_starter,
    qr_starter,
    Recipe,
)
from .search import (
    BoundExceeded,
    enumerate_starters,
    exhaustive_skolem_search,
    find_common_primitive_root,
    scan_cyclotomic_primes,
    scan_pq_pairs,
    scan_qr_primes,
    ScanReport,
    SearchTimeout,
)
from .starters import (
    Classification,
    classify,
    MalformedStarter,
    negate_starter,
    Pair,
    Starter,
    starter_from_dict,
    starter_from_json,
    starter_to_dict,
    starter_to_json,
    verify_cardioidal,
    verify_skolem,
    verify_starter,
    verify_strong,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded",
    "Classification",
    "classify",
    "CoverageFailure",
    "check_minus_one_coset",
    "check_two_in_coset",
    "cyclotomic_starter",
    "enumerate_starters",
    "exhaustive_skolem_search",
    "find_common_primitive_root",
    "horton_starter",
    "HypothesisViolation",
    "MalformedStarter",
    "negate_starter",
    "Pair",
    "pq_cyclotomic_starter",
    "pq_starter",
    "prime_power_cyclotomic_starter",
    "prime_power_starter",
    "qr_starter",
    "Recipe",
    "scan_cyclotomic_primes",
    "scan_pq_pairs",
    "scan_qr_primes",
    "ScanReport",
    "SearchTimeout",
    "Starter",
    "starter_from_dict",
    "starter_from_json",
    "starter_to_dict",
    "starter_to_json",
    "verify_cardioidal",
    "verify_skolem",
    "verify_starter",
    "verify_strong",
]
