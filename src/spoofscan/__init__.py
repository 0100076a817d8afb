"""spoofscan: search and analysis for odd n with 2n/sigma(n) - 1 = 1/x.

Members n of this set pair with a witness x = sigma(n)/(2n - sigma(n));
the product n*x is an odd perfect number if x is an odd prime and a
spoof (Descartes) number if x is odd and composite. The package provides
an exact segmented sigma sieve, the membership test in two equivalent
forms, spoof sigma arithmetic over quasi-prime factorizations, a
parallel checkpointable search driver, and dataset statistics.
"""

from .arith import (
    ReducedFraction,
    factorize,
    gcd,
    is_prime,
    reduce_fraction,
    sieve_primes,
    sigma_single,
)
from .membership import (
    MemberRecord,
    ProductClass,
    check_membership,
    check_membership_fraction,
    classify_witness,
    membership_bruteforce,
)
from .sieve import SigmaSegment, sigma_segment
from .spoof import (
    ParseError,
    QuasiPrimeFactorization,
    SpoofClass,
    classify_spoof,
    expand,
    format_factorization,
    parse_factorization,
    spoof_sigma,
    witness_factorization,
)
from .search import (
    Checkpoint,
    IntegrityError,
    SearchConfig,
    read_checkpoint,
    read_results,
    resume,
    search_range,
)
from .analysis import (
    DensityFit,
    Histogram,
    decade_counts,
    density_series,
    ending_digit_histogram,
    fit_alpha,
    residue_histogram,
    schnirelmann_glb,
)

__version__ = "0.1.0"

__all__ = [
    "ReducedFraction",
    "factorize",
    "gcd",
    "is_prime",
    "reduce_fraction",
    "sieve_primes",
    "sigma_single",
    "MemberRecord",
    "ProductClass",
    "check_membership",
    "check_membership_fraction",
    "classify_witness",
    "membership_bruteforce",
    "SigmaSegment",
    "sigma_segment",
    "ParseError",
    "QuasiPrimeFactorization",
    "SpoofClass",
    "classify_spoof",
    "expand",
    "format_factorization",
    "parse_factorization",
    "spoof_sigma",
    "witness_factorization",
    "Checkpoint",
    "IntegrityError",
    "SearchConfig",
    "read_checkpoint",
    "read_results",
    "resume",
    "search_range",
    "DensityFit",
    "Histogram",
    "decade_counts",
    "density_series",
    "ending_digit_histogram",
    "fit_alpha",
    "residue_histogram",
    "schnirelmann_glb",
]
