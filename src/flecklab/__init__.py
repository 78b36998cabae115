"""Exact p-adic analysis of restricted alternating binomial sums.

The package computes sums of binomial coefficients with alternating signs,
restricted to one residue class of the lower index modulo a prime power and
weighted by a polynomial in the class offset — all in exact integer and
rational arithmetic — together with their p-adic orders, several normalized
variants, and sweep-based checks of a catalog of order bounds, congruences,
and identities about them.
"""

from __future__ import annotations

from .combinatorics import (
    Polynomial,
    bernoulli_number,
    bernoulli_polynomial,
    binomial,
    binomial_inversion,
    falling_factorial,
    stirling2,
    weighted_inverse_sequence,
)
from .errors import (
    EmptyGridError,
    FlecklabError,
    InternalInvariantError,
    InvalidParameterError,
    UnknownStatementError,
    UnsupportedRegimeError,
)
from .padic import (
    INFINITY,
    PrimePowerModulus,
    carries,
    factorial_order,
    is_prime,
    padic_order,
    weisman_bound,
)
from .quantities import (
    convolution_weight,
    fleck_sum_value,
    normalized_sum_value,
    order_gap,
)
from .statements import SEARCH_IDS, STATEMENT_IDS
from .sums import (
    RestrictedSumSpec,
    alt_sum_binom,
    alt_sum_f,
    alt_sum_power,
    degree_order_bound,
    floor_order_bound,
    integer_valued_order_bound,
    plain_alt_sum,
    restricted_sum,
    restricted_sum_order,
    series_coefficient,
    unsigned_class_sum,
)
from .verifier import VerificationReport, run_statement, search_conjecture

__version__ = "0.1.0"

__all__ = [
    "EmptyGridError",
    "FlecklabError",
    "INFINITY",
    "InternalInvariantError",
    "InvalidParameterError",
    "Polynomial",
    "PrimePowerModulus",
    "RestrictedSumSpec",
    "SEARCH_IDS",
    "STATEMENT_IDS",
    "UnknownStatementError",
    "UnsupportedRegimeError",
    "VerificationReport",
    "alt_sum_binom",
    "alt_sum_f",
    "alt_sum_power",
    "bernoulli_number",
    "bernoulli_polynomial",
    "binomial",
    "binomial_inversion",
    "carries",
    "convolution_weight",
    "degree_order_bound",
    "factorial_order",
    "falling_factorial",
    "fleck_sum_value",
    "floor_order_bound",
    "integer_valued_order_bound",
    "is_prime",
    "normalized_sum_value",
    "order_gap",
    "padic_order",
    "plain_alt_sum",
    "restricted_sum",
    "restricted_sum_order",
    "run_statement",
    "search_conjecture",
    "series_coefficient",
    "stirling2",
    "unsigned_class_sum",
    "weighted_inverse_sequence",
    "weisman_bound",
    "__version__",
]
