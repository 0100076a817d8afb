"""Quasi-prime factorizations and the spoof sigma function.

A quasi-prime factorization is an ordered list of (base, exponent)
pairs with base >= 2 and exponent >= 1; bases are not required to be
prime or pairwise coprime, and equal bases are NOT merged: the pair
list {(3,1),(3,1)} expands to 9 like {(3,2)} but has a different spoof
sigma (16 vs 13). The spoof sigma treats every base as if it were prime:

    spoof_sigma(X) = prod over pairs of (1 + b + b^2 + ... + b^e)

and a factorization is spoof perfect / abundant / deficient according
to spoof_sigma(X) = / > / < 2 * expand(X).

Expansions and spoof sigmas above 2^128 - 1 are rejected rather than
computed; Python ints would happily keep going, but nothing this size
is meaningful here and the ceiling keeps results portable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .arith import factorize
from .membership import MemberRecord

__all__ = [
    "QuasiPrimeFactorization",
    "SpoofClass",
    "expand",
    "spoof_sigma",
    "classify_spoof",
    "witness_factorization",
    "parse_factorization",
    "format_factorization",
    "ParseError",
    "UINT128_MAX",
]

UINT128_MAX = (1 << 128) - 1


class SpoofClass(str, Enum):
    SPOOF_PERFECT = "SPOOF_PERFECT"
    SPOOF_ABUNDANT = "SPOOF_ABUNDANT"
    SPOOF_DEFICIENT = "SPOOF_DEFICIENT"

    def __str__(self) -> str:
        return self.value


class ParseError(ValueError):
    """Syntax error in a factorization expression; offset is a byte index."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


@dataclass(frozen=True)
class QuasiPrimeFactorization:
    """Ordered (base, exponent) pairs, base >= 2, exponent >= 1."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((int(b), int(e)) for b, e in self.pairs))
        for b, e in self.pairs:
            if b < 2:
                raise ValueError(f"base must be >= 2, got {b}")
            if e < 1:
                raise ValueError(f"exponent must be >= 1, got {e}")
        # b^e >= 2^(e*(bit_length(b) - 1)), so a sum of 128 or more
        # overflows and is rejected before any power is computed
        low_bits = sum(e * (b.bit_length() - 1) for b, e in self.pairs)
        if low_bits >= 128 or expand(self) > UINT128_MAX:
            raise OverflowError("expansion exceeds 128 bits")

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def expand(x: QuasiPrimeFactorization) -> int:
    """The integer prod base^exponent (fits in 128 bits by construction)."""
    prod = 1
    for b, e in x:
        prod *= b**e
    return prod


def spoof_sigma(x: QuasiPrimeFactorization) -> int:
    """prod over pairs of (1 + b + ... + b^e), each base treated as prime.

    Geometric sums are built by iterated multiply-add, which is exact and
    avoids the division in the closed form.
    """
    total = 1
    for b, e in x:
        term = 1
        power = 1
        for _ in range(e):
            power *= b
            term += power
        total *= term
        if total > UINT128_MAX:
            raise OverflowError("spoof sigma exceeds 128 bits")
    return total


def classify_spoof(x: QuasiPrimeFactorization) -> SpoofClass:
    doubled = 2 * expand(x)
    sigma = spoof_sigma(x)
    if sigma == doubled:
        return SpoofClass.SPOOF_PERFECT
    return SpoofClass.SPOOF_ABUNDANT if sigma > doubled else SpoofClass.SPOOF_DEFICIENT


def witness_factorization(record: MemberRecord) -> QuasiPrimeFactorization:
    """True prime factorization of record.n with (x, 1) appended.

    Expands to the product D = n * x. UNIT records (x = 1) have no
    quasi-prime form, since bases must be >= 2.
    """
    if record.x < 2:
        raise ValueError(f"no witness factorization for x = {record.x}")
    pairs = list(factorize(record.n)) if record.n > 1 else []
    pairs.append((record.x, 1))
    return QuasiPrimeFactorization(tuple(pairs))


# one term with the whitespace around it: base digits, then an optional
# '^' and exponent digits; both digit groups may be empty so that the
# parser can report where the missing integer belongs
_TERM = re.compile(r"[ \t]*([0-9]*)[ \t]*(?:\^[ \t]*([0-9]*))?[ \t]*")


def _term_int(term: re.Match, group: int, what: str, least: int) -> int:
    """The integer in a group of a _TERM match, at least `least`."""
    if not term.group(group):
        raise ParseError(f"expected integer {what}", term.start(group))
    value = int(term.group(group))
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value} at offset {term.start(group)}")
    return value


def parse_factorization(text: str) -> QuasiPrimeFactorization:
    """Parse ``term ('*' term)*`` with ``term = integer ('^' integer)?``.

    ASCII digits only; whitespace is allowed around tokens. An omitted
    exponent means 1. Syntax errors raise ParseError with the byte
    offset; base < 2 or exponent 0 raise plain ValueError.
    """
    pairs = []
    pos = 0
    while True:
        term = _TERM.match(text, pos)
        base = _term_int(term, 1, "base", 2)
        exponent = 1 if term.group(2) is None else _term_int(term, 2, "exponent", 1)
        pairs.append((base, exponent))
        pos = term.end()
        if pos == len(text):
            break
        if text[pos] != "*":
            raise ParseError(f"expected '*' or end of input, found {text[pos]!r}", pos)
        pos += 1
    return QuasiPrimeFactorization(tuple(pairs))


def format_factorization(x: QuasiPrimeFactorization) -> str:
    """Canonical text form: '3^2*7^2*11^2*13^2*22021' (exponent 1 omitted)."""
    return "*".join(f"{b}^{e}" if e > 1 else str(b) for b, e in x)
