import pytest

from spoofscan.arith import factorize, sigma_single
from spoofscan.membership import MemberRecord, ProductClass
from spoofscan.spoof import (
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

DESCARTES = QuasiPrimeFactorization(((3, 2), (7, 2), (11, 2), (13, 2), (22021, 1)))


def qpf(*pairs):
    return QuasiPrimeFactorization(tuple(pairs))


def test_expand():
    assert expand(qpf((2, 1), (3, 1))) == 6
    assert expand(DESCARTES) == 198585576189
    assert expand(qpf((3, 1), (3, 1))) == 9


def test_spoof_sigma():
    assert spoof_sigma(qpf((2, 1), (3, 1))) == 12
    assert spoof_sigma(DESCARTES) == 397171152378
    assert spoof_sigma(qpf((3, 1), (3, 1))) == 16


def test_equal_bases_not_merged():
    # {(3,1),(3,1)} and {(3,2)} expand identically but differ under sigma
    assert expand(qpf((3, 1), (3, 1))) == expand(qpf((3, 2)))
    assert spoof_sigma(qpf((3, 1), (3, 1))) == 16
    assert spoof_sigma(qpf((3, 2))) == 13


def test_classify():
    assert classify_spoof(qpf((2, 1), (3, 1))) is SpoofClass.SPOOF_PERFECT
    assert classify_spoof(qpf((3, 1), (3, 1))) is SpoofClass.SPOOF_DEFICIENT
    assert classify_spoof(DESCARTES) is SpoofClass.SPOOF_PERFECT
    assert classify_spoof(qpf((2, 1), (2, 1))) is SpoofClass.SPOOF_ABUNDANT  # 9 > 8


def test_spoof_sigma_order_invariant():
    shuffled = qpf((22021, 1), (13, 2), (3, 2), (11, 2), (7, 2))
    assert spoof_sigma(shuffled) == spoof_sigma(DESCARTES)
    assert expand(shuffled) == expand(DESCARTES)


def test_matches_sigma_when_bases_are_distinct_primes():
    for n in [2, 45, 360, 9018009, 999983, 10**6 - 15]:
        pairs = tuple(factorize(n))
        assert spoof_sigma(qpf(*pairs)) == sigma_single(n), n


def test_witness_factorization_examples():
    rec = MemberRecord(n=9018009, x=22021, product_class=ProductClass.ODD_SPOOF)
    assert witness_factorization(rec).pairs == DESCARTES.pairs
    rec = MemberRecord(n=3, x=2, product_class=ProductClass.EVEN_SPOOF)
    assert witness_factorization(rec).pairs == ((3, 1), (2, 1))
    rec = MemberRecord(n=15, x=4, product_class=ProductClass.EVEN_SPOOF)
    assert witness_factorization(rec).pairs == ((3, 1), (5, 1), (4, 1))


def test_witness_factorization_rejects_unit():
    rec = MemberRecord(n=1, x=1, product_class=ProductClass.UNIT)
    with pytest.raises(ValueError):
        witness_factorization(rec)


def test_bridge_identity_over_search_members(search_1e6):
    # sigma~(factorization of n with (x,1) appended) = sigma(n)(x+1) = 2nx
    records, _ = search_1e6
    assert len(records) == 48
    for rec in records:
        if rec.x < 2:
            continue
        w = witness_factorization(rec)
        assert expand(w) == rec.n * rec.x
        assert classify_spoof(w) is SpoofClass.SPOOF_PERFECT, rec


def test_construction_validation():
    with pytest.raises(ValueError):
        qpf((1, 1))
    with pytest.raises(ValueError):
        qpf((3, 0))
    with pytest.raises(OverflowError):
        qpf((2, 129))  # expansion above 2^128 - 1
    assert expand(qpf((2, 127))) == 2**127
    assert expand(qpf((3, 80))) == 3**80  # just below 2^127
    # 2^(10^12) would take longer to compute than any test may run: the
    # bit-length bound rejects these before any power is built
    for pairs in [((2, 128),), ((3, 81),), ((2, 10**12),), ((3, 10**9),), ((3, 1),) * 1000]:
        with pytest.raises(OverflowError):
            qpf(*pairs)


def test_spoof_sigma_overflow():
    x = qpf(*[(2, 1)] * 81)  # expands to 2^81, sigma~ = 3^81 > 2^128
    assert expand(x) == 2**81
    with pytest.raises(OverflowError):
        spoof_sigma(x)


def test_parse_examples():
    assert parse_factorization("3^2*7^2*11^2*13^2*22021").pairs == DESCARTES.pairs
    assert parse_factorization("2*3").pairs == ((2, 1), (3, 1))
    assert parse_factorization(" 2 * 3 ^ 4 ").pairs == ((2, 1), (3, 4))


def test_parse_domain_errors():
    with pytest.raises(ValueError):
        parse_factorization("3^0")
    with pytest.raises(ValueError):
        parse_factorization("1*3")


def test_parse_syntax_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_factorization("3^")
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse_factorization("")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse_factorization("2*3 7")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_factorization("2**3")
    assert err.value.offset == 2


def test_format_round_trip():
    for text in ["2*3", "3^2*7^2*11^2*13^2*22021", "5", "2^10", "3*3"]:
        parsed = parse_factorization(text)
        assert format_factorization(parsed) == text
        assert parse_factorization(format_factorization(parsed)).pairs == parsed.pairs


def test_format_canonicalizes_whitespace():
    assert format_factorization(parse_factorization(" 2 * 3^2 ")) == "2*3^2"
