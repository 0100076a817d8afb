import pytest

from spoofscan.arith import sigma_single
from spoofscan.membership import (
    MemberRecord,
    ProductClass,
    check_membership,
    check_membership_fraction,
    classify_witness,
    membership_bruteforce,
)


def test_examples():
    assert check_membership(9018009, 18035199) == 22021
    assert check_membership(1, 1) == 1
    assert check_membership(3, 4) == 2
    assert check_membership(5, 6) is None


def test_bruteforce_scan_to_10_matches_hand_computation():
    # full scan: sigma = 1,4,6,8,13 for n = 1,3,5,7,9
    found = {rec.n: rec.x for rec in membership_bruteforce(10)}
    assert found == {1: 1, 3: 2}


def test_classify_examples():
    assert classify_witness(1) is ProductClass.UNIT
    assert classify_witness(22021) is ProductClass.ODD_SPOOF
    assert classify_witness(2) is ProductClass.EVEN_SPOOF
    assert classify_witness(3) is ProductClass.PERFECT_CANDIDATE


def test_classify_rejects_zero():
    with pytest.raises(ValueError):
        classify_witness(0)


def test_domain_errors():
    with pytest.raises(ValueError):
        check_membership(3, 0)
    with pytest.raises(ValueError):
        check_membership(4, 7)
    with pytest.raises(ValueError):
        check_membership_fraction(4, 7)
    with pytest.raises(ValueError):
        MemberRecord(n=4, x=2, product_class=ProductClass.EVEN_SPOOF)


def test_bruteforce_examples(bruteforce_1e4):
    assert [rec.n for rec in membership_bruteforce(1)] == [1]
    assert [rec.n for rec in membership_bruteforce(10)] == [1, 3]
    hundred = membership_bruteforce(100)
    assert [rec.n for rec in hundred] == [1, 3, 15]
    assert hundred[2].x == 4
    assert hundred[2].product_class is ProductClass.EVEN_SPOOF


def test_bruteforce_counts_match_decades(bruteforce_1e4):
    ns = [rec.n for rec in bruteforce_1e4]
    counts = [sum(1 for n in ns if n <= 10**k) for k in range(1, 5)]
    assert counts == [2, 3, 7, 15]


def test_bruteforce_limit_guard():
    with pytest.raises(ValueError):
        membership_bruteforce(10**7 + 1)


def test_accepted_pairs_satisfy_identity(bruteforce_1e4):
    for rec in bruteforce_1e4:
        sigma_n = sigma_single(rec.n)
        assert 2 * rec.n * rec.x == sigma_n * (rec.x + 1)
        # members are deficient: sigma(n) < 2n
        assert sigma_n < 2 * rec.n
        assert rec.product_class is classify_witness(rec.x)
