from math import isqrt

import numpy as np
import pytest

from spoofscan import SearchConfig, membership_bruteforce, search_range


@pytest.fixture(scope="session")
def sigma_table_1e6():
    """sigma(n) for 0 <= n <= 10**6 by plain divisor enumeration.

    Independent of both the trial-division and the sieve code paths.
    """
    limit = 10**6
    table = np.zeros(limit + 1, dtype=np.int64)
    # each divisor pair d * k = n with d <= k adds d and k, once when k == d
    for d in range(1, isqrt(limit) + 1):
        k = np.arange(d, limit // d + 1)
        table[d * k] += d + np.where(k != d, k, 0)
    return table


@pytest.fixture(scope="session")
def bruteforce_1e4():
    return membership_bruteforce(10**4)


@pytest.fixture(scope="session")
def search_1e6(tmp_path_factory):
    """(records, results_path) for a full search to 10**6."""
    path = tmp_path_factory.mktemp("search") / "members_1e6.txt"
    config = SearchConfig(limit=10**6, results_path=path, worker_count=2)
    records = search_range(config)
    return records, path
