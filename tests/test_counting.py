"""Exact counting tests: closed forms, divisibility, pigeonhole bounds."""

from itertools import product
from math import factorial

import pytest

from cubology.counting import (
    BoundResult,
    PrecisionTooLow,
    gods_number_lower_bound,
    group_order,
    normalized_bound_limit,
    normalized_bound_ratio,
    orbit_count,
    reduced_sequence_count,
    s_conf_size,
    s_phys_size,
    stabilizer_order,
    tuned_lower_bound,
)

F8, F12, F24 = factorial(8), factorial(12), factorial(24)


def test_reassembly_count_closed_forms():
    assert s_conf_size(2) == F8 * 3 ** 8
    assert s_conf_size(3) == F8 * 3 ** 8 * 2 ** 12 * F12
    assert s_conf_size(4) == F8 * 3 ** 8 * 2 ** 24 * F24 ** 2
    assert s_conf_size(5) == F8 * 3 ** 8 * 2 ** 36 * F24 ** 3 * F12


def test_group_order_canonical_values():
    assert group_order(2) == 88_179_840
    assert group_order(3) == 43_252_003_274_489_856_000
    assert group_order(4) == F8 * 3 ** 7 * F24 ** 2 // 2
    assert group_order(5) == F8 * 3 ** 7 * F12 * 2 ** 8 * F24 ** 3


def test_physical_count_equals_group_order_on_three():
    assert s_phys_size(3) == group_order(3)
    assert s_phys_size(2) == group_order(2)


def test_lagrange_identities_across_sizes():
    for n in range(2, 51):
        assert group_order(n) * orbit_count(n) == s_conf_size(n)
        assert stabilizer_order(n) * s_phys_size(n) == group_order(n)


def test_orbit_count_values():
    assert orbit_count(2) == 3
    assert orbit_count(3) == 12
    assert orbit_count(4) == 3 * 2 ** 25


def test_stabilizer_is_trivial_without_center_orbits():
    assert stabilizer_order(2) == 1
    assert stabilizer_order(3) == 1
    assert stabilizer_order(4) == (24 ** 6 // 2) ** 1


def test_sizes_must_be_integers_of_at_least_two():
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            group_order(bad)
    with pytest.raises(ValueError):
        s_conf_size(2.5)


def test_lower_bound_on_the_pocket_cube():
    result = gods_number_lower_bound(2)
    assert isinstance(result, BoundResult)
    assert result.n == 2
    assert result.basic_move_count == 12
    assert result.ceiling == 7
    assert result.bound == pytest.approx(6.3624, abs=1e-3)
    assert result.s_phys == s_phys_size(2)


def test_lower_bound_on_the_standard_cube():
    result = gods_number_lower_bound(3)
    assert result.basic_move_count == 18
    assert result.ceiling == 15
    assert result.bound == pytest.approx(14.6428, abs=1e-3)


def test_lower_bound_grows_with_size():
    ceilings = [gods_number_lower_bound(n).ceiling for n in range(2, 21)]
    assert all(a < b for a, b in zip(ceilings, ceilings[1:]))


def test_low_precision_is_reported_not_hidden():
    with pytest.raises(PrecisionTooLow) as err:
        gods_number_lower_bound(50, precision=2)
    assert 'ambiguous' in str(err.value)
    # the same size resolves fine at the default precision
    assert gods_number_lower_bound(50).ceiling > 1000


def test_reduced_sequence_count_small_values():
    assert reduced_sequence_count(3, 0) == 1
    assert reduced_sequence_count(3, 1) == 18
    assert reduced_sequence_count(3, 2) == 270
    assert reduced_sequence_count(2, 2) == 12 * 9
    with pytest.raises(ValueError):
        reduced_sequence_count(3, -1)


def brute_force_reduced_words(n, k):
    """Count words over 6n turn letters, grouped into 2n slab triples,
    with no two consecutive letters taken from the same triple."""
    letters = 6 * n
    if k == 0:
        return 1
    total = 0
    for word in product(range(letters), repeat=k):
        if all(a // 3 != b // 3 for a, b in zip(word, word[1:])):
            total += 1
    return total


def test_reduced_sequence_count_matches_enumeration():
    for n in (2, 3, 4):
        for k in range(5 if n < 4 else 4):
            assert reduced_sequence_count(n, k) == \
                brute_force_reduced_words(n, k), (n, k)


def test_tuned_bound_values_and_dominance():
    assert tuned_lower_bound(2).ceiling == 9
    assert tuned_lower_bound(3).ceiling == 17
    assert tuned_lower_bound(100).ceiling == 13840
    for n in range(2, 13):
        assert tuned_lower_bound(n).ceiling >= \
            gods_number_lower_bound(n).ceiling


def step_walk_tuned_ceiling(n):
    """Smallest k whose running sum of reduced_sequence_count(n, j),
    j = 0..k, reaches the physical state count, found one step at a
    time; each term is the last one times 6n-3."""
    target = s_phys_size(n)
    total = reduced_sequence_count(n, 0)
    term = reduced_sequence_count(n, 1)
    k = 0
    while total < target:
        k += 1
        total += term
        term *= 6 * n - 3
    return k


@pytest.mark.parametrize('n', range(2, 61))
def test_tuned_bound_matches_step_walk(n):
    assert tuned_lower_bound(n).ceiling == step_walk_tuned_ceiling(n)


def test_normalized_ratio_converges_from_below():
    limit = normalized_bound_limit()
    assert limit == pytest.approx(12.881971, abs=1e-5)
    ratios = {n: normalized_bound_ratio(n) for n in (10, 100, 1000, 10000)}
    assert ratios[10] == pytest.approx(6.52972, abs=1e-4)
    assert ratios[100] == pytest.approx(9.18657, abs=1e-4)
    assert ratios[1000] == pytest.approx(10.21924, abs=1e-4)
    assert ratios[10000] == pytest.approx(10.78306, abs=1e-4)
    gaps = [limit - ratios[n] for n in (10, 100, 1000, 10000)]
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
