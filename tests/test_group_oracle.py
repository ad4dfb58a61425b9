"""Independent oracle tests: BSGS orders, breadth-first balls, sampling."""

import random

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from cubology.cube_model import (
    CubeSpec,
    Move,
    sequence_permutation,
    sticker_permutation,
)
from cubology.decomposition import build_atlas
from cubology.group_oracle import (
    DepthTooLarge,
    bfs_states,
    build_bsgs,
    estimate_valid_fraction,
    generators,
    schreier_sims_order,
    subgroup_order,
)
from cubology.cubology_law import is_solvable
from cubology.move_library import corner_three_cycle

BALL_COUNTS = {
    2: ((1, 12, 114, 924), (1, 13, 127, 1051)),
    3: ((1, 12, 114, 1068), (1, 13, 127, 1195)),
}


def test_generator_inventory():
    assert len(generators(CubeSpec(2))) == 6
    assert len(generators(CubeSpec(3))) == 6
    assert len(generators(CubeSpec(3), include_central=True)) == 9
    assert len(generators(CubeSpec(3), include_central=True, signed=True)) == 18
    assert len(generators(CubeSpec(4), signed=True)) == 24


def test_schreier_sims_order_on_the_pocket_cube():
    assert schreier_sims_order(generators(CubeSpec(2))) == 88_179_840


def test_schreier_sims_order_on_the_standard_cube():
    assert schreier_sims_order(generators(CubeSpec(3))) == \
        43_252_003_274_489_856_000


def test_bsgs_sifts_its_own_generators():
    gens = generators(CubeSpec(2))
    bsgs = build_bsgs(gens.permutations, CubeSpec(2).sticker_count)
    identity = tuple(range(CubeSpec(2).sticker_count))
    assert bsgs.contains(identity)
    for perm in gens.permutations:
        assert bsgs.contains(perm)


def test_bsgs_membership_separates_reachable_from_not():
    spec = CubeSpec(3)
    gens = generators(spec)
    bsgs = build_bsgs(gens.permutations, spec.sticker_count)
    # a named macro is a product of generators, so its permutation sifts
    macro = corner_three_cycle(spec)
    assert bsgs.contains(sequence_permutation(spec, macro.sequence))
    # twisting one corner in place is a reassembly outside the move group
    atlas = build_atlas(spec)
    a, b, c = atlas.orbit('corner').slots[0].positions
    twist = list(range(spec.sticker_count))
    twist[a], twist[b], twist[c] = b, c, a
    assert not bsgs.contains(tuple(twist))


def test_cyclic_subgroup_of_one_turn():
    spec = CubeSpec(3)
    perm = sticker_permutation(spec, Move('R', 1, 1))
    assert subgroup_order([perm]) == 4


def test_subgroup_order_with_a_slot_restriction():
    spec = CubeSpec(3)
    atlas = build_atlas(spec)
    perm = sticker_permutation(spec, Move('R', 1, 1))
    corners = atlas.orbit('corner')
    corners_only = subgroup_order(
        [perm], restriction=lambda p: atlas.slot_action(p, corners))
    assert corners_only == 4


def _random_generator_set(rng):
    '''A few permutations of a small degree; about half of the sets
    keep the points split in two blocks, so the group is intransitive.'''
    degree = rng.randint(2, 13)
    cut = rng.randint(1, degree - 1) if rng.random() < 0.5 else degree
    perms = []
    for _ in range(rng.randint(1, 4)):
        low, high = list(range(cut)), list(range(cut, degree))
        rng.shuffle(low)
        rng.shuffle(high)
        perms.append(tuple(low + high))
    return degree, perms


def test_order_and_membership_agree_with_sympy():
    rng = random.Random(2021)
    cases = [(4, [(0, 1, 2, 3)]), (6, [(0, 1, 2, 3, 4, 5)] * 2)]
    cases += [_random_generator_set(rng) for _ in range(150)]
    for degree, perms in cases:
        bsgs = build_bsgs(perms, degree)
        reference = PermutationGroup([Permutation(list(p)) for p in perms])
        assert bsgs.order == reference.order(), (degree, perms)
        queries = [tuple(rng.sample(range(degree), degree)) for _ in range(3)]
        word = tuple(range(degree))
        for _ in range(rng.randint(1, 6)):
            step = rng.choice(perms)
            word = tuple(step[i] for i in word)
        queries.append(word)
        for query in queries:
            assert bsgs.contains(query) == \
                reference.contains(Permutation(list(query))), (perms, query)


def test_empty_generator_list_is_the_trivial_group():
    bsgs = build_bsgs([], degree=5)
    assert bsgs.order == 1
    assert bsgs.base == ()
    assert bsgs.contains((0, 1, 2, 3, 4))
    assert not bsgs.contains((1, 0, 2, 3, 4))


def test_ball_growth_frozen_counts():
    for n, (counts, cumulative) in BALL_COUNTS.items():
        ball = bfs_states(CubeSpec(n), 3)
        assert ball.counts == counts
        assert ball.cumulative == cumulative
        assert len(ball.states) == cumulative[-1]


def test_ball_contains_only_solvable_states():
    ball = bfs_states(CubeSpec(3), 2)
    for state in ball.states:
        assert is_solvable(state)


def test_ball_budget_is_enforced():
    with pytest.raises(DepthTooLarge):
        bfs_states(CubeSpec(3), 4, budget=500)
    with pytest.raises(ValueError):
        bfs_states(CubeSpec(3), -1)


def test_valid_fraction_estimate_is_wilson_and_deterministic():
    spec = CubeSpec(2)
    est = estimate_valid_fraction(spec, 3000, seed=4)
    again = estimate_valid_fraction(spec, 3000, seed=4)
    assert est == again
    assert est.samples == 3000
    assert 0.0 <= est.low <= est.fraction <= est.high <= 1.0
    assert est.low <= 1 / 3 <= est.high
    with pytest.raises(ValueError):
        estimate_valid_fraction(spec, 0)
