"""Solvability law tests: condition inventory, verdicts, samplers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cubology.cube_model import (
    CubeSpec,
    apply_move,
    apply_sequence,
    legal_slab_moves,
    parse_move_sequence,
    solved_state,
    sticker_permutation,
)
from cubology.cubology_law import (
    check_validity,
    is_solvable,
    orbit_class_count,
    random_configuration,
    random_valid_configuration,
)
from cubology.decomposition import (
    build_atlas,
    compose,
    decompose,
    permutation_sign,
)
from cubology import counting

CONDITIONS_BY_SIZE = {
    2: ['corner_twist_sum'],
    3: ['parity_corners_edges', 'corner_twist_sum', 'edge_flip_sum'],
    4: ['parity_corners_edges', 'corner_twist_sum', 'coupled_orientation'],
    5: ['parity_corners_edges', 'center_edge_sign', 'corner_twist_sum',
        'edge_flip_sum', 'coupled_orientation'],
    6: ['parity_corners_edges', 'center_edge_sign', 'corner_twist_sum',
        'coupled_orientation'],
    7: ['parity_corners_edges', 'center_edge_sign', 'corner_twist_sum',
        'edge_flip_sum', 'coupled_orientation'],
}


def twisted_corner(spec):
    config = decompose(solved_state(spec))
    twists = list(config.corner_twists)
    twists[0] = 1
    return compose(config.__class__(**{**config.__dict__,
                                       'corner_twists': tuple(twists)}))


def test_condition_inventory_per_size():
    for n, expected in CONDITIONS_BY_SIZE.items():
        report = check_validity(decompose(solved_state(CubeSpec(n))))
        assert [c.condition for c in report.conditions] == expected
        assert report.valid
        assert not report.failing()


def test_single_twisted_corner_fails_twist_sum():
    for n in (2, 3, 4, 5):
        report = check_validity(decompose(twisted_corner(CubeSpec(n))))
        assert not report.valid
        assert [c.condition for c in report.failing()] == ['corner_twist_sum']


def test_single_flipped_edge_fails_flip_sum():
    spec = CubeSpec(3)
    config = decompose(solved_state(spec))
    flips = list(config.single_edge_flips)
    flips[0] = 1
    state = compose(config.__class__(**{**config.__dict__,
                                        'single_edge_flips': tuple(flips)}))
    report = check_validity(decompose(state))
    assert [c.condition for c in report.failing()] == ['edge_flip_sum']
    assert not is_solvable(state)


def test_two_swapped_corners_fail_parity_on_three():
    spec = CubeSpec(3)
    config = decompose(solved_state(spec))
    perm = list(config.corner_perm)
    perm[0], perm[1] = perm[1], perm[0]
    state = compose(config.__class__(**{**config.__dict__,
                                        'corner_perm': tuple(perm)}))
    report = check_validity(decompose(state))
    assert [c.condition for c in report.failing()] == ['parity_corners_edges']


def test_two_swapped_corners_are_fine_on_two():
    # the pocket cube has no permutation condition at all
    spec = CubeSpec(2)
    config = decompose(solved_state(spec))
    perm = list(config.corner_perm)
    perm[0], perm[1] = perm[1], perm[0]
    state = compose(config.__class__(**{**config.__dict__,
                                        'corner_perm': tuple(perm)}))
    assert is_solvable(state)


def test_orbit_class_count_matches_closed_form():
    for n in range(2, 31):
        assert orbit_class_count(CubeSpec(n)) == counting.orbit_count(n)
    assert orbit_class_count(CubeSpec(2)) == 3
    assert orbit_class_count(CubeSpec(3)) == 12
    assert orbit_class_count(CubeSpec(4)) == 100663296


def test_every_generator_keeps_the_first_law():
    '''Each legal slab quarter turn, read on the slots alone, keeps every
    relation of the first law, for n = 2..30. Every slot's positions land
    on a rotation r of its image slot's positions; the r sum to 0 mod 3
    on corners and 0 mod 2 on single edges and are all 0 on wings. The
    single edges and every diagonal centre orbit move with the corner
    sign, and an off-diagonal orbit (i, j) with the corner sign times the
    wing signs at depths i and j, where a central depth adds no factor.
    Since every reachable state is a product of these turns, this
    certifies the law's necessity exactly.'''
    for n in range(2, 31):
        spec = CubeSpec(n)
        orbits = build_atlas(spec).orbits
        slot_of = [{frozenset(slot.positions): k
                    for k, slot in enumerate(orbit.slots)}
                   for orbit in orbits]
        for move in legal_slab_moves(spec):
            perm = sticker_permutation(spec, move)
            signs = {}
            for orbit, lookup in zip(orbits, slot_of):
                action, turns = [], []
                for slot in orbit.slots:
                    moved = tuple(perm[p] for p in slot.positions)
                    image = lookup[frozenset(moved)]
                    action.append(image)
                    turns.append(orbit.slots[image].rotations.index(moved))
                signs[orbit.family, orbit.key] = permutation_sign(action)
                modulus = {'corner': 3, 'single': 2}.get(orbit.family)
                if modulus:
                    assert sum(turns) % modulus == 0, (n, move, orbit.name)
                elif orbit.family == 'coupled':
                    assert not any(turns), (n, move, orbit.name)
            corner = signs['corner', None]

            def wing(depth):
                if depth == spec.central_depth:
                    return 1
                return signs['coupled', depth]
            for (family, key), sign in signs.items():
                if family in ('single', 'center_corner'):
                    assert sign == corner, (n, move, family, key)
                elif family == 'center_edge':
                    i, j = key
                    assert sign == corner * wing(i) * wing(j), (n, move, key)


def test_scrambles_stay_solvable():
    for n in (2, 3, 4, 5):
        spec = CubeSpec(n)
        rng = random.Random(7 * n)
        alphabet = legal_slab_moves(spec, False, (1, 2, 3))
        moves = tuple(rng.choice(alphabet) for _ in range(40))
        state = apply_sequence(solved_state(spec), moves)
        assert is_solvable(state)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2 ** 32))
def test_valid_sampler_passes_the_law(n, seed):
    state = random_valid_configuration(CubeSpec(n), seed=seed)
    assert check_validity(decompose(state)).valid


def test_uniform_sampler_hits_both_verdicts():
    spec = CubeSpec(3)
    verdicts = {is_solvable(random_configuration(spec, seed=s))
                for s in range(40)}
    assert verdicts == {True, False}


def test_samplers_are_seed_deterministic():
    spec = CubeSpec(4)
    assert random_configuration(spec, seed=5) == \
        random_configuration(spec, seed=5)
    assert random_valid_configuration(spec, seed=5) == \
        random_valid_configuration(spec, seed=5)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32))
def test_every_condition_is_a_move_invariant(n, seed):
    """Legal moves never change any per-condition verdict, valid or not."""
    spec = CubeSpec(n)
    state = random_configuration(spec, seed=seed)
    before = [(c.condition, c.ok)
              for c in check_validity(decompose(state)).conditions]
    for move in legal_slab_moves(spec, False, (1,)):
        moved = decompose(apply_move(state, move))
        after = [(c.condition, c.ok)
                 for c in check_validity(moved).conditions]
        assert after == before
