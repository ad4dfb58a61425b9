"""Solvability law tests: condition inventory, verdicts, samplers."""

import dataclasses
import hashlib
import math
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
    ConfigTuple,
    build_atlas,
    compose,
    decompose,
    permutation_sign,
    validate_shape,
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
    '''The GF(2) count also says that the co-rank of the generator sign
    vectors is the number of orbits the atlas's sign table ties: the
    table misses no tie the moves force and adds none.'''
    for n in range(2, 31):
        spec = CubeSpec(n)
        atlas = build_atlas(spec)
        count = orbit_class_count(spec)
        assert count == counting.orbit_count(n)
        assert count == 3 * 2 ** (
            len(atlas.sign_sources) + 24 * len(atlas.coupled_orbit_indices)
        ) * (1 + n % 2)
    assert orbit_class_count(CubeSpec(2)) == 3
    assert orbit_class_count(CubeSpec(3)) == 12
    assert orbit_class_count(CubeSpec(4)) == 100663296


def test_every_generator_keeps_the_first_law():
    '''Each legal slab quarter turn, read on the slots alone, keeps every
    relation of the first law, for n = 2..30. Every slot's positions land
    on a rotation of its image slot's positions, so its home piece lands
    there with an orientation r, read from what the image slot then
    shows; the r sum to 0 mod 3 on corners and 0 mod 2 on single edges
    and are all 0 on wings. The single edges and every diagonal centre
    orbit move with the corner sign, and an off-diagonal orbit (i, j)
    with the corner sign times the wing signs at depths i and j, where a
    central depth adds no factor. The atlas's sign table says the same:
    each orbit in it moves with the product of its sources' signs, and
    the orbits it lacks are exactly the corners and the wings.
    Since every reachable state is a product of these turns, this
    certifies the law's necessity exactly.'''
    for n in range(2, 31):
        spec = CubeSpec(n)
        atlas = build_atlas(spec)
        orbits = atlas.orbits
        assert [o for o in orbits if o not in atlas.sign_sources] == [
            o for o in orbits if o.family in ('corner', 'coupled')]
        slot_of = [{frozenset(slot.positions): k
                    for k, slot in enumerate(orbit.slots)}
                   for orbit in orbits]
        for move in legal_slab_moves(spec):
            perm = sticker_permutation(spec, move)
            signs = {}
            for orbit, lookup in zip(orbits, slot_of):
                action, turns = [], []
                for home, slot in enumerate(orbit.slots):
                    moved = tuple(perm[p] for p in slot.positions)
                    image = lookup[frozenset(moved)]
                    action.append(image)
                    landed = dict(zip(moved, slot.colors))
                    shown = ''.join(map(landed.__getitem__,
                                        orbit.slots[image].positions))
                    turns.append(orbit.shows[home].index(shown))
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
            for orbit, sources in atlas.sign_sources.items():
                assert signs[orbit.family, orbit.key] == math.prod(
                    signs[s.family, s.key] for s in sources), (n, move,
                                                               orbit.name)


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


# ConfigTuple fields of each family: permutation, then orientations.
FIELD_NAMES = {
    'corner': ('corner_perm', 'corner_twists'),
    'single': ('single_edge_perm', 'single_edge_flips'),
    'coupled': ('coupled_perms', 'coupled_orientations'),
    'center_corner': ('center_corner_perms', None),
    'center_edge': ('center_edge_perms', None),
}

# A key no cube up to n=7 has, per field.
ABSENT_KEY = {'coupled_perms': 99, 'coupled_orientations': 99,
              'center_corner_perms': 99, 'center_edge_perms': (99, 98)}

# sha256 over what validate_shape, compose and check_validity make of
# malformed ConfigTuples (the error's name and message, or the cube's
# size, the composed stickers and the verdicts), per size; recorded
# before compose, the shape checks and the law's signs became
# table-driven, so every outcome, in the same precedence, stays
# byte-identical.
MALFORMED_DIGEST = {
    2: '685b70e19650ec8b892f2d060034104a61ff043cbfcb87eafa1474e09a01ff44',
    3: 'c9855db19e5a218c2993934e691c63ca176388d47b14a2bf8e2c0ed0f2778cd9',
    4: '1ee1418bcba320c1402c6ab5fb8a589e254fbe818eba3f8bddcfdd9a71572c84',
    5: '0dde62addd3ec7fcb07d0bc64a2c288858d2e909370239f0665e067cff0a0e86',
    6: '72fc0f97f33f473672cab9f6d8aeb674f9e26e3a187fb0138180808c48e4423f',
    7: '88c3168d03169a8ae6a6cca5c2947624ebd78123c89359b7668ddb88880791e4',
}


def _replaced(config, orbit, which, value):
    '''A copy of the tuple with one orbit's permutation (which = 0) or
    orientation vector (which = 1) replaced; value None drops the entry
    from a keyed family.'''
    config = dataclasses.replace(config, **{
        name: dict(getattr(config, name))
        for name in ('coupled_perms', 'coupled_orientations',
                     'center_corner_perms', 'center_edge_perms')})
    name = FIELD_NAMES[orbit.family][which]
    if orbit.key is None:
        setattr(config, name, value)
    elif value is None:
        del getattr(config, name)[orbit.key]
    else:
        getattr(config, name)[orbit.key] = value
    return config


def _malformed(config):
    '''Deterministic malformations of a well-formed tuple, orbit by
    orbit, then one extra entry per field.'''
    yield dict(vars(config))
    atlas = build_atlas(CubeSpec(config.n))
    for orbit in atlas.orbits:
        perm, orientation = config.orbit_fields(orbit)
        swapped = (perm[1], perm[0]) + perm[2:]
        repeated = (perm[0], perm[0]) + perm[2:]
        for value in (perm[:-1], perm + (len(perm),), repeated, list(perm),
                      swapped, None):
            yield _replaced(config, orbit, 0, value)
        if orientation is None:
            continue
        for bad in (orbit.turns, -1, 0.5, 1.0, [0]):
            yield _replaced(config, orbit, 1, (bad,) + orientation[1:])
        for value in (orientation[:-1], list(orientation), None):
            yield _replaced(config, orbit, 1, value)
    for names in FIELD_NAMES.values():
        for name in filter(None, names):
            value = getattr(config, name)
            if isinstance(value, dict):
                entry = next(iter(value.values()), (0,) * 24)
                yield dataclasses.replace(
                    config, **{name: {**value, ABSENT_KEY[name]: entry}})
            elif value is None:
                yield dataclasses.replace(config, **{name: (0,) * 12})


def _law_outcomes(config):
    outcomes = []
    for function in (validate_shape, compose, check_validity):
        try:
            result = function(config)
        except Exception as error:
            outcomes.append('%s: %s' % (type(error).__name__, error))
            continue
        outcomes.append(result.stickers if function is compose
                        else repr(result) if function is check_validity
                        else 'atlas %d' % result.spec.n)
    return outcomes


@pytest.mark.parametrize('n', sorted(MALFORMED_DIGEST))
def test_malformed_tuples_match_digest(n):
    digest = hashlib.sha256()
    for seed in range(2):
        config = decompose(random_configuration(CubeSpec(n), seed))
        assert isinstance(config, ConfigTuple)
        for case in _malformed(config):
            for outcome in _law_outcomes(case):
                digest.update(outcome.encode())
    assert digest.hexdigest() == MALFORMED_DIGEST[n]
