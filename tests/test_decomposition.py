"""Configuration tuple tests: marking scheme, decompose/compose round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from cubology.cube_model import (
    CubeSpec,
    apply_sequence,
    legal_slab_moves,
    parse_move_sequence,
    solved_state,
)
from cubology.decomposition import (
    ConfigTuple,
    NotAConfiguration,
    ShapeMismatch,
    _edge_marking,
    build_atlas,
    compose,
    decompose,
    identity_tuple,
    permutation_sign,
)

# Which face of each single-edge piece carries the mark. Chosen once and
# shared by the solver and the law; frozen here so a refactor cannot
# silently change orientation bookkeeping.
MARKED_FACE = {
    ('B', 'D'): 'D', ('B', 'L'): 'B', ('B', 'R'): 'B', ('B', 'U'): 'U',
    ('D', 'F'): 'D', ('D', 'L'): 'L', ('D', 'R'): 'R', ('F', 'L'): 'F',
    ('F', 'R'): 'F', ('F', 'U'): 'U', ('L', 'U'): 'L', ('R', 'U'): 'R',
}

F_ON_THREE = {
    'n': 3,
    'corner_perm': [0, 1, 3, 5, 2, 4, 6, 7],
    'corner_twists': [0, 0, 2, 1, 1, 2, 0, 0],
    'single_edge_perm': [0, 5, 2, 3, 1, 10, 6, 7, 8, 9, 4, 11],
    'single_edge_flips': [0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0],
    'coupled_perms': {}, 'coupled_orientations': {},
    'center_corner_perms': {}, 'center_edge_perms': {},
}

INNER_R_ON_FOUR = {
    'n': 4,
    'corner_perm': [0, 1, 2, 3, 4, 5, 6, 7],
    'corner_twists': [0, 0, 0, 0, 0, 0, 0, 0],
    'single_edge_perm': None, 'single_edge_flips': None,
    'coupled_perms': {'2': [0, 1, 2, 16, 4, 5, 6, 7, 8, 9, 10, 3,
                            12, 13, 14, 15, 23, 17, 18, 19, 20, 21, 22, 11]},
    'coupled_orientations': {'2': [0] * 24},
    'center_corner_perms': {'2': [0, 2, 16, 18, 4, 5, 6, 7, 1, 3, 8, 10,
                                  12, 13, 14, 15, 17, 19, 21, 23, 9, 11,
                                  20, 22]},
    'center_edge_perms': {},
}

F_ON_TWO = {
    'n': 2,
    'corner_perm': [0, 1, 3, 5, 2, 4, 6, 7],
    'corner_twists': [0, 0, 2, 1, 1, 2, 0, 0],
    'single_edge_perm': None, 'single_edge_flips': None,
    'coupled_perms': {}, 'coupled_orientations': {},
    'center_corner_perms': {}, 'center_edge_perms': {},
}


def scrambled(spec, text):
    return apply_sequence(solved_state(spec), parse_move_sequence(text, spec))


def random_word(spec, rng, length):
    alphabet = legal_slab_moves(spec, False, (1, 2, 3))
    return tuple(rng.choice(alphabet) for _ in range(length))


def test_edge_marking_golden():
    marking = {tuple(sorted(k)): v for k, v in _edge_marking().items()}
    assert marking == MARKED_FACE


@pytest.mark.parametrize('n', [3, 5, 7])
def test_outer_turns_flip_every_single_edge_they_move(n):
    # The property the marking is chosen for: each outer face quarter
    # turn flips exactly the four single edges it moves, and an inner
    # slab moves and flips none.
    spec = CubeSpec(n)
    for move in legal_slab_moves(spec):
        config = decompose(apply_sequence(solved_state(spec), (move,)))
        moved = {slot for home, slot in enumerate(config.single_edge_perm)
                 if slot != home}
        flipped = {slot for slot, flip in enumerate(config.single_edge_flips)
                   if flip}
        assert flipped == moved
        assert len(moved) == (4 if move.depth == 1 else 0)


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((1, 2, 0)) == 1
    assert permutation_sign(tuple(range(12))) == 1


def test_decompose_solved_is_identity():
    for n in range(2, 8):
        spec = CubeSpec(n)
        config = decompose(solved_state(spec))
        assert config == identity_tuple(spec)
        assert config.is_identity()


def test_front_turn_golden_on_three():
    config = decompose(scrambled(CubeSpec(3), 'F'))
    assert config.to_json_dict() == F_ON_THREE


def test_front_turn_golden_on_two():
    config = decompose(scrambled(CubeSpec(2), 'F'))
    assert config.to_json_dict() == F_ON_TWO


def test_inner_right_slab_golden_on_four():
    config = decompose(scrambled(CubeSpec(4), '2R'))
    assert config.to_json_dict() == INNER_R_ON_FOUR


def test_perm_convention_sends_home_to_current_slot():
    # F four-cycles the front corner slots 2 -> 3 -> 5 -> 4 -> 2, so the
    # piece whose home is 2 now sits in slot 3, and so on around the cycle.
    config = decompose(scrambled(CubeSpec(3), 'F'))
    assert config.corner_perm[2] == 3
    assert config.corner_perm[3] == 5
    assert config.corner_perm[5] == 4
    assert config.corner_perm[4] == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_compose_after_decompose_restores_state(n, rng):
    spec = CubeSpec(n)
    state = apply_sequence(solved_state(spec), random_word(spec, rng, 15))
    assert compose(decompose(state)) == state


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.randoms(use_true_random=False))
def test_tuple_round_trip_without_center_orbits(n, rng):
    # With no large orbits the sticker state determines the tuple exactly.
    spec = CubeSpec(n)
    state = apply_sequence(solved_state(spec), random_word(spec, rng, 15))
    config = decompose(state)
    assert decompose(compose(config)) == config


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 6), st.randoms(use_true_random=False))
def test_canonical_labeling_is_idempotent(n, rng):
    # Identical center stickers make the tuple canonical rather than unique;
    # one decompose/compose pass must be a fixed point of the next.
    spec = CubeSpec(n)
    state = apply_sequence(solved_state(spec), random_word(spec, rng, 15))
    config = decompose(state)
    assert decompose(compose(config)) == config


def test_rejects_repainted_sticker():
    state = solved_state(CubeSpec(3))
    stickers = list(state.stickers)
    stickers[4] = 'G'  # now seven green stickers and eight white
    broken = type(state)(n=3, stickers=tuple(stickers))
    with pytest.raises(NotAConfiguration):
        decompose(broken)


def test_rejects_impossible_corner():
    state = solved_state(CubeSpec(2))
    stickers = list(state.stickers)
    # swap two stickers of one corner so it shows W and Y on one piece
    a = state.stickers.index('W')
    b = state.stickers.index('Y')
    stickers[a], stickers[b] = stickers[b], stickers[a]
    broken = type(state)(n=2, stickers=tuple(stickers))
    with pytest.raises(NotAConfiguration):
        decompose(broken)


def test_compose_rejects_wrong_shape():
    spec = CubeSpec(3)
    good = decompose(solved_state(spec))
    bad = ConfigTuple(
        n=3,
        corner_perm=(0, 1, 2),  # wrong length
        corner_twists=good.corner_twists,
        single_edge_perm=good.single_edge_perm,
        single_edge_flips=good.single_edge_flips,
        coupled_perms=good.coupled_perms,
        coupled_orientations=good.coupled_orientations,
        center_corner_perms=good.center_corner_perms,
        center_edge_perms=good.center_edge_perms)
    with pytest.raises(ShapeMismatch):
        compose(bad)


def test_compose_rejects_non_permutation():
    spec = CubeSpec(3)
    good = decompose(solved_state(spec))
    bad = ConfigTuple(
        n=3,
        corner_perm=(0, 0, 2, 3, 4, 5, 6, 7),
        corner_twists=good.corner_twists,
        single_edge_perm=good.single_edge_perm,
        single_edge_flips=good.single_edge_flips,
        coupled_perms=good.coupled_perms,
        coupled_orientations=good.coupled_orientations,
        center_corner_perms=good.center_corner_perms,
        center_edge_perms=good.center_edge_perms)
    with pytest.raises(ShapeMismatch):
        compose(bad)


def test_atlas_orbit_inventory():
    atlas = build_atlas(CubeSpec(6))
    assert len(atlas.orbit('corner').slots) == 8
    with pytest.raises(ValueError):
        atlas.orbit('single')
    assert atlas.coupled_orbit_indices == (2, 3)
    assert atlas.center_corner_indices == (2, 3)
    assert atlas.center_edge_labels == ((2, 3), (3, 2))
    atlas = build_atlas(CubeSpec(7))
    assert len(atlas.orbit('single').slots) == 12
    assert atlas.coupled_orbit_indices == (2, 3)
    assert atlas.center_corner_indices == (2, 3)
    assert atlas.center_edge_labels == ((2, 3), (2, 4), (3, 2), (3, 4))
    for family in ('coupled', 'center_corner'):
        for key in (2, 3):
            assert len(atlas.orbit(family, key).slots) == 24
