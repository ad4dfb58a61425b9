"""Configuration tuple tests: marking scheme, decompose/compose round trips."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from cubology.cube_model import (
    COLORS,
    CubeSpec,
    CubeState,
    apply_move,
    apply_sequence,
    legal_slab_moves,
    parse_move_sequence,
    solved_state,
)
from cubology import decomposition
from cubology.decomposition import (
    ConfigTuple,
    NotAConfiguration,
    Orbit,
    OrbitAtlas,
    ShapeMismatch,
    Slot,
    _edge_marking,
    build_atlas,
    compose,
    decompose,
    identity_tuple,
    permutation_sign,
    validate_shape,
)
from cubology.cubology_law import (
    check_validity,
    random_configuration,
    random_valid_configuration,
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



@pytest.mark.parametrize('n', range(2, 8))
def test_kept_reads_give_the_tuples_of_fresh_reads(n):
    """decompose with one reads dict kept across states, as a solve
    keeps it across its stages, returns what a fresh decompose does."""
    spec = CubeSpec(n)
    rng = random.Random(n)
    moves = legal_slab_moves(spec, False, (1, 2, 3))
    reads = {}
    # One move apart, most orbits keep their stickers and their read.
    state = solved_state(spec)
    for _ in range(30):
        assert decompose(state, reads) == decompose(state)
        state = apply_move(state, rng.choice(moves))
    for seed in range(3):
        state = random_configuration(spec, seed)
        assert decompose(state, reads) == decompose(state)
    # Behind an odd corner swap, centres showing the solved colours must
    # take the odd sign: same stickers as the kept solved read, but the
    # other required sign.
    config = identity_tuple(spec)
    config.corner_perm = (1, 0) + config.corner_perm[2:]
    swapped = compose(config)
    decompose(solved_state(spec), reads)
    assert decompose(swapped, reads) == decompose(swapped)

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


@pytest.mark.parametrize('entry', [[0], 'a', None])
def test_a_permutation_entry_that_is_no_slot_is_a_shape_mismatch(entry):
    # Unhashable or unorderable entries included: they are no slot index.
    good = identity_tuple(CubeSpec(3))
    bad = ConfigTuple(**{**vars(good),
                         'corner_perm': (entry,) + good.corner_perm[1:]})
    for function in (validate_shape, compose, check_validity):
        with pytest.raises(ShapeMismatch,
                           match='corners images are not a permutation'):
            function(bad)


def test_compose_rejects_an_atlas_leaving_a_position_unpainted(monkeypatch):
    # A copy of the 3-cube's atlas whose first corner slot lists one
    # position twice, so that no slot lists the position it replaced.
    spec = CubeSpec(3)
    atlas = build_atlas(spec)
    corners = atlas.orbit('corner')
    first = corners.slots[0]
    a, b, _ = first.positions
    broken = Orbit('corner', None, (Slot((a, b, b), first.colors),
                                    *corners.slots[1:]))
    copy = OrbitAtlas(spec, (broken, *atlas.orbits[1:]),
                      atlas.fixed_centers)
    monkeypatch.setattr(decomposition, '_atlas_of', lambda n: copy)
    with pytest.raises(AssertionError, match='left a position unpainted'):
        compose(identity_tuple(spec))


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


# sha256 over what decompose makes of sampled states and deterministic
# corruptions of them (repr of the tuple, or the error's name and
# message), per size; recorded before decompose read its orbits through
# per-orbit tables, so the tuples and every fault message, in the same
# precedence, stay byte-identical.
DECOMPOSE_DIGEST = {
    2: '4a7f5ba67880c41280375fb8da60ff91bad9cc85e77fb3ac4141bbb338db61a1',
    3: 'b4f4aaea5258282a88554fb9f6305cc63710e0ee77c39b0cb9fc4a27b02b51c5',
    4: '08c5c403a4f124410790466749ad4e34efcbfc0e59af85864dca9e24525aa189',
    5: '901c1ffc9e530ae5733f1ef428654f35a39d3a06d8e4a0a709caf7f6d800637b',
    6: '0c995468f4d4ba675f2afa971fb5b5b1857bd06bb559963e2c2c563e0fb40b9e',
    7: 'd42fadb0754c3852a0b763cbd321f16c55e9cca674b1b1792675924db7248f94',
    8: '63a4960c040ba51c226153c992477e6cdbd33436990d225f899ca75c3c9cfaf2',
    9: 'a4f5e783d6fffcdfff87f02e8908e0f57c653bcafd6c184bc114b804b358e28e',
    10: '678fe4b051c75705aa16cb8b4657cdc49164b738c4d256f207042890e8fd9eb5',
    11: '825a79755e1ae6e9c8dcf25ac03cfd5eb8bcc27bc073d664b808a4e2d26708c7',
}


def _corruptions(state, seed):
    '''One to three random sticker swaps of the state and, every 7th
    seed, one sticker repainted.'''
    rng = random.Random(seed * 100 + state.n)
    stickers = list(state.stickers)
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(len(stickers)), 2)
        stickers[a], stickers[b] = stickers[b], stickers[a]
    yield CubeState(state.n, ''.join(stickers))
    if seed % 7 == 0:
        stickers = list(state.stickers)
        p = rng.randrange(len(stickers))
        stickers[p] = rng.choice([c for c in COLORS if c != stickers[p]])
        yield CubeState(state.n, ''.join(stickers))


def _outcome(state):
    try:
        return repr(decompose(state))
    except NotAConfiguration as error:
        return type(error).__name__ + str(error)


@pytest.mark.parametrize('n', sorted(DECOMPOSE_DIGEST))
def test_decompose_outputs_and_errors_match_digest(n):
    spec = CubeSpec(n)
    digest = hashlib.sha256()
    for sampler in (random_configuration, random_valid_configuration):
        for seed in range(60):
            state = sampler(spec, seed)
            for case in (state, *_corruptions(state, seed)):
                digest.update(_outcome(case).encode())
    assert digest.hexdigest() == DECOMPOSE_DIGEST[n]


def _swapped(state, *pairs):
    stickers = list(state.stickers)
    for a, b in pairs:
        stickers[a], stickers[b] = stickers[b], stickers[a]
    return CubeState(state.n, ''.join(stickers))


def _showing(state, orbit, color):
    '''A position of a one-sticker orbit that shows the colour.'''
    return next(slot.positions[0] for slot in orbit.slots
                if state.stickers[slot.positions[0]] == color)


def _fault_cases():
    '''(state, message) for four faults that keep every colour count,
    each built on the solved 5-cube by swapping stickers with a later
    orbit.'''
    solved = solved_state(CubeSpec(5))
    atlas = build_atlas(solved.spec)
    wings = atlas.orbit('coupled', 2)
    diagonal, last = atlas.orbit('center_corner', 2), atlas.orbits[-1]
    lead, trail = wings.slots[0].colors
    other = next(slot for slot in wings.slots
                 if not set(slot.colors) & {lead, trail})
    yield (_swapped(solved, (wings.slots[0].positions[1],
                             _showing(solved, last, lead))),
           "slot 0 of the coupled orbit 2 shows 'W' twice")
    yield (_swapped(solved,
                    (other.positions[0], _showing(solved, last, lead)),
                    (other.positions[1], _showing(solved, last, trail))),
           "wing pair ['B', 'W'] appears 3 times in the coupled orbit 2, "
           'expected 2')
    first = diagonal.slots[0]
    foreign = next(slot.positions[0] for slot in last.slots
                   if slot.colors[0] != first.colors[0])
    yield (_swapped(solved, (first.positions[0], foreign)),
           'diagonal centre orbit 2 has 5 stickers of colour O, expected 4')
    yield (_swapped(solved, (atlas.fixed_centers[0][0],
                             _showing(solved, diagonal, 'G'))),
           'immobile centre at position 12 shows G, expected W')


@pytest.mark.parametrize('case', range(4))
def test_fault_messages_name_the_first_fault(case):
    state, message = list(_fault_cases())[case]
    with pytest.raises(NotAConfiguration) as error:
        decompose(state)
    assert str(error.value) == message


@pytest.mark.parametrize('n', range(4, 11))
def test_wing_twins_showing_one_lead_colour(n):
    # Flip one wing of a twin pair in place, so both twins' slots show
    # the same lead colour. The canonical reading keeps each home in its
    # own slot (the lower home on the lower slot) and puts the bit on
    # the slot whose occupant leads with the other twin's colour.
    spec = CubeSpec(n)
    solved = solved_state(spec)
    for orbit in build_atlas(spec).orbits:
        if orbit.family != 'coupled':
            continue
        slots = orbit.slots
        for home, slot in enumerate(slots):
            twin = next(t for t, other in enumerate(slots)
                        if other.colors == slot.colors[::-1])
            if twin < home:
                continue
            for flipped in (home, twin):
                state = _swapped(solved, slots[flipped].positions)
                config = decompose(state)
                perm, bits = config.orbit_fields(orbit)
                assert perm == tuple(range(len(slots)))
                assert [s for s, bit in enumerate(bits) if bit] == [flipped]
                assert compose(config) == state
