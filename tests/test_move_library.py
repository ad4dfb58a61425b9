"""Macro library tests: frozen cycle structures and contract checks."""

import hashlib

import pytest

from cubology.cube_model import (
    CubeSpec,
    apply_sequence,
    invert_sequence,
    parse_move_sequence,
    sequence_permutation,
    solved_state,
)
from cubology.decomposition import build_atlas, decompose, permutation_sign
from cubology.move_library import (
    EffectDescriptor,
    EvenCube,
    IndexOutOfRange,
    OddCube,
    all_named_moves,
    center_three_cycle,
    corner_three_cycle,
    corner_twist_pair,
    coupled_edge_parity_move,
    coupled_edge_three_cycle,
    single_edge_flip_pair,
    single_edge_three_cycle,
    verify_cycle_structure,
)

NAMED_MOVE_COUNTS = {2: 2, 3: 4, 4: 5, 5: 7, 6: 10, 7: 12}

# sha256 of the repr of every call in _builder_grid for n=2..10 with its
# outcome: the NamedMove it returns, or the name of the error it raises.
BUILDER_GRID_GOLDEN = \
    '8c68162b68bcda643a9abdb91e7fb1b8222b6f2d59792b10673a727988732bb6'


def slot_cycle(spec, named, family, key=None):
    atlas = build_atlas(spec)
    action = atlas.slot_action(
        sequence_permutation(spec, named.sequence), atlas.orbit(family, key))
    return {s: t for s, t in enumerate(action) if t != s}


def effect_of(spec, named):
    return decompose(apply_sequence(solved_state(spec), named.sequence))


def test_corner_three_cycle_frozen_structure():
    spec = CubeSpec(3)
    named = corner_three_cycle(spec)
    assert slot_cycle(spec, named, 'corner') == {3: 5, 4: 3, 5: 4}
    config = effect_of(spec, named)
    assert config.corner_perm == (0, 1, 2, 5, 3, 4, 6, 7)
    assert {s: v for s, v in enumerate(config.corner_twists) if v} == \
        {3: 1, 5: 2}
    assert config.single_edge_perm == tuple(range(12))
    assert not any(config.single_edge_flips)


def test_corner_three_cycle_exists_on_all_sizes():
    for n in range(2, 8):
        named = corner_three_cycle(CubeSpec(n))
        report = verify_cycle_structure(
            CubeSpec(n), named.sequence, named.expected_effect)
        assert report.ok, report.failing()


def test_single_edge_three_cycle_frozen_structure():
    spec = CubeSpec(3)
    named = single_edge_three_cycle(spec)
    assert slot_cycle(spec, named, 'single') == {1: 5, 2: 1, 5: 2}
    config = effect_of(spec, named)
    assert config.corner_perm == tuple(range(8))
    assert not any(config.corner_twists)
    # flips may ride along on the moved slots, but nowhere else and only
    # in pairs
    flipped = {s for s, v in enumerate(config.single_edge_flips) if v}
    assert flipped <= {1, 2, 5}
    assert len(flipped) % 2 == 0
    assert flipped == {1, 5}


def test_single_edge_macros_need_an_odd_cube():
    with pytest.raises(EvenCube):
        single_edge_three_cycle(CubeSpec(4))
    with pytest.raises(EvenCube):
        single_edge_flip_pair(CubeSpec(6))


def test_coupled_three_cycle_frozen_structure():
    spec = CubeSpec(4)
    named = coupled_edge_three_cycle(spec, 2)
    assert slot_cycle(spec, named, 'coupled', 2) == {1: 14, 10: 1, 14: 10}
    config = effect_of(spec, named)
    assert not any(config.coupled_orientations[2])
    assert config.corner_perm == tuple(range(8))


def test_center_three_cycle_frozen_structures():
    cases = [
        (4, 2, 2, 'center_corner', 2, {3: 11, 10: 3, 11: 10}),
        (7, 2, 3, 'center_edge', (2, 3), {3: 11, 10: 3, 11: 10}),
        (5, 2, 3, 'center_edge', (2, 3), {3: 11, 9: 3, 11: 9}),
        (6, 3, 2, 'center_edge', (3, 2), {2: 11, 10: 2, 11: 10}),
    ]
    for n, i, j, family, key, expected in cases:
        spec = CubeSpec(n)
        named = center_three_cycle(spec, i, j)
        cycle = slot_cycle(spec, named, family, key)
        assert set(cycle) == set(expected), (n, i, j, cycle)
        # exact orientation of the cycle
        assert cycle == expected or \
            cycle == {v: k for k, v in expected.items()}, (n, i, j, cycle)


def test_center_cycle_on_the_middle_column_uses_central_slab():
    # on a 5-cube the (2, 3) column sits on the central slab, which is not
    # a legal move by itself; the macro substitutes two opposite slabs
    spec = CubeSpec(5)
    named = center_three_cycle(spec, 2, 3)
    report = verify_cycle_structure(spec, named.sequence, named.expected_effect)
    assert report.ok
    faces = {m.face for m in named.sequence}
    depths = {m.depth for m in named.sequence}
    assert spec.central_depth not in depths or len(faces) > 1


def test_corner_twist_pair_frozen_structure():
    spec = CubeSpec(3)
    named = corner_twist_pair(spec)
    config = effect_of(spec, named)
    assert config.corner_perm == tuple(range(8))
    assert {s: v for s, v in enumerate(config.corner_twists) if v} == \
        {2: 1, 3: 2}
    assert sum(config.corner_twists) % 3 == 0


def test_single_edge_flip_pair_frozen_structure():
    spec = CubeSpec(3)
    named = single_edge_flip_pair(spec)
    config = effect_of(spec, named)
    assert config.single_edge_perm == tuple(range(12))
    assert [s for s, v in enumerate(config.single_edge_flips) if v] == [1, 6]
    assert config.corner_perm == tuple(range(8))


def test_parity_move_is_an_odd_coupled_permutation():
    spec = CubeSpec(4)
    named = coupled_edge_parity_move(spec, 2)
    config = effect_of(spec, named)
    assert permutation_sign(config.coupled_perms[2]) == -1
    assert config.corner_perm == tuple(range(8))
    assert permutation_sign(config.center_corner_perms[2]) == 1
    # squaring it lands back in the even part
    doubled = named.sequence + named.sequence
    squared = decompose(apply_sequence(solved_state(spec), doubled))
    assert permutation_sign(squared.coupled_perms[2]) == 1


def test_parity_move_does_not_exist_on_odd_cubes():
    with pytest.raises(OddCube):
        coupled_edge_parity_move(CubeSpec(5), 2)


def test_orbit_indices_are_checked():
    with pytest.raises(IndexOutOfRange):
        coupled_edge_three_cycle(CubeSpec(4), 3)
    with pytest.raises(IndexOutOfRange):
        center_three_cycle(CubeSpec(4), 2, 3)
    with pytest.raises(IndexOutOfRange):
        center_three_cycle(CubeSpec(6), 1, 2)


def test_three_cycles_have_order_three():
    for n in (3, 4):
        spec = CubeSpec(n)
        named = corner_three_cycle(spec)
        tripled = named.sequence + named.sequence + named.sequence
        assert apply_sequence(solved_state(spec), tripled) == solved_state(spec)


def test_double_face_turn_word_swaps_two_edge_pairs():
    """U2 D2 F2 U2 D2 B2 exchanges two pairs of single edges and nothing else."""
    spec = CubeSpec(3)
    word = parse_move_sequence('U2 D2 F2 U2 D2 B2', spec)
    config = decompose(apply_sequence(solved_state(spec), word))
    assert config.corner_perm == tuple(range(8))
    assert not any(config.corner_twists)
    assert config.single_edge_perm == (0, 1, 2, 3, 5, 4, 6, 7, 9, 8, 10, 11)
    assert not any(config.single_edge_flips)


def test_verify_cycle_structure_rejects_a_plain_face_turn():
    spec = CubeSpec(3)
    descriptor = corner_three_cycle(spec).expected_effect
    report = verify_cycle_structure(
        spec, parse_move_sequence('F', spec), descriptor)
    assert not report.ok
    details = [c[2] for c in report.failing()]
    assert any('4 slots move' in d for d in details)


def test_words_moving_immobile_centres_fail_one_decompose_check():
    """On an odd cube a word turning a central slab alone leaves the
    immobile centres displaced; every twist, flip and odd-permutation
    check reports that as one failing check, carrying decompose's
    message, rather than raising."""
    spec = CubeSpec(5)
    descriptors = (EffectDescriptor('twist_pair', 'corner'),
                   EffectDescriptor('flip_pair', 'single'),
                   EffectDescriptor('odd_permutation', 'coupled', 2))
    messages = {'M': 'immobile centre at position 12 shows B, expected W',
                'E': 'immobile centre at position 37 shows B, expected O',
                'S': 'immobile centre at position 12 shows O, expected W',
                'M U': 'immobile centre at position 12 shows B, expected W'}
    for text, message in messages.items():
        sequence = parse_move_sequence(text, spec)
        for descriptor in descriptors:
            report = verify_cycle_structure(spec, sequence, descriptor)
            assert report.ok is False
            assert report.checks == (('state decomposes', False, message),)
            assert report.slots == ()


def test_a_missing_orbit_fails_one_check_for_every_kind():
    spec = CubeSpec(4)
    sequence = corner_twist_pair(spec).sequence
    cases = [(EffectDescriptor(kind, 'single'),
              'no single orbit None on a 4-cube')
             for kind in ('twist_pair', 'flip_pair', 'three_cycle')]
    cases += [(EffectDescriptor(kind, 'coupled', 9),
               'no coupled orbit 9 on a 4-cube')
              for kind in ('three_cycle', 'odd_permutation')]
    for descriptor, message in cases:
        report = verify_cycle_structure(spec, sequence, descriptor)
        assert report.ok is False
        assert report.checks == (('orbit action', False, message),)
        assert report.slots == ()


def test_a_moved_family_names_the_slots_it_moves():
    spec = CubeSpec(5)
    sequence = parse_move_sequence('[M,U]', spec)
    report = verify_cycle_structure(spec, sequence,
                                    EffectDescriptor('flip_pair', 'single'))
    assert report.checks[0] == ('family permutation id', False,
                                'slots [0, 1, 2, 6, 11] move')
    perm, _ = decompose(apply_sequence(solved_state(spec), sequence)) \
        .orbit_fields(build_atlas(spec).orbit('single'))
    assert [s for s, t in enumerate(perm) if t != s] == [0, 1, 2, 6, 11]
    named = single_edge_flip_pair(spec)
    assert verify_cycle_structure(
        spec, named.sequence, named.expected_effect).checks[0] == \
        ('family permutation id', True, 'perm fixed')


def test_conjugated_macro_keeps_its_cycle_structure():
    spec = CubeSpec(4)
    core = coupled_edge_three_cycle(spec, 2)
    for setup_text in ('R', "2U F'", "2R 2U"):
        setup = parse_move_sequence(setup_text, spec)
        moved = setup + core.sequence + invert_sequence(setup)
        report = verify_cycle_structure(spec, moved, core.expected_effect)
        assert report.ok, (setup_text, report.failing())


def test_all_named_moves_inventory():
    for n, count in NAMED_MOVE_COUNTS.items():
        moves = all_named_moves(CubeSpec(n))
        assert len(moves) == count
        for named in moves:
            report = verify_cycle_structure(
                CubeSpec(n), named.sequence, named.expected_effect)
            assert report.ok, (n, named.name, report.failing())


def _builder_grid(n):
    '''The indexed builders called with indices -1..n+1, each call with
    the (family, key) of the orbit it names.'''
    indices = range(-1, n + 2)
    for i in indices:
        yield coupled_edge_three_cycle, (i,), ('coupled', i)
        yield coupled_edge_parity_move, (i,), ('coupled', i)
        for j in indices:
            yield center_three_cycle, (i, j), (
                ('center_corner', i) if i == j else ('center_edge', (i, j)))


def test_builders_fail_exactly_where_the_atlas_has_no_orbit():
    digest = hashlib.sha256()
    for n in range(2, 11):
        spec = CubeSpec(n)
        atlas = build_atlas(spec)
        for builder, indices, (family, key) in _builder_grid(n):
            try:
                atlas.orbit(family, key)
                expected = None
            except ValueError:
                expected = IndexOutOfRange
            if builder is coupled_edge_parity_move and n % 2:
                expected = OddCube
            call = (n, builder.__name__, indices)
            try:
                outcome = builder(spec, *indices)
            except (IndexOutOfRange, OddCube) as error:
                assert type(error) is expected, call
                outcome = type(error).__name__
            assert expected is None or isinstance(outcome, str), call
            digest.update(repr((call, outcome)).encode())
    assert digest.hexdigest() == BUILDER_GRID_GOLDEN
