"""Sticker model tests: indexing, permutations, parsing, round trips."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cubology.cube_model import (
    CubeSpec,
    CubeState,
    IllegalDepth,
    MAX_NESTING,
    Move,
    ParseError,
    apply_move,
    apply_sequence,
    format_move_sequence,
    invert_sequence,
    legal_slab_moves,
    local_table,
    parse_move_sequence,
    render_net,
    sequence_permutation,
    solved_state,
    state_from_json_dict,
    state_to_json_dict,
    sticker_index,
    sticker_permutation,
)
from cubology.cubology_law import random_configuration
from cubology.decomposition import build_atlas

R_TURN_ON_THREE = 'WWGWWGWWGOOOOOOOOOGGYGGYGGYRRRRRRRRRWBBWBBWBBYYBYYBYYB'


def specs(lo=2, hi=5):
    return st.integers(lo, hi).map(CubeSpec)


def moves_for(spec, rng_turns=(1, 2, 3)):
    return st.sampled_from(legal_slab_moves(spec, False, rng_turns))


@st.composite
def spec_and_sequence(draw, max_len=12):
    spec = draw(specs())
    moves = draw(st.lists(moves_for(spec), max_size=max_len))
    return spec, tuple(moves)


def test_sticker_index_layout():
    # face-major in the order U L F R B D, then row-major inside the face
    assert sticker_index(3, 'U', 0, 0) == 0
    assert sticker_index(3, 'U', 2, 2) == 8
    assert sticker_index(3, 'L', 0, 0) == 9
    assert sticker_index(3, 'D', 2, 2) == 53
    assert sticker_index(4, 'R', 1, 2) == 3 * 16 + 1 * 4 + 2


def test_solved_state_colors():
    state = solved_state(CubeSpec(3))
    face_colors = [state.stickers[f * 9] for f in range(6)]
    assert face_colors == ['W', 'O', 'G', 'R', 'B', 'Y']
    assert Counter(state.stickers) == {c: 9 for c in 'WOGRBY'}


def test_quarter_turn_of_right_face_matches_hand_trace():
    """A single R on the 3x3x3, validated against a hand-worked net."""
    spec = CubeSpec(3)
    state = apply_move(solved_state(spec), Move('R', 1, 1))
    assert ''.join(state.stickers) == R_TURN_ON_THREE


def test_apply_move_is_destination_map():
    spec = CubeSpec(4)
    state = apply_sequence(
        solved_state(spec), parse_move_sequence('R 2U F', spec))
    move = Move('F', 2, 3)
    perm = sticker_permutation(spec, move)
    moved = apply_move(state, move)
    for i, target in enumerate(perm):
        assert moved.stickers[target] == state.stickers[i]


@pytest.mark.parametrize('n', range(2, 8))
def test_apply_move_follows_sticker_permutation_for_every_move(n):
    spec = CubeSpec(n)
    # a reassembled state, and one whose stickers are all distinct so
    # that no two positions can be confused
    states = (random_configuration(spec, n),
              CubeState(n, ''.join(chr(0x100 + i)
                                   for i in range(spec.sticker_count))))
    for move in legal_slab_moves(spec, True, (1, 2, 3)):
        perm = sticker_permutation(spec, move)
        for state in states:
            moved = apply_move(state, move).stickers
            assert all(moved[perm[i]] == ch
                       for i, ch in enumerate(state.stickers)), move


def test_apply_move_rejects_a_slab_the_cube_lacks():
    spec = CubeSpec(4)
    with pytest.raises(IllegalDepth):
        apply_move(solved_state(spec), Move('U', 3))
    with pytest.raises(IllegalDepth):
        apply_sequence(solved_state(spec), (Move('R'), Move('U', 3)))
    with pytest.raises(IllegalDepth):
        sequence_permutation(spec, (Move('U', 3),))


def test_sequence_permutation_composes_left_to_right():
    spec = CubeSpec(3)
    seq = parse_move_sequence("R U' F2", spec)
    total = sequence_permutation(spec, seq)
    state = apply_sequence(solved_state(spec), seq)
    for i, target in enumerate(total):
        assert state.stickers[target] == solved_state(spec).stickers[i]


def test_move_inverse_and_quarter_turn_order():
    m = Move('U', 2, 1)
    assert m.inverse() == Move('U', 2, 3)
    assert Move('U', 2, 2).inverse() == Move('U', 2, 2)
    spec = CubeSpec(5)
    four = (Move('L', 2, 1),) * 4
    assert apply_sequence(solved_state(spec), four) == solved_state(spec)


def test_legal_slab_moves_counts():
    assert len(legal_slab_moves(CubeSpec(2), False, (1,))) == 6
    assert len(legal_slab_moves(CubeSpec(3), False, (1,))) == 6
    assert len(legal_slab_moves(CubeSpec(4), False, (1,))) == 12
    assert len(legal_slab_moves(CubeSpec(7), False, (1,))) == 18
    # the central slab only exists on odd sizes
    assert len(legal_slab_moves(CubeSpec(3), True, (1,))) == 9
    assert len(legal_slab_moves(CubeSpec(4), True, (1,))) == 12


@settings(max_examples=60, deadline=None)
@given(spec_and_sequence())
def test_sequence_then_inverse_restores_solved(pair):
    spec, seq = pair
    state = apply_sequence(solved_state(spec), seq)
    back = apply_sequence(state, invert_sequence(seq))
    assert back == solved_state(spec)


@settings(max_examples=60, deadline=None)
@given(spec_and_sequence())
def test_moves_permute_stickers_bijectively(pair):
    spec, seq = pair
    state = apply_sequence(solved_state(spec), seq)
    assert Counter(state.stickers) == Counter(solved_state(spec).stickers)
    perm = sequence_permutation(spec, seq)
    assert sorted(perm) == list(range(spec.sticker_count))


@settings(max_examples=60, deadline=None)
@given(spec_and_sequence(), st.integers(0, 2 ** 32))
def test_local_table_applies_the_sequence_to_one_orbit(pair, seed):
    spec, seq = pair
    state = random_configuration(spec, seed)
    after = apply_sequence(state, seq)
    for orbit in build_atlas(spec).orbits:
        positions = orbit.positions
        size = len(positions)
        table = local_table(spec, positions, seq)
        assert table[size:] == bytes(range(size, 256))
        before = [state.stickers[p] for p in positions]
        moved = [after.stickers[p] for p in positions]
        # Each sticker lands where the table sends it, and read back
        # through the inverted table each position shows its sticker.
        assert [moved[table[i]] for i in range(size)] == before
        sources = bytes.maketrans(table, bytes(range(256)))[:size]
        assert [before[i] for i in sources] == moved


def test_parse_plain_and_suffixed_tokens():
    spec = CubeSpec(4)
    seq = parse_move_sequence("2R U' F2 B3", spec)
    assert list(seq) == [
        Move('R', 2, 1), Move('U', 1, 3), Move('F', 1, 2), Move('B', 1, 3)]
    assert format_move_sequence(seq) == "2R U' F2 B'"


def test_parse_groups_expand_to_commutator_and_conjugate():
    spec = CubeSpec(3)
    assert parse_move_sequence('[R, U]', spec) == \
        parse_move_sequence("R U R' U'", spec)
    assert parse_move_sequence('[R: U]', spec) == \
        parse_move_sequence("R U R'", spec)
    assert parse_move_sequence("[R, U]'", spec) == \
        parse_move_sequence("U R U' R'", spec)
    assert parse_move_sequence('[F: U]2', spec) == \
        parse_move_sequence("F U F' F U F'", spec)


def test_central_letter_resolves_to_middle_slab():
    assert format_move_sequence(parse_move_sequence('M', CubeSpec(3))) == '2L'
    assert format_move_sequence(parse_move_sequence("E'", CubeSpec(5))) == "3D'"


def test_parse_errors_carry_positions():
    spec = CubeSpec(3)
    with pytest.raises(ParseError) as err:
        parse_move_sequence('Q', spec)
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse_move_sequence('R )', spec)
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_move_sequence('[R U]', spec)  # missing , or :
    with pytest.raises(ParseError):
        parse_move_sequence('[R, U', spec)
    with pytest.raises(ParseError):
        parse_move_sequence('0R', spec)


def test_deep_or_exploding_groups_are_parse_errors():
    spec = CubeSpec(3)
    deepest = '[R:' * MAX_NESTING + 'U' + ']' * MAX_NESTING
    assert len(parse_move_sequence(deepest, spec)) == 2 * MAX_NESTING + 1
    with pytest.raises(ParseError) as err:
        parse_move_sequence('[R:' * 400 + 'U' + ']' * 400, spec)
    assert err.value.position == 3 * MAX_NESTING  # the first '[' too deep
    # 18 nested commutators would expand to 786,430 moves
    exploding = '[R,' * 18 + 'U' + ']' * 18
    with pytest.raises(ParseError) as err:
        parse_move_sequence(exploding, spec)
    assert 'expand past' in str(err.value)
    assert exploding[err.value.position] == '['
    # the limit is on groups: plain move text of any length parses
    assert len(parse_move_sequence('R ' * 100_000, spec)) == 100_000


@pytest.mark.parametrize('text', ['\u00b2R', '\u0663R'])
def test_slice_depth_takes_ascii_digits_only(text):
    with pytest.raises(ParseError) as err:
        parse_move_sequence(text, CubeSpec(5))
    assert str(err.value) == \
        f'expected a face letter, found {text[0]!r} (at position 0)'


def test_overlong_slice_depth_is_a_parse_error():
    # more digits than int() reads under the interpreter's default limit
    text = 'R ' + '1' * 5000 + 'R'
    for spec in (None, CubeSpec(3)):
        with pytest.raises(ParseError) as err:
            parse_move_sequence(text, spec)
        assert str(err.value) == \
            'the depth has too many digits (at position 2)'


def test_central_letter_rejected_on_even_cubes():
    with pytest.raises(ParseError) as err:
        parse_move_sequence('M', CubeSpec(4))
    assert 'odd' in str(err.value)


def test_too_deep_slice_is_illegal():
    with pytest.raises(IllegalDepth):
        parse_move_sequence('5R', CubeSpec(3))
    with pytest.raises(IllegalDepth):
        Move('U', 3, 1).require_legal(CubeSpec(4))
    # depth n//2 is fine, and (n+1)//2 on odd sizes only
    Move('U', 2, 1).require_legal(CubeSpec(4))
    Move('U', 2, 1).require_legal(CubeSpec(3))


def test_render_net_shape():
    for n in (2, 3, 5):
        lines = render_net(solved_state(CubeSpec(n))).splitlines()
        assert len(lines) == 3 * n + 2


def test_state_json_round_trip():
    spec = CubeSpec(4)
    state = apply_sequence(
        solved_state(spec), parse_move_sequence("2R U' [F, 2L]", spec))
    text = json.dumps(state_to_json_dict(state))
    assert state_from_json_dict(json.loads(text)) == state


@pytest.mark.parametrize('convert', [tuple, list])
def test_sequence_stickers_equal_the_string_state(convert):
    state = apply_move(solved_state(CubeSpec(3)), Move('R'))
    rebuilt = CubeState(3, convert(state.stickers))
    assert rebuilt == state
    assert rebuilt.stickers == state.stickers
