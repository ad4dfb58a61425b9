"""Staged solver tests: verified solves, stage ordering, trace shape."""

import contextlib
import dataclasses
import functools
import io
import itertools
import json
import os
import random
import tempfile
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from cubology import move_library, solver
from cubology.cli import main
from cubology.cube_model import (
    CubeSpec,
    CubeState,
    apply_move,
    apply_sequence,
    invert_sequence,
    legal_slab_moves,
    local_table,
    sequence_permutation,
    solved_state,
    state_to_json_dict,
    sticker_permutation,
)
from cubology.cubology_law import random_valid_configuration
from cubology.decomposition import (
    build_atlas,
    compose,
    decompose,
    identity_tuple,
    read_orbit,
)
from cubology.solver import (
    NotSolvable,
    StageOrderViolation,
    solve,
    solve_stage,
    stage_names,
    stage_plan,
)

STAGE_NAMES = {
    2: ('sign_alignment', 'corner_placement', 'corner_orientation'),
    3: ('sign_alignment', 'corner_placement', 'single_edge_placement',
        'corner_orientation', 'single_edge_orientation'),
    4: ('sign_alignment', 'corner_placement', 'center_corner_placement_2',
        'coupled_placement_2', 'corner_orientation'),
    5: ('sign_alignment', 'corner_placement', 'single_edge_placement',
        'center_corner_placement_2', 'coupled_placement_2',
        'center_edge_placement_2_3', 'corner_orientation',
        'single_edge_orientation'),
}


def twisted_corner(spec):
    config = decompose(solved_state(spec))
    twists = list(config.corner_twists)
    twists[0] = 1
    return compose(config.__class__(**{**config.__dict__,
                                       'corner_twists': tuple(twists)}))


def test_stage_names_frozen():
    for n, names in STAGE_NAMES.items():
        assert stage_names(CubeSpec(n)) == names


def test_solve_verifies_exactly():
    for n in (2, 3, 4, 5):
        spec = CubeSpec(n)
        for seed in range(3):
            state = random_valid_configuration(spec, seed=seed + 100 * n)
            trace = solve(state)
            assert apply_sequence(state, trace.total) == solved_state(spec)


def test_trace_concatenates_stage_sequences():
    spec = CubeSpec(3)
    state = random_valid_configuration(spec, seed=11)
    trace = solve(state)
    assert trace.n == 3
    assert tuple(name for name, _, _ in trace.stages) == stage_names(spec)
    flattened = []
    for _, seq, _ in trace.stages:
        flattened.extend(seq)
    assert list(trace.total) == flattened


@pytest.mark.parametrize('n', range(2, 14))
def test_trace_tuples_track_partial_progress(n):
    """The tuples a trace builds when read equal a fresh decompose of
    each replayed state."""
    spec = CubeSpec(n)
    for seed in (21, 22, 23):
        state = random_valid_configuration(spec, seed=seed)
        trace = solve(state)
        running = state
        for (name, seq, config_after), step in zip(trace.stages,
                                                  trace.steps):
            running = apply_sequence(running, seq)
            assert step == (name, seq, running)
            assert decompose(running) == config_after
        assert decompose(running) == identity_tuple(spec)


@pytest.fixture
def decompose_calls(monkeypatch):
    """The arguments of every full decompose the solver makes."""
    calls = []
    monkeypatch.setattr(solver, 'decompose',
                        lambda *args: calls.append(args) or
                        decompose(*args))
    return calls


@pytest.mark.parametrize('n', range(2, 18))
def test_solve_decomposes_in_full_at_most_twice(decompose_calls, n):
    """The entry law check and the sign alignment's postcondition read
    the whole state; every other stage's check reads its own orbit."""
    spec = CubeSpec(n)
    state = random_valid_configuration(spec, seed=n)
    trace = solve(state)
    assert len(decompose_calls) <= 2
    assert apply_sequence(state, trace.total) == solved_state(spec)


def test_plain_cli_solve_builds_no_stage_tuples(decompose_calls):
    """The text output prints stage names and lengths only, so the
    trace's per-stage tuples stay unbuilt."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(['solve', '--n', '9', '--seed', '3']) == 0
    assert out.getvalue().rstrip().endswith('verified: solved')
    assert len(decompose_calls) <= 2


@pytest.mark.parametrize('name', ['corner_placement',
                                  'center_corner_placement_2'])
def test_a_stage_missing_its_postcondition_fails_the_solve(monkeypatch,
                                                            name):
    spec = CubeSpec(4)
    plan = tuple(dataclasses.replace(stage, run=lambda state: ((), state))
                 if stage.name == name else stage
                 for stage in stage_plan(spec))
    monkeypatch.setattr(solver, 'stage_plan', lambda _spec: plan)
    with pytest.raises(AssertionError,
                       match='stage %s missed its postcondition' % name):
        solve(random_valid_configuration(spec, seed=3))


def test_solved_input_yields_empty_trace():
    for n in (2, 3, 4):
        trace = solve(solved_state(CubeSpec(n)))
        assert len(trace.total) == 0
        assert all(len(seq) == 0 for _, seq, _ in trace.stages)



def _stage_core(run):
    '''The core word an orbit stage's set-up is built from.'''
    _, orbit, core = run.keywords['setup'].__wrapped__.args
    assert orbit is run.keywords['orbit']
    return core


def _orbit_stages(spec):
    '''(stage, orbit, core, set-up) per orbit stage of the size.'''
    return [(stage, stage.run.keywords['orbit'], _stage_core(stage.run),
             stage.run.keywords['setup']) for stage in stage_plan(spec)[1:]]


def test_a_stage_with_no_targets_builds_no_chain():
    for n in (2, 3, 4, 5):
        for _, _, _, setup in _orbit_stages(CubeSpec(n)):
            setup.cache_clear()
        solve(solved_state(CubeSpec(n)))
        assert all(setup.cache_info().currsize == 0
                   for _, _, _, setup in _orbit_stages(CubeSpec(n)))
    spec = CubeSpec(5)
    state = random_valid_configuration(spec, seed=5)
    built = 0
    for stage in stage_plan(spec):
        # Once a stage has run, running it again finds nothing to do and
        # builds nothing.
        _, state = solve_stage(state, stage.name)
        setup = getattr(stage.run, 'keywords', {}).get('setup')
        if setup:
            built += setup.cache_info().currsize
            setup.cache_clear()
        assert solve_stage(state, stage.name) == ((), state)
        assert not setup or setup.cache_info().currsize == 0
    assert built > 0


def test_unsolvable_state_is_rejected_with_report():
    spec = CubeSpec(3)
    with pytest.raises(NotSolvable) as err:
        solve(twisted_corner(spec))
    assert 'corner_twist_sum' in str(err.value)
    assert not err.value.report.valid


def test_solve_stage_runs_one_stage_and_chains():
    spec = CubeSpec(3)
    state = random_valid_configuration(spec, seed=3)
    for name in stage_names(spec):
        seq, after = solve_stage(state, name)
        assert apply_sequence(state, seq) == after
        state = after
    assert state == solved_state(spec)


def test_solve_stage_rejects_out_of_order_requests():
    spec = CubeSpec(3)
    # a generic scramble will not have its corners placed, so asking for
    # orientation first must fail
    state = random_valid_configuration(spec, seed=5)
    with pytest.raises(StageOrderViolation):
        solve_stage(state, 'corner_orientation')


def test_solve_stage_rejects_unknown_names():
    spec = CubeSpec(3)
    with pytest.raises(ValueError) as err:
        solve_stage(solved_state(spec), 'edge_placement')
    assert 'single_edge_placement' in str(err.value)


def test_solve_stage_rejects_unsolvable_states():
    with pytest.raises(NotSolvable):
        solve_stage(twisted_corner(CubeSpec(3)), 'sign_alignment')


@pytest.mark.parametrize('convert', [tuple, list])
def test_sequence_stickers_solve(convert):
    spec = CubeSpec(3)
    for state in (solved_state(spec), random_valid_configuration(spec, 4)):
        trace = solve(CubeState(3, convert(state.stickers)))
        assert apply_sequence(state, trace.total) == solved_state(spec)


def test_warm_solve_builds_no_named_words(monkeypatch):
    spec = CubeSpec(5)
    solve(random_valid_configuration(spec, 1))
    built = []
    named = move_library._named
    monkeypatch.setattr(move_library, '_named',
                        lambda *args: built.append(args[0]) or named(*args))
    solve(random_valid_configuration(spec, 2))
    assert built == []


def _reference_bases(spec, atlas, core, orbit):
    '''The slots a core word acts on, derived from the word alone: a
    3-cycle's slot action followed from its lowest moved slot, or a
    pair's decomposed orientations sorted by (value, slot).'''
    if core.expected_effect.kind == 'three_cycle':
        action = atlas.slot_action(sequence_permutation(spec, core.sequence),
                                   orbit)
        b0 = min(s for s, image in enumerate(action) if image != s)
        return (b0, action[b0], action[action[b0]])
    _, values = decompose(apply_sequence(
        solved_state(spec), core.sequence)).orbit_fields(orbit)
    return tuple(sorted((s for s, v in enumerate(values) if v),
                        key=lambda s: (values[s], s)))


@pytest.mark.parametrize('n', range(2, 10))
def test_stored_core_slots_match_the_words_own_effect(n):
    spec = CubeSpec(n)
    atlas = build_atlas(spec)
    for _, orbit, core, setup in _orbit_stages(spec):
        assert core.report.slots == _reference_bases(spec, atlas, core, orbit)
        # Each chain level's base, the one slot its level word leaves in
        # place, is the core's.
        identity = bytes(range(len(orbit.slots)))
        assert tuple(actions.index(identity)
                     for actions in setup()[0].actions) == core.report.slots


def _level_word(search, depth, slot):
    '''The level word at slot of an orbit's class, in the orbit's moves.'''
    return search[1](depth, slot)[0]


def _find_by_full_realization(search, wanted):
    '''Realize every wanted key in full, composing whole slot actions
    level by level, and keep the first of least length.'''
    tables, _, _ = search
    best = None
    for key in wanted:
        word = ()
        action = list(range(len(tables.words[0])))
        for depth, slot in enumerate(key):
            word += _level_word(search, depth, action[slot])
            step = tables.actions[depth][action[slot]]
            action = [step[a] for a in action]
        if best is None or len(word) < len(best[1]):
            best = (key, word)
    return best


def _wanted(request, size):
    '''A request as the dict of keys it stands for, each mapped to
    whether the inverse core realizes it: for a 3-cycle request
    (s, h, admits) over size slots, the six rotations of the cycle
    s -> h -> t -> s for every t with admits(t), in increasing order,
    the core realizing (s, h, t), (h, t, s) and (t, s, h); a pair
    request is that dict.'''
    if isinstance(request, dict):
        return request
    s, h, admits = request
    wanted = {}
    for t in range(size):
        if t not in (s, h) and admits(t):
            wanted[s, h, t] = wanted[h, t, s] = wanted[t, s, h] = False
            wanted[s, t, h] = wanted[t, h, s] = wanted[h, s, t] = True
    return wanted


def _setup_word(search, slots):
    return sum((_level_word(search, depth, slot)
                for depth, slot in enumerate(slots)), ())


def _choice_by_full_realization(search, request):
    '''(key, inverse, setup word) of the first shortest key the request
    stands for, each key realized in full.'''
    wanted = _wanted(request, len(search[0].words[0]))
    key, word = _find_by_full_realization(search, wanted)
    return key, wanted[key], word


def _orbit_searches(n):
    '''(orbit, bases, (class tables, piece, inner)) per orbit stage of
    n, from the stage's own set-up.'''
    return [(orbit, core.report.slots, setup())
            for _, orbit, core, setup in _orbit_stages(CubeSpec(n))]


def _random_request(rng, size, arity):
    '''A seeded request: a 3-cycle (s, h, admits) with at least one
    admissible third slot, or a pair dict of random keys.'''
    if arity == 3:
        s, h = rng.sample(range(size), 2)
        admissible = [rng.random() < 0.3 for _ in range(size)]
        admissible[rng.choice([t for t in range(size)
                               if t not in (s, h)])] = True
        return s, h, admissible.__getitem__
    wanted = {}
    for _ in range(rng.randint(1, 64)):
        wanted.setdefault(tuple(rng.sample(range(size), 2)),
                          rng.random() < 0.5)
    return wanted


@pytest.mark.parametrize('n', range(2, 12))
def test_setup_choice_matches_full_realization(n):
    spec = CubeSpec(n)
    atlas = build_atlas(spec)
    for orbit, bases, search in _orbit_searches(n):
        for seed in range(4):
            request = _random_request(random.Random(seed), len(orbit.slots),
                                      len(bases))
            key, slots, inverse = search[0].choose(request)
            assert (key, inverse, _setup_word(search, slots)) == \
                _choice_by_full_realization(search, request)
            action = atlas.slot_action(
                sequence_permutation(spec, _setup_word(search, slots)), orbit)
            assert tuple(action[slot] for slot in key) == bases


def _first_minimum(tables, wanted):
    '''The first key of least chained length, each key scored from the
    class's flat tables: the walk's reference over every (s, h).'''
    best, best_length = None, None
    for key in wanted:
        length = sum(tables.lengths[depth][slot]
                     for depth, slot in enumerate(tables.slots(key)))
        if best is None or length < best_length:
            best, best_length = key, length
    return best, wanted[best]


def test_cycle_walk_matches_the_first_minimum_for_every_pair():
    """Every 3-cycle class of n=2..11, every (s, h) pair: all third
    slots admissible, a single seeded one, and a seeded subset."""
    classes = {}
    for n in range(2, 12):
        for orbit, bases, (tables, _, _) in _orbit_searches(n):
            if len(bases) == 3:
                classes.setdefault(id(tables), tables)
    assert len(classes) == 7
    rng = random.Random(0)
    for tables in classes.values():
        size = len(tables.words[0])
        for s in range(size):
            for h in range(size):
                if s == h:
                    continue
                thirds = [t for t in range(size) if t not in (s, h)]
                subsets = [thirds, [rng.choice(thirds)],
                           rng.sample(thirds, rng.randint(1, len(thirds)))]
                for subset in subsets:
                    request = s, h, subset.__contains__
                    key, slots, inverse = tables.choose(request)
                    wanted = _wanted(request, size)
                    assert (key, inverse) == _first_minimum(tables, wanted)
                    assert slots == tables.slots(key)
        with pytest.raises(AssertionError, match='no targets'):
            tables.choose((0, 1, (0, 1).__contains__))


@pytest.mark.parametrize('n', range(2, 12))
def test_setup_choice_on_live_targets_matches_full_realization(n):
    spec = CubeSpec(n)
    checked = 0
    for seed in range(3):
        state = random_valid_configuration(spec, seed=seed + 100 * n)
        for stage in stage_plan(spec):
            args = getattr(stage.run, 'keywords', None)
            request = args and args['targets'](
                _shown(args['orbit'], state.stickers))
            if request:
                search = args['setup']()
                key, slots, inverse = search[0].choose(request)
                assert (key, inverse, _setup_word(search, slots)) == \
                    _choice_by_full_realization(search, request)
                checked += 1
            _, state = stage.run(state)
        assert state == solved_state(spec)
    assert checked


@pytest.mark.parametrize('n', range(2, 10))
def test_composed_cores_match_move_by_move_application(n):
    spec = CubeSpec(n)
    for seed in range(3):
        state = random_valid_configuration(spec, seed=seed + 100 * n)
        for name in stage_names(spec):
            sequence, after = solve_stage(state, name)
            assert apply_sequence(state, sequence) == after
            state = after
        assert state == solved_state(spec)


def _shown(orbit, stickers):
    """The colours an orbit shows, as the bytes its targets read."""
    return ''.join(orbit.read(stickers)).encode()


def _reference_request(orbit, local):
    """The 3-cycle request a placement stage makes, with its
    admissibility as a list over every slot: in a centre orbit, by
    colour, the first wrong slot h, the first later wrong slot s showing
    h's home colour, and every wrong slot or slot whose home colour is
    the one leaving h; otherwise the first unplaced home h, the slot s
    holding its piece, and every slot above h but s."""
    if orbit.turns == 1:
        homes = orbit.homes
        wrong = [shown != home for shown, home in zip(local, homes)]
        if True not in wrong:
            return None
        h = wrong.index(True)
        s = next(k for k in range(h + 1, len(wrong))
                 if wrong[k] and local[k] == homes[h])
        return s, h, [wrong[t] or homes[t] == local[h]
                      for t in range(len(wrong))]
    perm, _ = read_orbit(local, orbit)
    unplaced = [home for home, slot in enumerate(perm) if slot != home]
    if not unplaced:
        return None
    h = unplaced[0]
    return perm[h], h, [t > h and t != perm[h] for t in range(len(perm))]


def _assert_same_request(request, reference, size):
    """A lazy 3-cycle request stands for the same keys as the list-built
    reference."""
    assert (not request) == (reference is None)
    if request:
        assert request[:2] == reference[:2]
        s, h, admissible = reference
        assert _wanted(request, size) == \
            _wanted((s, h, admissible.__getitem__), size)


@pytest.mark.parametrize('n', range(2, 12))
def test_orbit_local_conjugates_match_full_application(n):
    """Each pass moves only the worked orbit's stickers, tracked as one
    bytes permutation, each sticker's position; once they are written
    back by it, applying the word the pass emits, setup + core + undo,
    to the whole state must give the same stickers everywhere, outside
    the orbit too. Each 3-cycle request, its admissibility a test the
    walk calls lazily, stands for the keys of the list-built one."""
    spec = CubeSpec(n)
    passes = 0
    for seed in range(2):
        state = random_valid_configuration(spec, seed=seed + 200 * n)
        for stage in stage_plan(spec):
            args = getattr(stage.run, 'keywords', None)
            if args is None:
                _, state = stage.run(state)
                continue
            orbit, core = args['orbit'], _stage_core(stage.run)
            bases, search = core.report.slots, args['setup']()
            stickers = list(state.stickers)
            colours = orbit.read(stickers)
            where = bytes(range(len(colours)))
            while True:
                local = orbit.read(stickers)
                request = args['targets'](_shown(orbit, stickers))
                if len(bases) == 3:
                    _assert_same_request(request, _reference_request(
                        orbit, local), len(orbit.slots))
                if not request:
                    break
                _, inverse, setup = _choice_by_full_realization(search,
                                                                request)
                _, slots, _ = search[0].choose(request)
                word, where = solver._conjugate(
                    search[1], search[2], slots, inverse, where)
                assert word == setup + (
                    invert_sequence(core.sequence) if inverse
                    else core.sequence) + invert_sequence(setup)
                for colour, position in zip(colours, where):
                    stickers[orbit.positions[position]] = colour
                state = apply_sequence(state, word)
                assert ''.join(stickers) == state.stickers
                passes += 1
        assert state == solved_state(spec)
    assert passes


def _decoded_target(orbit, shown, field):
    """What read_orbit makes of the colours shown: for placement (field
    0) the slot holding the first unplaced home's piece and that home,
    for orientation the first misoriented slot, None once the field is
    solved."""
    fields = read_orbit(shown.decode(), orbit)
    wrong = [s for s, v in enumerate(fields[field]) if v != (s, 0)[field]]
    if not wrong:
        return None
    return (fields[0][wrong[0]], wrong[0]) if field == 0 else wrong[0]


@pytest.mark.parametrize('n', range(2, 12))
def test_scanned_targets_match_the_decoded_orbit(n):
    """On every pass of seeded solves, each wing placement target found
    by the mismatch scan, and each corner or single-edge target read
    from bytes, equals the target decoded through read_orbit; every wing
    the scan reads is unturned."""
    spec = CubeSpec(n)
    passes = {}

    def checking(targets, orbit, field):
        def check(shown):
            request = targets(shown)
            if orbit.family == 'coupled':
                assert not any(read_orbit(shown.decode(), orbit)[1])
            found = request and (request[:2] if field == 0
                                 else min(request)[0])
            assert found == _decoded_target(orbit, shown, field)
            passes[orbit.family] = passes.get(orbit.family, 0) + 1
            return request
        return check

    for seed in range(3):
        state = random_valid_configuration(spec, seed=seed + 300 * n)
        for stage in stage_plan(spec):
            run = stage.run
            args = getattr(run, 'keywords', {})
            if 'orbit' in args and args['orbit'].turns > 1:
                run = functools.partial(run.func, *run.args, **{
                    **args, 'targets': checking(
                        args['targets'], args['orbit'],
                        len(_stage_core(run).report.slots) == 2)})
            _, state = run(state)
        assert state == solved_state(spec)
    assert passes['corner'] > 0
    assert (passes.get('coupled', 0) > 0) == (n >= 4)


def test_centre_homes_list_each_colour_together():
    """A centre stage finds its slot s with str.find past the slots of
    h's colour, which holds only while every centre orbit lists each
    colour's homes together."""
    for n in range(4, 18):
        for orbit in build_atlas(CubeSpec(n)).orbits:
            if orbit.turns == 1:
                runs = [color for color, _ in itertools.groupby(orbit.homes)]
                assert len(runs) == len(set(runs)) == 6


@pytest.mark.parametrize('n', range(2, 10))
def test_composed_inner_gathers_match_the_three_gather_chain(n):
    """For every orbit stage, innermost slot and core direction, the
    one composed destination table moves the orbit's stickers as the
    innermost level word's table, the core's and the level word's
    inverse table applied in turn, the core's inverse from its own
    inverted word, and its word is the level word, the core and the
    undo. After 50 seeded solves no orbit holds more than two composed
    tables per slot."""
    spec = CubeSpec(n)
    for _, orbit, core, setup in _orbit_stages(spec):
        tables, piece, inner = setup()
        where = bytes(range(len(orbit.positions)))
        depth = len(core.report.slots) - 1
        for inverse, sequence in enumerate(
                (core.sequence, invert_sequence(core.sequence))):
            core_table = local_table(spec, orbit.positions, sequence)
            for slot, action in enumerate(tables.actions[depth]):
                if action is None:
                    continue
                word, undo, table, back = piece(depth, slot)
                composed_word, composed = inner(slot, bool(inverse))
                assert composed_word == word + sequence + undo
                assert where.translate(composed) == where.translate(
                    table).translate(core_table).translate(back)
    for seed in range(50):
        solve(random_valid_configuration(spec, seed=seed))
    for _, orbit, _, setup in _orbit_stages(spec):
        assert setup()[2].cache_info().currsize <= 2 * len(orbit.slots)


@pytest.mark.parametrize('n', range(2, 14))
def test_class_pieces_match_each_orbits_own_level_words(n):
    """A class builds each level word's destination tables once, from
    its symbols' local tables; for every orbit of the class they equal
    the tables of the orbit's own level word and of its inverse, and the
    stored inverse reads back as that word inverted."""
    spec = CubeSpec(n)
    for orbit, _, (tables, piece, _) in _orbit_searches(n):
        for depth, actions in enumerate(tables.actions):
            for slot, action in enumerate(actions):
                if action is None:
                    continue
                word, inverse, *destinations = piece(depth, slot)
                _, _, table, inverse_table = tables.piece(depth, slot)
                assert destinations == [table, inverse_table]
                assert (table, inverse_table) == tuple(
                    local_table(spec, orbit.positions, w)
                    for w in (word, invert_sequence(word)))
                assert inverse == invert_sequence(word)


def test_a_warm_solve_builds_no_level_word_gathers(monkeypatch):
    """Level-word destination tables belong to the class, so solving
    new states after the stage plan is built calls local_table for
    none."""
    spec = CubeSpec(9)
    solve(random_valid_configuration(spec, seed=1))
    calls = []
    monkeypatch.setattr(solver, 'local_table',
                        lambda *args: calls.append(args) or
                        local_table(*args))
    for seed in (2, 3):
        state = random_valid_configuration(spec, seed=seed)
        assert apply_sequence(state, solve(state).total) == solved_state(spec)
    assert calls == []


def test_setup_alphabet_matches_a_scan_of_every_slab_move(monkeypatch):
    """Only the faces and the depths in an orbit's key act on it, so the
    class key an orbit's tables are looked up by, symbols with their
    local tables and the slot actions these give, equals what a scan of
    every legal slab move gives, for every orbit of n=2..17."""
    class_tables = solver._class_tables
    calls = []
    monkeypatch.setattr(solver, '_class_tables',
                        lambda *args: calls.append(args) or
                        class_tables(*args))
    for n in range(2, 18):
        spec = CubeSpec(n)
        atlas = build_atlas(spec)
        perms = [(move, sticker_permutation(spec, move))
                 for move in legal_slab_moves(spec, False, (1, 2, 3))]
        for _, orbit, _, setup in _orbit_stages(spec):
            setup.__wrapped__()
            size = len(orbit.slots)
            local = {p: i for i, p in enumerate(orbit.positions)}
            acting = [(move, bytes(atlas.slot_action(perm, orbit)),
                       bytes(local[perm[p]] for p in orbit.positions))
                      for move, perm in perms]
            acting = [entry for entry in acting
                      if entry[1] != bytes(range(size))]
            depths = sorted({move.depth for move, _, _ in acting})
            alphabet, _, turns = calls[-1]
            assert alphabet == tuple(
                ((move.face, depths.index(move.depth), move.quarter_turns),
                 table)
                for move, _, table in acting)
            assert [bytes(table[s * turns] // turns for s in range(size))
                    for _, table in alphabet] == \
                [action for _, action, _ in acting]


def test_stage_plan_refuses_a_core_that_moves_stickers_outside_it(
        monkeypatch):
    named = move_library._named

    def stray(*args):
        word = named(*args)
        checks = tuple((label, passed and label != 'rest id', detail)
                       for label, passed, detail in word.report.checks)
        return dataclasses.replace(word, report=dataclasses.replace(
            word.report, checks=checks))

    monkeypatch.setattr(move_library, '_named', stray)
    stage_plan.cache_clear()
    try:
        with pytest.raises(AssertionError,
                           match='moves stickers outside it'):
            stage_plan(CubeSpec(2))
    finally:
        stage_plan.cache_clear()


def _orbit_class(n, stage_name, key):
    """The setup class an orbit stage is expected to share: one per
    corner and single-edge stage, one for diagonal centres, one for
    wings, and three for off-diagonal centres (i < j, i > j, and j the
    central column)."""
    if key is None:
        return stage_name
    family = stage_name.split('_placement')[0]
    if family != 'center_edge':
        return family
    i, j = key
    if 2 * j == n + 1:
        return 'center_edge central column'
    return 'center_edge i<j' if i < j else 'center_edge i>j'


def test_one_setup_pass_per_orbit_class(monkeypatch):
    solver._class_tables.cache_clear()
    class_tables = solver._class_tables
    calls = []

    def recording(*args):
        calls.append(args)
        return class_tables(*args)

    monkeypatch.setattr(solver, '_class_tables', recording)
    keys = {}
    for n in range(2, 26):
        spec = CubeSpec(n)
        for stage, orbit, _, setup in _orbit_stages(spec):
            setup.__wrapped__()
            label = _orbit_class(n, stage.name, orbit.key)
            keys.setdefault(label, set()).add(calls[-1])
    assert class_tables.cache_info().misses == 9
    assert len(keys) == 9
    assert all(len(class_keys) == 1 for class_keys in keys.values())
    assert len(set().union(*keys.values())) == 9



def _breadth_first_levels(alphabet, bases, size):
    """The chain levels as one breadth-first pass over the alphabet
    finds them, the solver's first construction, kept as the reference:
    every new action is recorded at each level whose earlier bases it
    fixes, for the slot it sends to that level's base, if that slot has
    no word yet."""
    identity = bytes(range(size))
    levels = [{base: ((), identity)} for base in bases]
    missing = sum(size - depth for depth in range(len(bases))) - len(bases)
    seen = {identity}
    frontier = deque([(identity, ())])
    while missing:
        if not frontier:
            raise AssertionError(
                'setup alphabet exhausted before the transversal chain '
                'was complete')
        action, word = frontier.popleft()
        if len(word) >= solver.MAX_SETUP_DEPTH:
            raise AssertionError(
                'setup search needed a word longer than %d moves'
                % solver.MAX_SETUP_DEPTH)
        for symbol, table in alphabet:
            child = action.translate(table)
            if child in seen:
                continue
            seen.add(child)
            grown = word + (symbol,)
            frontier.append((child, grown))
            # A level takes the child only while it fixes every earlier
            # base, and child fixes a base exactly when its source is it.
            for level, base in zip(levels, bases):
                source = child.index(base)
                if source not in level:
                    level[source] = (grown, child)
                    missing -= 1
                if source != base:
                    break
    return levels


def _alphabet(*actions):
    """A hand-made class alphabet: symbol k acts as actions[k]."""
    return tuple((k, bytes(action) + bytes(range(len(action), 256)))
                 for k, action in enumerate(actions))


def test_class_levels_match_the_breadth_first_ball(monkeypatch):
    solver._class_tables.cache_clear()
    class_levels = solver._class_levels
    calls = set()

    def recording(*args):
        calls.add(args)
        return class_levels(*args)

    monkeypatch.setattr(solver, '_class_levels', recording)
    for n in range(2, 14):
        for _, _, _, setup in _orbit_stages(CubeSpec(n)):
            setup.__wrapped__()
    solver._class_tables.cache_clear()
    assert len(calls) == 9
    for args in calls:
        assert class_levels(*args) == _breadth_first_levels(*args)
    # A slot no word reaches exhausts the alphabet ...
    swap = _alphabet((0, 2, 1))
    for levels in (class_levels, _breadth_first_levels):
        with pytest.raises(AssertionError, match='alphabet exhausted'):
            levels(swap, (0,), 3)
    # ... and a slot farther than MAX_SETUP_DEPTH moves is refused, even
    # when it is the last one missing.
    monkeypatch.setattr(solver, 'MAX_SETUP_DEPTH', 1)
    shift = _alphabet((1, 2, 0))
    for levels in (class_levels, _breadth_first_levels):
        with pytest.raises(AssertionError,
                           match='longer than 1 moves'):
            levels(shift, (0,), 3)

@st.composite
def valid_states(draw):
    spec = CubeSpec(draw(st.integers(2, 5)))
    kind = draw(st.sampled_from(('solved', 'one_move', 'random')))
    if kind == 'solved':
        return solved_state(spec)
    if kind == 'one_move':
        moves = legal_slab_moves(spec, False, (1, 2, 3))
        return apply_move(solved_state(spec), draw(st.sampled_from(moves)))
    return random_valid_configuration(spec, draw(st.integers(0, 2 ** 32)))


@settings(max_examples=30, deadline=None)
@given(valid_states())
def test_every_valid_state_solves_through_library_and_cli(state):
    trace = solve(state)
    assert apply_sequence(state, trace.total) == solved_state(state.spec)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, 'state.json')
        with open(path, 'w') as handle:
            json.dump(state_to_json_dict(state), handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(['solve', '--state-file', path])
    assert code == 0
    assert out.getvalue().rstrip().endswith('verified: solved')
