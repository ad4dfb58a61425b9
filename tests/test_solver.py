"""Staged solver tests: verified solves, stage ordering, trace shape."""

import contextlib
import io
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
    sequence_permutation,
    solved_state,
    state_to_json_dict,
)
from cubology.cubology_law import random_valid_configuration
from cubology.decomposition import build_atlas, compose, decompose
from cubology.solver import (
    NotSolvable,
    StageOrderViolation,
    _setup_search,
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


def test_trace_tuples_track_partial_progress():
    spec = CubeSpec(4)
    state = random_valid_configuration(spec, seed=21)
    trace = solve(state)
    running = state
    for name, seq, config_after in trace.stages:
        running = apply_sequence(running, seq)
        assert decompose(running) == config_after
    assert decompose(running).is_identity()


def test_solved_input_yields_empty_trace():
    for n in (2, 3, 4):
        trace = solve(solved_state(CubeSpec(n)))
        assert len(trace.total) == 0
        assert all(len(seq) == 0 for _, seq, _ in trace.stages)



def test_a_stage_with_no_targets_builds_no_chain():
    _setup_search.cache_clear()
    for n in (2, 3, 4, 5):
        solve(solved_state(CubeSpec(n)))
    assert _setup_search.cache_info().misses == 0
    spec = CubeSpec(5)
    state = random_valid_configuration(spec, seed=5)
    for name in stage_names(spec):
        # Once a stage has run, running it again finds nothing to do.
        _, state = solve_stage(state, name)
        chains = _setup_search.cache_info().misses
        assert solve_stage(state, name) == ((), state)
        assert _setup_search.cache_info().misses == chains
    assert chains > 0


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
    for stage in stage_plan(spec)[1:]:
        args = stage.run.keywords
        core, orbit = args['core'], args['orbit']
        assert args['bases'] == core.report.slots
        assert core.report.slots == _reference_bases(spec, atlas, core, orbit)


def _find_by_full_realization(chain, wanted):
    '''Realize every wanted key in full, composing whole slot actions
    level by level, and keep the first of least length.'''
    best = None
    for key in wanted:
        word = ()
        action = list(range(len(chain.levels[0])))
        for depth, slot in enumerate(key):
            piece, step = chain.levels[depth][action[slot]]
            word += piece
            action = [step[a] for a in action]
        if best is None or len(word) < len(best[1]):
            best = (key, word)
    return best


@pytest.mark.parametrize('n', range(2, 12))
def test_setup_choice_matches_full_realization(n):
    spec = CubeSpec(n)
    atlas = build_atlas(spec)
    orbit_stages = [stage.run.keywords for stage in stage_plan(spec)
                    if hasattr(stage.run, 'keywords')]
    assert len(orbit_stages) == len(stage_plan(spec)) - 1
    for args in orbit_stages:
        orbit, bases = args['orbit'], args['bases']
        chain = _setup_search(spec, atlas, orbit, bases)
        for seed in range(4):
            rng = random.Random(seed)
            wanted = {}
            for _ in range(rng.randint(1, 64)):
                key = tuple(rng.sample(range(len(orbit.slots)), len(bases)))
                wanted.setdefault(key, rng.random() < 0.5)
            found = chain.find(wanted)
            assert found == _find_by_full_realization(chain, wanted)
            key, word = found
            action = atlas.slot_action(sequence_permutation(spec, word),
                                       orbit)
            assert tuple(action[slot] for slot in key) == bases


@pytest.mark.parametrize('n', range(2, 12))
def test_setup_choice_on_live_targets_matches_full_realization(n):
    spec = CubeSpec(n)
    atlas = build_atlas(spec)
    checked = 0
    for seed in range(3):
        state = random_valid_configuration(spec, seed=seed + 100 * n)
        for stage in stage_plan(spec):
            args = getattr(stage.run, 'keywords', None)
            wanted = args and args['targets'](state)
            if wanted:
                chain = _setup_search(spec, atlas, args['orbit'],
                                      args['bases'])
                assert chain.find(wanted) == \
                    _find_by_full_realization(chain, wanted)
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


@pytest.mark.parametrize('n', range(2, 12))
def test_orbit_local_conjugates_match_full_application(n):
    """Each pass rewrites only the worked orbit's stickers; applying the
    word it emits, setup + core + undo, to the whole state must give
    the same stickers everywhere, outside the orbit too."""
    spec = CubeSpec(n)
    atlas = build_atlas(spec)
    passes = 0
    for seed in range(2):
        state = random_valid_configuration(spec, seed=seed + 200 * n)
        for stage in stage_plan(spec):
            args = getattr(stage.run, 'keywords', None)
            if args is None:
                _, state = stage.run(state)
                continue
            chain = _setup_search(spec, atlas, args['orbit'], args['bases'])
            stickers = list(state.stickers)
            while True:
                wanted = args['targets'](stickers)
                if not wanted:
                    break
                key, slots = chain.choose(wanted)
                core = args['cores'][wanted[key]]
                word = solver._conjugate(chain, slots, core, stickers)
                _, setup = chain.find(wanted)
                assert word == setup + core[0] + invert_sequence(setup)
                state = apply_sequence(state, word)
                assert ''.join(stickers) == state.stickers
                passes += 1
        assert state == solved_state(spec)
    assert passes


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
    _setup_search.cache_clear()
    solver._class_levels.cache_clear()
    class_levels = solver._class_levels
    calls = []

    def recording(*args):
        calls.append(args)
        return class_levels(*args)

    monkeypatch.setattr(solver, '_class_levels', recording)
    keys = {}
    for n in range(2, 14):
        spec = CubeSpec(n)
        atlas = build_atlas(spec)
        for stage in stage_plan(spec)[1:]:
            args = stage.run.keywords
            _setup_search(spec, atlas, args['orbit'], args['bases'])
            label = _orbit_class(n, stage.name, args['orbit'].key)
            keys.setdefault(label, set()).add(calls[-1])
    assert class_levels.cache_info().misses == 9
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
    _setup_search.cache_clear()
    class_levels = solver._class_levels
    calls = set()

    def recording(*args):
        calls.add(args)
        return class_levels(*args)

    monkeypatch.setattr(solver, '_class_levels', recording)
    for n in range(2, 14):
        spec = CubeSpec(n)
        atlas = build_atlas(spec)
        for stage in stage_plan(spec)[1:]:
            args = stage.run.keywords
            _setup_search(spec, atlas, args['orbit'], args['bases'])
    _setup_search.cache_clear()
    assert len(calls) == 9
    for args in calls:
        assert class_levels.__wrapped__(*args) == _breadth_first_levels(*args)
    # A slot no word reaches exhausts the alphabet ...
    swap = _alphabet((0, 2, 1))
    for levels in (class_levels.__wrapped__, _breadth_first_levels):
        with pytest.raises(AssertionError, match='alphabet exhausted'):
            levels(swap, (0,), 3)
    # ... and a slot farther than MAX_SETUP_DEPTH moves is refused, even
    # when it is the last one missing.
    monkeypatch.setattr(solver, 'MAX_SETUP_DEPTH', 1)
    shift = _alphabet((1, 2, 0))
    for levels in (class_levels.__wrapped__, _breadth_first_levels):
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
