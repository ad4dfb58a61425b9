'''Constructive staged solver.

solve() drives any law-abiding state to the solved colouring through a
fixed pipeline. A short sign alignment runs first: one outer turn when
the corner permutation is odd, then one slab turn per coupled orbit
whose permutation is odd. After that every family permutation is even,
so each placement stage can empty one family using nothing but
setup-conjugated 3-cycle words from the move library; those words move
no sticker outside their own orbit, which is why later stages never
disturb the families fixed earlier. Two orientation stages finish the
job with conjugated twist and flip pairs.

Placement picks its 3-cycles lowest index first: the unplaced piece
with the smallest home is cycled home through a third, still-unplaced
slot. Centre orbits are handled by colour instead of by the canonical
permutation, because stickers of one colour are interchangeable there;
when only two centre slots show swapped colours, the cycle is routed
through a correctly placed slot of the matching colour class, which
fixes all three at once.

Setup words come from a transversal chain per orbit: a short
breadth-first pass over single slab moves records, for every slot, a
word carrying it onto the first base slot, then one onto the second
while the first stays put, and so on. Any requested slot tuple is then
reached by chaining one word per level, so the pass runs once per cube
size and later solves pay only dictionary lookups.
'''

from collections import deque
from dataclasses import dataclass

from .cube_model import (
    Move,
    MoveSequence,
    apply_move,
    apply_sequence,
    invert_sequence,
    legal_slab_moves,
    sequence_permutation,
    solved_state,
    sticker_permutation,
)
from .cubology_law import check_validity
from .decomposition import build_atlas, decompose, permutation_sign
from .move_library import (
    center_three_cycle,
    conjugate_setup,
    corner_three_cycle,
    corner_twist_pair,
    coupled_edge_three_cycle,
    single_edge_flip_pair,
    single_edge_three_cycle,
)

MAX_SETUP_DEPTH = 6


class NotSolvable(ValueError):
    '''The state breaks the solvability law; the report says where.'''

    def __init__(self, report):
        names = ', '.join(c.condition for c in report.failing())
        super().__init__('state violates the solvability law: %s' % names)
        self.report = report


class StageOrderViolation(ValueError):
    '''A stage was asked to run before an earlier stage's work is done.'''


@dataclass(frozen=True)
class Stage:
    '''One pipeline step: its name, its postcondition on the decomposed
    tuple, and a runner mapping a state to (sequence, new state).'''

    name: str
    done: object
    run: object


@dataclass(frozen=True)
class SolveTrace:
    '''Stage-by-stage record of one solve: (name, sequence, tuple after
    the stage) per stage, plus the concatenated total sequence.'''

    n: int
    stages: tuple
    total: MoveSequence


class _SetupChain:
    '''Transversal chain carrying arbitrary slot tuples onto the bases.

    One breadth-first pass over slab-move slot actions fills one level
    per base slot: level 0 holds, for every slot x, a word moving x to
    the first base; level 1 holds words doing so for the second base
    while fixing the first; and so on. The pass stops as soon as every
    level is full, which only needs a shallow ball, so construction is
    bounded once per orbit and every later query is a few dictionary
    lookups with a guaranteed answer. Chained words are a little longer
    than true shortest setups; the cycles they conjugate stay exact.
    '''

    def __init__(self, spec, atlas, orbit, bases):
        self.bases = tuple(bases)
        size = len(orbit.slots)
        self.identity = bytes(range(size))
        alphabet = []
        for move in legal_slab_moves(spec, False, (1, 2, 3)):
            action = atlas.slot_action(
                sticker_permutation(spec, move), orbit.family, orbit.key)
            if bytes(action) != self.identity:
                # Composition runs through bytes.translate, so store
                # each action as a full translation table.
                alphabet.append(
                    (move, bytes(action) + bytes(range(size, 256))))
        self.levels = self._build(alphabet, size)

    def _build(self, alphabet, size):
        bases = self.bases
        levels = [{base: ((), self.identity)} for base in bases]
        missing = sum(size - depth for depth in range(len(bases))) \
            - len(bases)
        seen = {self.identity}
        frontier = deque([(self.identity, ())])
        while missing:
            if not frontier:
                raise AssertionError(
                    'setup alphabet exhausted before the transversal chain '
                    'was complete')
            action, word = frontier.popleft()
            if len(word) >= MAX_SETUP_DEPTH:
                raise AssertionError(
                    'setup search needed a word longer than %d moves'
                    % MAX_SETUP_DEPTH)
            for move, table in alphabet:
                child = action.translate(table)
                if child in seen:
                    continue
                seen.add(child)
                grown = word + (move,)
                frontier.append((child, grown))
                for depth, base in enumerate(bases):
                    if depth and any(
                            child[bases[j]] != bases[j]
                            for j in range(depth)):
                        break
                    source = child.index(base)
                    if source not in levels[depth]:
                        levels[depth][source] = (grown, child)
                        missing -= 1
        return levels

    def find(self, wanted):
        '''Shortest chained word carrying one of the wanted preimage
        tuples onto the bases.'''
        best = None
        for key in wanted:
            word = self._realize(key)
            if best is None or len(word) < len(best[1]):
                best = (key, word)
        if best is None:
            raise AssertionError('a cycle was requested with no targets')
        return best[0], MoveSequence(best[1])

    def _realize(self, key):
        word = ()
        action = self.identity
        for depth, slot in enumerate(key):
            piece, step_action = self.levels[depth][action[slot]]
            word += piece
            action = action.translate(
                step_action + bytes(range(len(action), 256)))
        return word


_CHAIN_CACHE = {}


def _setup_search(spec, atlas, orbit, bases):
    cache_key = (spec.n, orbit.family, orbit.key, tuple(bases))
    chain = _CHAIN_CACHE.get(cache_key)
    if chain is None:
        chain = _SetupChain(spec, atlas, orbit, bases)
        _CHAIN_CACHE[cache_key] = chain
    return chain


def _cycle_bases(spec, atlas, core, orbit):
    action = atlas.slot_action(
        sequence_permutation(spec, core.sequence), orbit.family, orbit.key)
    moved = [s for s, image in enumerate(action) if image != s]
    b0 = min(moved)
    return (b0, action[b0], action[action[b0]])


def _cycle_keys(s, h, t):
    '''Preimage tuples realizing the slot cycle s -> h -> t -> s, each
    tagged with the core direction that produces it.'''
    return (((s, h, t), False), ((h, t, s), False), ((t, s, h), False),
            ((s, t, h), True), ((t, h, s), True), ((h, s, t), True))


def _apply_cycle(state, search, core, inverse_core, s, h, t_choices):
    wanted = {}
    for t in t_choices:
        for key, inverted in _cycle_keys(s, h, t):
            wanted.setdefault(key, inverted)
    key, setup = search.find(wanted)
    word = conjugate_setup(setup, inverse_core if wanted[key] else core)
    return apply_sequence(state, word), tuple(word)


def _run_sign_alignment(spec, atlas, state):
    parts = []
    config = decompose(state, atlas)
    if permutation_sign(config.corner_perm) == -1:
        move = Move('F', 1, 1)
        state = apply_move(state, move)
        parts.append(move)
        config = decompose(state, atlas)
    for i in atlas.coupled_orbit_indices:
        if permutation_sign(config.coupled_perms[i]) == -1:
            move = Move('R', i, 1)
            state = apply_move(state, move)
            parts.append(move)
            config = decompose(state, atlas)
    return MoveSequence(tuple(parts)), state


def _run_perm_placement(spec, atlas, state, orbit, core):
    bases = _cycle_bases(spec, atlas, core, orbit)
    search = _setup_search(spec, atlas, orbit, bases)
    inverse_core = invert_sequence(core.sequence)
    parts = []
    while True:
        perm, _ = decompose(state, atlas).orbit_fields(orbit)
        support = [s for s, image in enumerate(perm) if image != s]
        if not support:
            break
        home = min(support)
        slot = perm[home]
        # Any third slot above the working home keeps the smallest
        # unplaced home strictly increasing, so the loop terminates
        # whether the slot it routes through was placed yet or not.
        t_choices = [t for t in range(len(perm))
                     if t > home and t != slot]
        assert t_choices, 'an even permutation cannot strand two pieces'
        state, word = _apply_cycle(
            state, search, core, inverse_core, slot, home, t_choices)
        parts.extend(word)
    return MoveSequence(tuple(parts)), state


def _run_center_placement(spec, atlas, state, orbit, core):
    homes = [slot.colors[0] for slot in orbit.slots]
    positions = [slot.positions[0] for slot in orbit.slots]
    bases = _cycle_bases(spec, atlas, core, orbit)
    search = _setup_search(spec, atlas, orbit, bases)
    inverse_core = invert_sequence(core.sequence)
    parts = []
    while True:
        shown = [state.stickers[p] for p in positions]
        wrong = [k for k in range(24) if shown[k] != homes[k]]
        if not wrong:
            break
        h = wrong[0]
        donors = [k for k in wrong if shown[k] == homes[h]]
        s = donors[0]
        # Third slot: any other wrong slot, or a correct slot whose
        # colour matches what leaves h (that slot then receives its own
        # colour back and stays correct). The latter also covers the
        # two-slot colour swap, which a bare 3-cycle of wrong slots
        # never could.
        t_choices = [k for k in range(24)
                     if k not in (s, h)
                     and (shown[k] != homes[k] or homes[k] == shown[h])]
        assert t_choices, 'colour counts guarantee a routing slot'
        state, word = _apply_cycle(
            state, search, core, inverse_core, s, h, t_choices)
        parts.extend(word)
    return MoveSequence(tuple(parts)), state


def _orientation_bases(spec, atlas, core, orbit):
    '''The two slots the core reorients, ordered by orientation value
    (the +1 twist first), then by slot.'''
    _, orientation = decompose(
        apply_sequence(solved_state(spec), core.sequence),
        atlas).orbit_fields(orbit)
    return tuple(sorted((s for s, v in enumerate(orientation) if v),
                        key=lambda s: (orientation[s], s)))


def _run_corner_orientation(spec, atlas, state, orbit, core):
    bases = _orientation_bases(spec, atlas, core, orbit)
    search = _setup_search(spec, atlas, orbit, bases)
    inverse_core = invert_sequence(core.sequence)
    parts = []
    while True:
        _, twists = decompose(state, atlas).orbit_fields(orbit)
        nonzero = [s for s, v in enumerate(twists) if v]
        if not nonzero:
            break
        assert len(nonzero) >= 2, 'the twist sum law leaves no lone twist'
        a = nonzero[0]
        wanted = {}
        for b in nonzero[1:]:
            if twists[a] == 1:
                wanted.setdefault((b, a), False)
                wanted.setdefault((a, b), True)
            else:
                wanted.setdefault((a, b), False)
                wanted.setdefault((b, a), True)
        key, setup = search.find(wanted)
        word = conjugate_setup(setup, inverse_core if wanted[key] else core)
        state = apply_sequence(state, word)
        parts.extend(word)
    return MoveSequence(tuple(parts)), state


def _run_single_edge_orientation(spec, atlas, state, orbit, core):
    bases = _orientation_bases(spec, atlas, core, orbit)
    search = _setup_search(spec, atlas, orbit, bases)
    parts = []
    while True:
        _, flips = decompose(state, atlas).orbit_fields(orbit)
        nonzero = [s for s, v in enumerate(flips) if v]
        if not nonzero:
            break
        assert len(nonzero) >= 2, 'the flip sum law leaves no lone flip'
        a = nonzero[0]
        wanted = []
        for b in nonzero[1:]:
            wanted.append((a, b))
            wanted.append((b, a))
        _, setup = search.find(wanted)
        word = conjugate_setup(setup, core)
        state = apply_sequence(state, word)
        parts.extend(word)
    return MoveSequence(tuple(parts)), state


def _signs_aligned(config, atlas):
    return all(permutation_sign(config.orbit_fields(orbit)[0]) == 1
               for orbit in atlas.orbits)


# Placement runs family by family in this order, one stage per orbit;
# each entry names the stage and builds the orbit's 3-cycle word.
_PLACEMENT = (
    ('corner', 'corner_placement',
     lambda spec, _key: corner_three_cycle(spec)),
    ('single', 'single_edge_placement',
     lambda spec, _key: single_edge_three_cycle(spec)),
    ('center_corner', 'center_corner_placement_%d',
     lambda spec, i: center_three_cycle(spec, i, i)),
    ('coupled', 'coupled_placement_%d', coupled_edge_three_cycle),
    ('center_edge', 'center_edge_placement_%d_%d',
     lambda spec, label: center_three_cycle(spec, *label)),
)

_ORIENTATION = (
    ('corner', 'corner_orientation', corner_twist_pair,
     _run_corner_orientation),
    ('single', 'single_edge_orientation', single_edge_flip_pair,
     _run_single_edge_orientation),
)

_PLAN_CACHE = {}


def stage_plan(spec):
    '''The ordered stages a solve of this cube size runs through.'''
    cached = _PLAN_CACHE.get(spec.n)
    if cached is not None:
        return cached
    atlas = build_atlas(spec)
    stages = [Stage('sign_alignment',
                    lambda c: _signs_aligned(c, atlas),
                    lambda state: _run_sign_alignment(spec, atlas, state))]
    for family, name, word in _PLACEMENT:
        for orbit in atlas.orbits:
            if orbit.family != family:
                continue
            run = (_run_center_placement if orbit.turns == 1
                   else _run_perm_placement)
            stages.append(Stage(
                name if orbit.key is None else name % orbit.key,
                lambda c, o=orbit, ident=tuple(range(len(orbit.slots))):
                    c.orbit_fields(o)[0] == ident,
                lambda state, o=orbit, run=run, word=word: run(
                    spec, atlas, state, o, word(spec, o.key))))
    for family, name, word, run in _ORIENTATION:
        for orbit in atlas.orbits:
            if orbit.family == family:
                stages.append(Stage(
                    name,
                    lambda c, o=orbit: not any(c.orbit_fields(o)[1]),
                    lambda state, o=orbit, run=run, word=word: run(
                        spec, atlas, state, o, word(spec))))
    plan = tuple(stages)
    _PLAN_CACHE[spec.n] = plan
    return plan


def stage_names(spec):
    return tuple(stage.name for stage in stage_plan(spec))


def solve(state):
    '''Solve a valid state, returning the full stage trace.

    Raises NotSolvable when the state breaks the law (the report rides
    along on the exception) and NotAConfiguration when the stickers are
    not a reassembly at all.
    '''
    spec = state.spec
    atlas = build_atlas(spec)
    report = check_validity(decompose(state, atlas), atlas)
    if not report.valid:
        raise NotSolvable(report)
    entries = []
    total = []
    for stage in stage_plan(spec):
        sequence, state = stage.run(state)
        config = decompose(state, atlas)
        if not stage.done(config):
            raise AssertionError(
                'stage %s missed its postcondition' % stage.name)
        entries.append((stage.name, sequence, config))
        total.extend(sequence)
    if state != solved_state(spec):
        raise AssertionError('pipeline finished without solving the cube')
    return SolveTrace(n=spec.n, stages=tuple(entries),
                      total=MoveSequence(tuple(total)))


def solve_stage(state, stage_name):
    '''Run one named stage, checking every earlier stage is already
    done; returns (sequence, state after the stage).'''
    spec = state.spec
    atlas = build_atlas(spec)
    config = decompose(state, atlas)
    report = check_validity(config, atlas)
    if not report.valid:
        raise NotSolvable(report)
    plan = stage_plan(spec)
    names = [stage.name for stage in plan]
    if stage_name not in names:
        raise ValueError('unknown stage %r; this cube has: %s'
                         % (stage_name, ', '.join(names)))
    index = names.index(stage_name)
    for earlier in plan[:index]:
        if not earlier.done(config):
            raise StageOrderViolation(
                'stage %s runs after %s, which is not done'
                % (stage_name, earlier.name))
    sequence, state = plan[index].run(state)
    if not plan[index].done(decompose(state, atlas)):
        raise AssertionError(
            'stage %s missed its postcondition' % stage_name)
    return sequence, state


def peephole(sequence):
    '''Cancel adjacent turns of the same slab; cosmetic only, the state
    reached is unchanged.'''
    out = []
    for move in sequence:
        if out and out[-1].face == move.face and out[-1].depth == move.depth:
            turns = (out[-1].quarter_turns + move.quarter_turns) % 4
            out.pop()
            if turns:
                out.append(Move(move.face, move.depth, turns))
        else:
            out.append(move)
    return MoveSequence(tuple(out))
