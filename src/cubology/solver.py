'''Constructive staged solver.

solve() drives any law-abiding state to the solved colouring through a
fixed pipeline. A short sign alignment runs first: one outer turn when
the corner permutation is odd, then one slab turn per coupled orbit
whose permutation is odd. After that every family permutation is even,
and every later stage runs one loop on one orbit, with a core word from
the move library: a 3-cycle for placement, a twist or flip pair for
orientation. Each pass reads the stage's targets from the stickers, the
slot tuples the core could be aimed at next; finds the shortest chained
setup carrying one of them onto the core's base slots; and applies the
core conjugated by that setup. The loop ends when no targets remain.
Core words move no sticker outside their own orbit, which is why later
stages never disturb the families fixed earlier. stage_plan() builds
and verifies each core word once per cube size, and takes the core's
base slots, the slots it moves or reorients, from the report that
verified it.

Placement picks its 3-cycles lowest index first: the unplaced piece
with the smallest home is cycled home through a third, still-unplaced
slot. Centre orbits are handled by colour instead of by the canonical
permutation, because stickers of one colour are interchangeable there;
when only two centre slots show swapped colours, the cycle is routed
through a correctly placed slot of the matching colour class, which
fixes all three at once. Orientation pairs the first misoriented slot
with each other one.

Setup words come from a transversal chain per orbit class, a stabiliser
chain in the manner of Sims: level 0 holds, for every slot, a word
carrying it onto the first base slot, level 1 one carrying it onto the
second while the first stays put, and so on. Any requested slot tuple
is then reached by chaining one word per level. Each level word is the
least one, by length and then symbol order, that does its job. A
breadth-first pass over single moves makes words in that order, and
each word it makes completes, by one dictionary lookup each, the
entries it finishes in one more move, so the pass stops a move short of
the longest entry. The pass runs over symbols (face, depth rank,
quarter turns), each depth named by its rank among the depths acting on
the orbit, so every orbit whose moves then act alike on its stickers
shares one class, across all cube sizes: nine serve every orbit up to
n=33. Each orbit stage builds its one set-up, the orbit's alphabet and
the map reading class words as its moves, on its first pass; a stage
finding its orbit done builds nothing. A tuple's chained length, the
summed length of its level words, depends on the class alone, so for
each 3-cycle s -> h -> t -> s asked of it a class sorts, once, the six
rotations of every routing slot t by that length, then t, with their
level slots; a pass tests each t in turn against its stage, to the
first admitted, the first shortest tuple, and realizes it.

A conjugate rewrites only the worked orbit's stickers: the setup
carries every other sticker away and the undo brings it back, while the
core, as stage_plan() checks once per cube size, fixes every sticker
outside its orbit. So a stage tracks the orbit's at most 48 stickers,
laid out slot by slot, as one bytes permutation, where, each sticker's
position, and maps it by bytes.translate through destination tables:
the outer level words', one composing the innermost level word, the
core and that word's inverse, and the outer inverses'. One maketrans and
one translate give the colours by position, which the targets read and
which are written back once, when the stage is done. Level words'
tables are built on first use once per class, composed ones once per
stage, by its set-up. The emitted word is the setup, the core and the
stored inverses in reverse, as the orbit's moves.

solve() checks every stage's postcondition on what the stage can
change, through kept reads (see decomposition.kept_read): the whole
state after the sign alignment, as on entry for the law check, and the
worked orbit alone after any other stage. The trace keeps each stage's
state and builds its tuple only when read.
'''

import functools
import operator
import struct
from collections import deque
from dataclasses import dataclass

from .cube_model import (
    FACES,
    CubeState,
    Move,
    apply_move,
    invert_sequence,
    local_table,
    solved_state,
    sticker_permutation,
)
from .cubology_law import check_validity
from .decomposition import (
    _sign,
    build_atlas,
    decompose,
    identity_tuple,
    kept_read,
    read_orbit,
)
from .move_library import (
    center_three_cycle,
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
    '''One pipeline step: its name, its postcondition done(state, reads)
    on a state and the kept reads of that state (see kept_read), and a
    runner mapping a state to (sequence, new state).'''

    name: str
    done: object
    run: object


@dataclass(frozen=True)
class SolveTrace:
    '''Stage-by-stage record of one solve: steps holds (name, sequence,
    state after the stage) per stage, total the concatenated move
    tuple.'''

    n: int
    steps: tuple
    total: tuple

    @functools.cached_property
    def stages(self):
        '''(name, sequence, tuple after the stage) per stage, decomposed
        on first read through one set of kept reads, so each state
        rereads only the orbits its stage changed.'''
        reads = {}
        return tuple((name, sequence, decompose(state, reads))
                     for name, sequence, state in self.steps)


class _ClassTables:
    '''One orbit class's transversal chain, shared by every orbit whose
    moves act alike on its stickers, as flat tables by level and slot:
    the level word, over alphabet indices, its length and its slot
    action; on first use, the word's inverse and both words' tables
    over an orbit's local stickers; and the 3-cycle orders asked for.
    alphabet holds (symbol, local table) pairs, a local table giving
    where the symbol's move sends each of an orbit's stickers, listed
    slot by slot as orbit.read gives them, turns to a slot.'''

    def __init__(self, alphabet, bases, turns):
        size = len(alphabet[0][1]) // turns
        symbols = [symbol for symbol, _ in alphabet]
        self._inverses = [symbols.index((f, r, 4 - q)) for f, r, q in symbols]
        # Composition runs through bytes.translate, so each table is
        # stored as a full translation table.
        self._tables = [table + bytes(range(len(table), 256))
                        for _, table in alphabet]
        self._identity = bytes(range(256))
        levels = _class_levels(tuple(
            (i, bytes(table[s * turns] // turns for s in range(size))
             + bytes(range(size, 256)))
            for i, (_, table) in enumerate(alphabet)), bases, size)
        rows = [[level.get(slot, ((), None)) for slot in range(size)]
                for level in levels]
        self.words = [[word for word, _ in row] for row in rows]
        self.lengths = [[len(word) for word in words] for words in self.words]
        self.actions = [[action for _, action in row] for row in rows]
        self._pieces = [[None] * size for _ in levels]
        self._orders = {}
        if len(levels) == 3:
            # tails[x][y]: order()'s record less t, r and the level 0
            # length, for level 1 slot x and level 2 slot z = a1[x][y].
            (_, l1, l2), a1 = self.lengths, self.actions[1]
            self._tails = [a and [l1[x] + l2[z] << 24 | x << 8 | z for z in a]
                           for x, a in enumerate(a1)]

    def slots(self, key):
        '''Per level, where the earlier words carry the key's next slot.'''
        slots, rest = [], key
        for actions in self.actions:
            slots.append(rest[0])
            action = actions[rest[0]]
            rest = [action[slot] for slot in rest[1:]]
        return tuple(slots)

    def order(self, s, h):
        '''(thirds, records): every third slot t and the r-th tuple of
        _rotations(s, h, t), sorted by (chained length, t, r), as bytes
        of t and as 4-byte records (length, t, r << 5 | level 1 slot,
        level 2 slot), each scored as one int for one sort.'''
        order = self._orders.get((s, h))
        if order is None:
            l0, a0, tails = self.lengths[0], self.actions[0], self._tails
            scored = []
            for t in range(len(l0)):
                if t == s or t == h:
                    continue
                code = t << 16
                for a, b, c in _rotations(s, h, t):
                    first = a0[a]
                    scored.append((l0[a] << 24) + code
                                  + tails[first[b]][first[c]])
                    code += 1 << 13
            records = struct.pack('>%dI' % len(scored), *sorted(scored))
            order = self._orders[s, h] = records[1::4], records
        return order

    def choose(self, request):
        '''(key, slots, inverse) for the first requested preimage tuple
        of shortest chained word, the slots its level words are looked
        up at, and whether the inverse core realizes it. A pair request
        maps keys to that flag; a 3-cycle one, (s, h, admits), asks for
        _rotations(s, h, t) of each t with admits(t), tested lazily.'''
        if len(self.lengths) == 3:
            s, h, admits = request
            thirds, records = self.order(s, h)
            for i, t in enumerate(thirds):
                if admits(t):
                    break
            else:
                raise AssertionError('a cycle was requested with no targets')
            _, _, rb, c = records[4 * i:4 * i + 4]
            key = _rotations(s, h, t)[rb >> 5]
            return key, (key[0], rb & 31, c), rb >> 5 >= 3
        key = min(request, key=lambda key: sum(
            map(operator.getitem, self.lengths, self.slots(key))))
        return key, self.slots(key), request[key]

    def piece(self, depth, slot):
        '''(word, inverse word, table, inverse table) of the level word
        at slot, the destination tables over an orbit's local stickers;
        built on first use, since a solve needs only some of them.'''
        pieces = self._pieces[depth]
        if pieces[slot] is None:
            word = self.words[depth][slot]
            inverse = tuple(map(self._inverses.__getitem__, reversed(word)))
            pieces[slot] = (word, inverse, *(
                functools.reduce(bytes.translate, map(
                    self._tables.__getitem__, sent), self._identity)
                for sent in (word, inverse)))
        return pieces[slot]


def _rotations(s, h, t):
    '''The preimage tuples realizing the slot cycle s -> h -> t -> s,
    the last three by the inverse core.'''
    return (s, h, t), (h, t, s), (t, s, h), (s, t, h), (t, h, s), (h, s, t)


def _class_levels(alphabet, bases, size):
    '''The chain levels of one orbit class, as words over the class's
    symbols. alphabet holds (symbol, translation table) pairs.

    Level k's word for slot x is the least word, by length and then
    symbol order, whose action fixes bases[:k] and sends x to bases[k].
    A breadth-first pass makes words in that order and keeps each new
    action with its first word, the least word reaching it. A least
    word without its last move is least for its own action, so the pass
    makes it; hence an entry's word is u + (s,) for the first word u
    made and the first symbol s such that u + (s,) does the entry's
    job. That holds exactly when u's images of bases[:k] and x are s's
    preimages of bases[:k + 1], so each level indexes the alphabet by
    those preimages, first symbol kept. Each word made completes the
    entries it can, one lookup each, and the pass stops at the word
    that completes the last one, a move short of the longest entry.'''
    identity = bytes(range(size))
    levels = [{base: ((), identity)} for base in bases]
    # The missing entries: (level, slot, images of a word that matter,
    # the level's alphabet index).
    missing = []
    for depth, level in enumerate(levels):
        preimages = operator.itemgetter(*bases[:depth + 1])
        index = {}
        for symbol, table in alphabet:
            index.setdefault(preimages(bytes(map(table.index, identity))),
                             (symbol, table))
        missing += [(level, slot, operator.itemgetter(*bases[:depth], slot),
                     index)
                    for slot in range(size) if slot not in bases[:depth + 1]]

    def complete(missing, action, word):
        '''Complete every missing entry that word finishes in one
        move; returns the entries still missing.'''
        left = []
        for entry in missing:
            level, slot, images, index = entry
            found = index.get(images(action))
            if found:
                symbol, table = found
                level[slot] = (word + (symbol,), action.translate(table))
            else:
                left.append(entry)
        return left

    missing = complete(missing, identity, ())
    seen = {identity}
    frontier = deque([(identity, ())])
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
        for symbol, table in alphabet:
            child = action.translate(table)
            if child in seen:
                continue
            seen.add(child)
            grown = word + (symbol,)
            frontier.append((child, grown))
            if len(grown) < MAX_SETUP_DEPTH:
                missing = complete(missing, child, grown)
                if not missing:
                    break
    return levels


_class_tables = functools.lru_cache(maxsize=None)(_ClassTables)


def _setup_search(spec, orbit, core):
    '''(class tables, piece, inner) for the orbit and its core word: its
    class's tables, keyed by each symbol (face, depth rank, q) with its
    local table; piece(depth, slot), the class piece with its words read
    as this orbit's moves; inner(slot, inverse), the innermost level
    word at slot, the core, inverted if inverse, and the word's undo as
    one (word, destination table). Both keep what they build. The
    alphabet is every slab move acting on the orbit, in legal_slab_moves
    order: depth 1 and the depths in orbit.key, each named by its rank
    among them, so every orbit whose moves then act alike on its
    stickers, of any cube size, shares one class. Ranks keep the depth
    order, so each level word is the least over this orbit's own moves,
    by length and then legal_slab_moves order, that does its job.'''
    local = {position: i for i, position in enumerate(orbit.positions)}
    identity = bytes(range(len(local)))
    keyed = orbit.key if isinstance(orbit.key, tuple) else (orbit.key,)
    depths = sorted({1, *keyed}.intersection(range(1, spec.n // 2 + 1)))
    alphabet, moves = [], []
    for face in FACES:
        for rank, depth in enumerate(depths):
            quarter = bytes(map(local.__getitem__, orbit.read(
                sticker_permutation(spec, Move(face, depth)))))
            table = identity
            for q in (1, 2, 3):
                table = bytes(map(quarter.__getitem__, table))
                if table != identity:
                    moves.append(Move(face, depth, q))
                    alphabet.append(((face, rank, q), table))
    bases = core.report.slots
    tables = _class_tables(tuple(alphabet), bases, orbit.turns)
    words = core.sequence, invert_sequence(core.sequence)
    forward = local_table(spec, orbit.positions, core.sequence)
    cores = forward, bytes.maketrans(forward, bytes(range(256)))

    @functools.cache
    def piece(depth, slot):
        word, inverse, *destinations = tables.piece(depth, slot)
        return (*(tuple(map(moves.__getitem__, w)) for w in (word, inverse)),
                *destinations)

    @functools.cache
    def inner(slot, inverse):
        word, undo, table, back = piece(len(bases) - 1, slot)
        return (word + words[inverse] + undo,
                table.translate(cores[inverse]).translate(back))
    return tables, piece, inner


def _run_sign_alignment(atlas, state):
    parts = []
    for orbit in atlas.orbits:
        if orbit in atlas.sign_sources:
            continue
        perm, _ = read_orbit(orbit.read(state.stickers), orbit)
        if _sign(perm) == -1:
            move = Move('F', 1, 1) if orbit.key is None \
                else Move('R', orbit.key, 1)
            state = apply_move(state, move)
            parts.append(move)
    return tuple(parts), state


def _run_orbit(state, orbit, setup, targets):
    '''Conjugate the core by chained setups until targets(shown)
    requests nothing, shown the orbit's colours as bytes, as orbit.read
    lays them out; they are written back into the state once, at the
    end. A request is what _ClassTables.choose takes; setup() gives
    _setup_search's tables, built on the first request.'''
    shown = ''.join(orbit.read(state.stickers)).encode()
    request = targets(shown)
    if not request:
        return (), state
    tables, piece, inner = setup()
    # where[k]: the position of the sticker starting at k, colours[k].
    colours, where = shown.ljust(256), bytes(range(len(shown)))
    home, parts = where, []
    while request:
        _, slots, inverse = tables.choose(request)
        word, where = _conjugate(piece, inner, slots, inverse, where)
        parts += word
        shown = bytes.maketrans(where, home)[:len(home)].translate(colours)
        request = targets(shown)
    stickers = list(state.stickers)
    for position, sticker in zip(orbit.positions, shown.decode()):
        stickers[position] = sticker
    return tuple(parts), CubeState(state.n, ''.join(stickers))


def _conjugate(piece, inner, slots, inverse, where):
    '''(setup + core + undo, where after that word), where piece and
    inner are the orbit's from _setup_search, the setup chains the level
    words at slots, the core runs inverted if inverse, and where gives
    the orbit's stickers' positions, all that the word moves (see the
    check of the core in stage_plan).'''
    w, t = inner(slots[-1], inverse)
    w0, i0, t0, u0 = piece(0, slots[0])
    if len(slots) == 2:
        return (*w0, *w, *i0), where.translate(t0).translate(t).translate(u0)
    w1, i1, t1, u1 = piece(1, slots[1])
    return (*w0, *w1, *w, *i1, *i0), where.translate(t0).translate(
        t1).translate(t).translate(u1).translate(u0)


def _mismatch(shown, homes):
    # The first index where they differ, or their length: the byte that
    # holds the top set bit of their XOR, read as big-endian ints.
    differ = int.from_bytes(shown, 'big') ^ int.from_bytes(homes, 'big')
    return len(homes) - 1 - (differ.bit_length() - 1 >> 3)


def _perm_targets(orbit, homes, shown):
    perm, _ = read_orbit(shown.decode(), orbit)
    home = next((s for s, image in enumerate(perm) if image != s), None)
    if home is None:
        return None
    # Any third slot above the working home keeps the smallest unplaced
    # home strictly increasing, so the loop terminates whether the slot
    # it routes through was placed yet or not; the walk never offers s.
    return perm[home], home, home.__lt__


def _wing_targets(orbit, homes, shown):
    '''_perm_targets of a wing orbit by a mismatch scan, exact as the law
    leaves every wing unturned, showing its home colours in order.'''
    h = _mismatch(shown, homes) >> 1 << 1
    if h == len(homes):
        return None
    s = shown.find(homes[h:h + 2], h + 2)
    while s & 1:
        s = shown.find(homes[h:h + 2], s + 1)
    return s >> 1, h >> 1, (h >> 1).__lt__


def _center_targets(orbit, homes, shown):
    h = _mismatch(shown, homes)
    if h == len(homes):
        return None
    # Homes list each colour's slots together: s is the first slot past
    # h's colour to show it. Third slot: any other wrong slot, or a
    # correct one of the colour leaving h (it gets its colour back), which
    # covers the two-slot swap a bare 3-cycle of wrong slots never could.
    color, leaving = homes[h], shown[h]
    return (shown.find(color, homes.rfind(color) + 1), h,
            lambda t: shown[t] != homes[t] or homes[t] == leaving)


def _orientation_targets(orbit, homes, shown):
    '''Pairs (a, b) for the first misoriented slot a. The twist core
    turns the slot on its first base by +1 and the one on its second by
    -1, so a's twist of +1 is undone by (b, a) forward or (a, b)
    inverted, and a twist of -1 the other way round. The flip core
    flips both slots and always runs forward.'''
    _, values = read_orbit(shown.decode(), orbit)
    nonzero = [s for s, v in enumerate(values) if v]
    if not nonzero:
        return None
    assert len(nonzero) >= 2, 'the orientation sum law leaves no lone slot'
    a = nonzero[0]
    twist = orbit.turns == 3
    wanted = {}
    for b in nonzero[1:]:
        first, second = ((b, a), (a, b)) if twist and values[a] == 1 \
            else ((a, b), (b, a))
        wanted.setdefault(first, False)
        wanted.setdefault(second, twist)
    return wanted


def _signs_aligned(atlas, state, reads):
    config = decompose(state, reads)
    return all(_sign(config.orbit_fields(orbit)[0]) == 1
               for orbit in atlas.orbits)


# After sign alignment the stages run in this order, one per orbit of
# the family: (family, stage name, targets, core word builder, and the
# orbit field the stage brings to identity: 0 permutation, 1
# orientation).
_PLAN = (
    ('corner', 'corner_placement', _perm_targets,
     lambda spec, _key: corner_three_cycle(spec), 0),
    ('single', 'single_edge_placement', _perm_targets,
     lambda spec, _key: single_edge_three_cycle(spec), 0),
    ('center_corner', 'center_corner_placement_%d', _center_targets,
     lambda spec, i: center_three_cycle(spec, i, i), 0),
    ('coupled', 'coupled_placement_%d', _wing_targets,
     coupled_edge_three_cycle, 0),
    ('center_edge', 'center_edge_placement_%d_%d', _center_targets,
     lambda spec, label: center_three_cycle(spec, *label), 0),
    ('corner', 'corner_orientation', _orientation_targets,
     lambda spec, _key: corner_twist_pair(spec), 1),
    ('single', 'single_edge_orientation', _orientation_targets,
     lambda spec, _key: single_edge_flip_pair(spec), 1),
)


@functools.lru_cache(maxsize=None)
def stage_plan(spec):
    '''The ordered stages a solve of this cube size runs through.'''
    atlas = build_atlas(spec)
    stages = [Stage('sign_alignment',
                    lambda state, reads: _signs_aligned(atlas, state, reads),
                    lambda state: _run_sign_alignment(atlas, state))]
    identity = identity_tuple(spec)
    for family, name, targets, word, field in _PLAN:
        for orbit in atlas.orbits:
            if orbit.family != family:
                continue
            core = word(spec, orbit.key)
            # A pass rewrites only the orbit's stickers, which is exact
            # only while the core moves none outside them (rest id).
            if ('rest id', True) not in (c[:2] for c in core.report.checks):
                raise AssertionError('the core word of the %s moves '
                                     'stickers outside it' % orbit.name)
            stages.append(Stage(
                name if orbit.key is None else name % orbit.key,
                lambda state, reads, o=orbit, f=field,
                    ident=identity.orbit_fields(orbit)[field]:
                    kept_read(atlas, state.stickers, o, reads)[2][f] == ident,
                functools.partial(
                    _run_orbit, orbit=orbit,
                    setup=functools.cache(functools.partial(
                        _setup_search, spec, orbit, core)),
                    targets=functools.partial(targets, orbit,
                                              orbit.homes.encode()))))
    return tuple(stages)


def stage_names(spec):
    return tuple(stage.name for stage in stage_plan(spec))


def _checked(state, reads):
    '''NotSolvable unless the state obeys the law; the decomposition
    fills reads, the solve's kept reads, for the state.'''
    report = check_validity(decompose(state, reads))
    if not report.valid:
        raise NotSolvable(report)


def _run_stage(stage, state, reads):
    '''Run one stage and check its postcondition through the kept
    reads, which it brings up to the new state; returns (sequence,
    state after the stage).'''
    sequence, state = stage.run(state)
    if not stage.done(state, reads):
        raise AssertionError(
            'stage %s missed its postcondition' % stage.name)
    return sequence, state


def solve(state):
    '''Solve a valid state, returning the full stage trace.

    Raises NotSolvable when the state breaks the law (the report rides
    along on the exception) and NotAConfiguration when the stickers are
    not a reassembly at all.
    '''
    spec = state.spec
    reads = {}
    _checked(state, reads)
    steps = []
    total = []
    for stage in stage_plan(spec):
        sequence, state = _run_stage(stage, state, reads)
        steps.append((stage.name, sequence, state))
        total.extend(sequence)
    if state != solved_state(spec):
        raise AssertionError('pipeline finished without solving the cube')
    return SolveTrace(n=spec.n, steps=tuple(steps), total=tuple(total))


def solve_stage(state, stage_name):
    '''Run one named stage, checking every earlier stage is already
    done; returns (sequence, state after the stage).'''
    reads = {}
    _checked(state, reads)
    plan = stage_plan(state.spec)
    names = [stage.name for stage in plan]
    if stage_name not in names:
        raise ValueError('unknown stage %r; this cube has: %s'
                         % (stage_name, ', '.join(names)))
    index = names.index(stage_name)
    for earlier in plan[:index]:
        if not earlier.done(state, reads):
            raise StageOrderViolation(
                'stage %s runs after %s, which is not done'
                % (stage_name, earlier.name))
    return _run_stage(plan[index], state, reads)
