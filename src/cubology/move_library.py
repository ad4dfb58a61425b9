'''Short move words with machine-checked effects.

Each builder returns a NamedMove: a word in the slice-move grammar plus a
descriptor of what it is supposed to do (one orbit touched, a stated cycle
type there, identity everywhere else). The descriptor is re-verified on
construction for the requested cube size, a word that fails it raises
BrokenWord, and the NamedMove keeps the report that verified it, so
holding a NamedMove is holding a checked fact about that cube. The
report names the slots the effect acts on, and the solver reads its base
slots from there.

Cycle verification runs on the raw sticker permutation of the word rather
than on the canonical ConfigTuple. Centre orbits carry four stickers of
each colour, and when one leg of a 3-cycle joins two same-coloured
stickers, the canonical relabeling in decompose() folds that leg away and
reports a longer cycle. The sticker permutation has no such ambiguity: the
word either moves exactly the stickers of three slots of the named orbit
or it does not. Orientation-pair words are checked through decompose()
instead, since twists and flips are defined by the decomposition and the
relabeling is harmless on corners and single edges.
'''

from dataclasses import dataclass

from .cube_model import (
    apply_sequence,
    parse_move_sequence,
    sequence_permutation,
    solved_state,
)
from .cubology_law import check_validity
from .decomposition import (
    build_atlas,
    decompose,
    orbit_name,
    permutation_sign,
)


class EvenCube(ValueError):
    '''A word that needs the single-edge family was asked of an even cube.'''


class OddCube(ValueError):
    '''A word defined only for even cubes was asked of an odd cube.'''


class IndexOutOfRange(ValueError):
    '''The slice indices name an orbit the cube's atlas does not list.'''


class BrokenWord(ValueError):
    '''A named word fails the contract its descriptor states.'''


@dataclass(frozen=True)
class EffectDescriptor:
    '''What a word is supposed to do to the piece families.

    kind is one of 'three_cycle', 'twist_pair', 'flip_pair' or
    'odd_permutation'. family uses the atlas names ('corner', 'single',
    'coupled', 'center_corner', 'center_edge') and key is the orbit index
    or label where the family has several orbits, None otherwise. Slots
    outside the named orbit must stay fixed, except where the kind itself
    allows motion: a three_cycle on corners may twist the cycled corners,
    and an odd_permutation may move centres as long as the first law still
    accounts for them.
    '''

    kind: str
    family: str
    key: object = None

    def describe(self):
        wording = {
            'three_cycle': '3-cycle on %s, rest id',
            'twist_pair': 'twist pair on %s, permutations id',
            'flip_pair': 'flip pair on %s, permutations id',
            'odd_permutation':
                'odd permutation on %s, corners and single edges fixed',
        }[self.kind]
        return wording % orbit_name(self.family, self.key)


@dataclass(frozen=True)
class EffectReport:
    '''Outcome of checking a word against a descriptor. slots are the
    slots the effect acts on: (b0, b1, b2) with b0 -> b1 -> b2 from the
    lowest moved slot for a 3-cycle, the pair sorted by (orientation
    value, slot) for a twist or flip pair, () otherwise.'''

    ok: bool
    checks: tuple
    slots: tuple

    def failing(self):
        return tuple(c for c in self.checks if not c[1])


@dataclass(frozen=True)
class NamedMove:
    '''A verified word: its name, its move tuple, the effect it promises
    and the report that verified that effect on construction.'''

    name: str
    sequence: tuple
    expected_effect: EffectDescriptor
    report: EffectReport


def _rest_id(orbit, slots, moved, where, checks):
    '''No sticker may move outside the given slots of the orbit.'''
    allowed = {p for s in slots for p in orbit.slots[s].positions}
    stray = sorted(moved - allowed)
    checks.append(('rest id', not stray,
                   'stickers outside the %s move: %s' % (where, stray[:8])
                   if stray else 'no sticker outside the %s moves' % where))


def _check_three_cycle(atlas, perm, moved, descriptor, checks):
    try:
        orbit = atlas.orbit(descriptor.family, descriptor.key)
        action = atlas.slot_action(perm, orbit)
    except (ValueError, KeyError) as exc:
        checks.append(('orbit action', False, str(exc)))
        return ()
    cycled = [s for s, t in enumerate(action) if t != s]
    if len(cycled) != 3:
        checks.append(('single 3-cycle', False,
                       '%d slots move: %s' % (len(cycled), cycled)))
        return ()
    a = cycled[0]
    slots = (a, action[a], action[action[a]])
    checks.append(('single 3-cycle', action[slots[2]] == a,
                   'slots (%d %d %d)' % slots))
    _rest_id(orbit, cycled, moved, 'cycled slots', checks)
    return slots


def _check_orientation_pair(atlas, perm, moved, after, descriptor, checks):
    orbit = atlas.orbit(descriptor.family)
    slot_perm, orientation = decompose(after).orbit_fields(orbit)
    perm_id = slot_perm == tuple(range(len(slot_perm)))
    touched = {s: v for s, v in enumerate(orientation) if v}
    # Two slots whose orientations cancel: +1 and -1 twists, or two flips.
    good = len(touched) == 2 and sum(touched.values()) % orbit.turns == 0
    label = ('two twists, +1 and -1' if descriptor.kind == 'twist_pair'
             else 'two flips')
    checks.append(('family permutation id', perm_id, 'perm fixed'))
    checks.append((label, good, 'slots %s' % sorted(touched)))
    _rest_id(orbit, touched, moved, 'pair', checks)
    return tuple(sorted(touched, key=lambda s: (touched[s], s)))


def _check_odd_permutation(atlas, perm, moved, after, descriptor, checks):
    frozen = {p for orbit in atlas.orbits
              if orbit.family in ('corner', 'single')
              for slot in orbit.slots for p in slot.positions}
    stray = sorted(moved & frozen)
    checks.append(('corners and single edges fixed', not stray,
                   'sticker positions %s move' % stray[:8]
                   if stray else 'all fixed'))
    try:
        orbit = atlas.orbit('coupled', descriptor.key)
        action = atlas.slot_action(perm, orbit)
    except (ValueError, KeyError) as exc:
        checks.append(('orbit action', False, str(exc)))
        return ()
    sign = permutation_sign(action)
    checks.append(('odd permutation on the orbit', sign == -1,
                   'sign %+d' % sign))
    report = check_validity(decompose(after))
    checks.append(('state stays solvable', report.valid,
                   'first law holds' if report.valid
                   else str(report.failing())))
    return ()


def verify_cycle_structure(spec, sequence, descriptor):
    '''Check a word against a descriptor, returning an EffectReport.

    The report carries one (label, passed, detail) triple per check, so
    a failure names the actual observed effect, and the slots the effect
    acts on.
    '''
    atlas = build_atlas(spec)
    perm = sequence_permutation(spec, sequence)
    moved = frozenset(p for p, q in enumerate(perm) if q != p)
    checks = []
    if descriptor.kind == 'three_cycle':
        slots = _check_three_cycle(atlas, perm, moved, descriptor, checks)
    elif descriptor.kind in ('twist_pair', 'flip_pair'):
        slots = _check_orientation_pair(
            atlas, perm, moved, apply_sequence(solved_state(spec), sequence),
            descriptor, checks)
    elif descriptor.kind == 'odd_permutation':
        slots = _check_odd_permutation(
            atlas, perm, moved, apply_sequence(solved_state(spec), sequence),
            descriptor, checks)
    else:
        raise ValueError('unknown effect kind %r' % (descriptor.kind,))
    return EffectReport(ok=all(c[1] for c in checks), checks=tuple(checks),
                        slots=slots)


def _named(name, spec, text, descriptor):
    try:
        build_atlas(spec).orbit(descriptor.family, descriptor.key)
    except ValueError:
        raise IndexOutOfRange('a %d-cube has no %s' % (
            spec.n, orbit_name(descriptor.family, descriptor.key))) from None
    sequence = parse_move_sequence(text, spec)
    report = verify_cycle_structure(spec, sequence, descriptor)
    if not report.ok:
        raise BrokenWord(
            'word for %s fails its contract on n=%d: %s'
            % (name, spec.n, report.failing()))
    return NamedMove(name, sequence, descriptor, report)


def corner_three_cycle(spec):
    '''[[R:U],D]: 3-cycle on corners, identity elsewhere apart from the
    cycled corners' twists. Works on every cube size.'''
    return _named('corner_three_cycle', spec, "[[R:U],D]",
                  EffectDescriptor('three_cycle', 'corner'))


def single_edge_three_cycle(spec):
    '''[F,[R:S]]: 3-cycle on single edges, identity elsewhere. Odd cubes
    only, since even cubes have no single-edge family.'''
    if spec.n % 2 == 0:
        raise EvenCube('a %d-cube has no single edges' % spec.n)
    return _named('single_edge_three_cycle', spec, "[F,[R:S]]",
                  EffectDescriptor('three_cycle', 'single'))


def center_three_cycle(spec, i, j):
    '''[[jR',iD],F']: 3-cycle on the diagonal centre orbit i when i = j,
    on the off-diagonal centre orbit (i, j) when i differs from j. When j
    names the central column of an odd cube the slice is written M, which
    is the same slab turned the other way.'''
    if spec.central_depth is not None and j == spec.central_depth:
        text = "[[M,%dD],F']" % i
    else:
        text = "[[%dR',%dD],F']" % (j, i)
    if i == j:
        descriptor = EffectDescriptor('three_cycle', 'center_corner', i)
    else:
        descriptor = EffectDescriptor('three_cycle', 'center_edge', (i, j))
    return _named('center_three_cycle', spec, text, descriptor)


def coupled_edge_three_cycle(spec, i):
    '''[[F',U],iD]: 3-cycle on coupled orbit i, identity elsewhere.'''
    return _named('coupled_edge_three_cycle', spec, "[[F',U],%dD]" % i,
                  EffectDescriptor('three_cycle', 'coupled', i))


def coupled_edge_parity_move(spec, i):
    '''An odd permutation on coupled orbit i that fixes every corner and
    single edge; centres move only in ways the first law accounts for.

    The word conjugates a core of U2/F2 slab turns by the self-inverse
    prefix R2 2R2 .. iR2 B2. Read as plain concatenation the two halves
    leave the corners permuted, which breaks the contract, so the grouped
    reading prefix * core * prefix' is used; it checks out on every even
    cube in range.'''
    if spec.n % 2:
        raise OddCube('a %d-cube has no coupled-orbit parity move' % spec.n)
    prefix = 'R2 ' + ' '.join('%dR2' % d for d in range(2, i + 1)) + ' B2'
    core = "U2 %dL U2 %dR' U2 %dR U2 F2 %dR F2 %dL'" % (i, i, i, i, i)
    return _named('coupled_edge_parity_move', spec,
                  '[%s:%s]' % (prefix, core),
                  EffectDescriptor('odd_permutation', 'coupled', i))


def corner_twist_pair(spec):
    '''[[F,L']2,U]: every permutation identity, two corners twisted by
    +1 and -1. Works on every cube size.'''
    return _named('corner_twist_pair', spec, "[[F,L']2,U]",
                  EffectDescriptor('twist_pair', 'corner'))


def single_edge_flip_pair(spec):
    '''[FEF2E2F,U]: every permutation identity, two single edges flipped.
    Odd cubes only.'''
    if spec.n % 2 == 0:
        raise EvenCube('a %d-cube has no single edges' % spec.n)
    return _named('single_edge_flip_pair', spec, "[FEF2E2F,U]",
                  EffectDescriptor('flip_pair', 'single'))


def all_named_moves(spec):
    '''Every named move whose preconditions hold on this cube size, each
    verified on construction.'''
    moves = [corner_three_cycle(spec), corner_twist_pair(spec)]
    if spec.n % 2:
        moves.append(single_edge_three_cycle(spec))
        moves.append(single_edge_flip_pair(spec))
    atlas = build_atlas(spec)
    for i in atlas.coupled_orbit_indices:
        moves.append(coupled_edge_three_cycle(spec, i))
        if spec.n % 2 == 0:
            moves.append(coupled_edge_parity_move(spec, i))
    # A diagonal centre orbit i is the label (i, i).
    labels = [(i, i) for i in atlas.center_corner_indices]
    for i, j in sorted(labels + list(atlas.center_edge_labels)):
        moves.append(center_three_cycle(spec, i, j))
    return moves
