'''Decomposition of cube states into independent piece orbits.

A sticker state can be read as a reassembly of physical pieces: corner
cubies, edge cubies, and centre facelets. Pieces fall into orbits that
never mix under slab moves:

  * 8 corner cubies (three stickers each),
  * on odd cubes, 12 single edge cubies in the central slab (two stickers),
  * for each slab depth i in 2..n//2, 24 coupled edge wings (two stickers),
  * for each depth i, 24 oblique centre facelets on the diagonals,
  * for each label (i, j) with i != j, 24 off-diagonal centre facelets,
  * on odd cubes, 6 immobile face centres.

build_atlas() classifies every sticker by one rule, its fold: the
sticker's (row, col) on its own face, quarter-turned about the face
centre until it lies in rows 0..n//2-1 and columns 0..(n+1)//2-1. The
immobile face centre of an odd cube never gets there. A cell with three
stickers is a corner; two stickers with equal folds are a single edge;
two stickers folding to (0, d-1) and (d-1, 0) are a wing at depth d; one
sticker folding to (r, c) is in diagonal centre orbit r+1 when r = c and
in off-diagonal centre orbit (r+1, c+1) otherwise. The one cross-check
against the move engine is that the stickers sharing a fold are exactly
the sticker orbits of the legal slab moves. The atlas is an
OrbitAtlas, cached per cube size, whose `orbits` tuple holds one Orbit
record per orbit, in the order corners, single edges, wings by depth,
diagonal centres by depth, off-diagonal centres by label. An Orbit names
its family and key (the depth or label) and lists its slots; a Slot
lists its sticker positions and the colours its home piece shows there,
reference sticker first. decompose() and compose() read the atlas of the
cube they are given. Its `sign_sources` maps each orbit the first law
ties, the single edges and the centres, to the free orbits whose signs
multiply to the sign the law demands of it; the free orbits, the
corners and the wings, are the ones it lacks.

decompose() cuts a state into a ConfigTuple: one permutation per orbit
plus an orientation vector for every orbit whose slots hold more than
one sticker. compose() reassembles the sticker state from a tuple with
one rule for every orbit: the piece from home slot h that sits in slot d
with orientation o paints colours[k] of h onto positions[(k + o) % m] of
d, where m is the number of stickers per slot. So orientation is a
corner twist mod 3, a single-edge flip or a wing bit mod 2, and always 0
for one-sticker centres.

Reference stickers. Corners: the reference sticker of a corner is its U
or D facelet, and the other two positions follow clockwise when the
corner is viewed from outside. Single edges: one facelet of each edge
slot is marked, the one on the face whose axis comes first in the cycle
x -> y -> z -> x (U/D over F/B, F/B over L/R, L/R over U/D), so that
every outer face turn flips all four edges it moves; the marked facelet
comes first. Coupled wings: the sticker folding into row 0 comes first;
the two folds of a depth are the two sticker classes no slab move
exchanges, so a wing bit of 1 says the occupant sits with its leading
sticker on the trailing class. Sticker colours cannot
distinguish a wing from its mirror twin, so decompose() resolves each
twin pair canonically: bits are zeroed where possible and ties send the
lower home to the lower slot. Centre facelets of one colour are
interchangeable as well, so decompose() assigns them in sorted order and
then, if needed, swaps one pair in the first colour class to land the
permutation sign demanded by the first law; states that admit a legal
tuple therefore receive one.

Reading tables. One call, orbit.read(stickers), lists an orbit's
stickers slot by slot, so the k-th sticker of every slot is
local[k::turns] of that read. Each Orbit also builds once shows[h][o],
the colours a slot shows when it holds home h's piece with orientation
o, and readings, its inverse for corners and single edges; for wings,
home_of (the home whose unturned colours a slot shows) and twin (each
home's mirror twin); for centres, the homes in stable colour order. A
wing orbit is read in one pass over its slots and a centre orbit by
one stable argsort of its colours. Only a read that fails scans the
orbit again, to name its first fault: wing slot faults in slot order,
then wing pair counts in home order, and for centres the first colour
in sorted order whose count is wrong.

compose() writes that layout: per orbit, bytes.maketrans inverts the
permutation (for centres, straight into the home colours) and shows
gives each slot's colours; one gather, OrbitAtlas.paint, takes the
immobile centres' colours and every orbit's, in orbit order, to
sticker order.
'''

import functools
import operator
from dataclasses import dataclass, field

from .cube_model import (
    COLORS,
    FACE_NORMAL,
    FACES,
    CubeSpec,
    CubeState,
    legal_slab_moves,
    slab_map,
    solved_state,
    sticker_position,
)

# Each piece family, in atlas order: how reports name it, and its
# ConfigTuple fields, the permutation and the orientation vector (None for
# one-sticker centres). Families with a key hold dicts keyed by it.
FAMILIES = {
    'corner': ('corners', 'corner_perm', 'corner_twists'),
    'single': ('single edges', 'single_edge_perm', 'single_edge_flips'),
    'coupled': ('coupled orbit', 'coupled_perms', 'coupled_orientations'),
    'center_corner': ('diagonal centre orbit', 'center_corner_perms', None),
    'center_edge': ('off-diagonal centre orbit', 'center_edge_perms', None),
}


def orbit_name(family, key=None):
    '''How reports name an orbit: its family in words, then its key.'''
    word = FAMILIES[family][0]
    return word if key is None else '%s %s' % (word, key)


class NotAConfiguration(ValueError):
    '''The sticker state is not any reassembly of the cube's pieces.'''


class ShapeMismatch(ValueError):
    '''A ConfigTuple does not fit the piece families of the given cube.'''


def permutation_sign(perm):
    '''Sign (+1 or -1) of a permutation given as an image sequence.'''
    perm = tuple(perm)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError('not a permutation: %r' % (perm,))
    return _sign(perm)


def _sign(perm):
    '''permutation_sign of a permutation the program built or already
    checked, without checking it again: (-1) ** (size - cycles).'''
    seen = bytearray(len(perm))
    even = True
    for start in range(len(perm)):
        if seen[start]:
            continue
        # A cycle of length k is k - 1 transpositions.
        node = perm[start]
        while node != start:
            seen[node] = 1
            node = perm[node]
            even = not even
    return 1 if even else -1


def _edge_marking():
    '''The marked face of each edge type, keyed by its face pair.

    The marking is the bookkeeping behind edge flips: an edge move of a
    state is counted as a flip exactly when the sticker from the source
    slot's marked face lands on the destination slot's unmarked face.
    In each face pair the face whose axis comes first in the cycle
    x -> y -> z -> x is marked: U/D over F/B, F/B over L/R, L/R over U/D.
    An outer face turn keeps one sticker of each edge it moves on the
    turning axis and carries the other between the two remaining axes;
    the turning axis comes first in one of those pairs and second in
    the other, so the marked sticker always lands on the unmarked face:
    every outer face turn flips all four edges it moves.
    '''
    axis = {face: next(k for k in range(3) if FACE_NORMAL[face][k])
            for face in FACES}
    return {frozenset((a, b)): a for a in FACES for b in FACES
            if (axis[b] - axis[a]) % 3 == 1}


@dataclass(frozen=True)
class Slot:
    '''Sticker positions of one piece slot and the colours its home piece
    shows there, reference sticker first.'''

    positions: tuple
    colors: tuple


@dataclass(frozen=True, eq=False)
class Orbit:
    '''The slots of one orbit of pieces under the slab moves.

    family is 'corner', 'single', 'coupled', 'center_corner' or
    'center_edge'; key is the slab depth of a wing or diagonal centre
    orbit, the (i, j) label of an off-diagonal centre orbit, and None
    for corners and single edges. Orbits compare by identity: each
    exists once, in its atlas.
    '''

    family: str
    key: object
    slots: tuple

    @functools.cached_property
    def turns(self):
        '''Stickers per slot, which is also the orientation modulus.'''
        return len(self.slots[0].positions)

    @property
    def name(self):
        return orbit_name(self.family, self.key)

    @functools.cached_property
    def positions(self):
        '''Every sticker position of the orbit, slot by slot: the k-th
        sticker of slot s is entry s * turns + k.'''
        return tuple(p for slot in self.slots for p in slot.positions)

    @functools.cached_property
    def read(self):
        '''read(stickers): every sticker of the orbit, in the order of
        positions, read by one call.'''
        return operator.itemgetter(*self.positions)

    @functools.cached_property
    def home_of(self):
        '''Colours a home piece shows unturned, mapped to that home.'''
        return {slot.colors: home for home, slot in enumerate(self.slots)}

    @functools.cached_property
    def twin(self):
        '''Wings: each home's mirror twin, the home showing its colours
        reversed.'''
        return tuple(self.home_of[slot.colors[::-1]] for slot in self.slots)

    @functools.cached_property
    def homes(self):
        '''The solved orbit's colours as orbit.read lays them out.'''
        return ''.join(c for slot in self.slots for c in slot.colors)

    @functools.cached_property
    def homes_by_color(self):
        '''Centres: the homes in stable colour order.'''
        homes = self.homes
        return tuple(sorted(range(len(homes)), key=homes.__getitem__))

    @functools.cached_property
    def shows(self):
        '''shows[h][o]: the colours a slot shows, in position order, when
        it holds the piece from home h with orientation o, which paints
        colour k of the piece onto position (k + o) % turns.'''
        m = self.turns
        return tuple(tuple(''.join(slot.colors[m - o:] + slot.colors[:m - o])
                           for o in range(m)) for slot in self.slots)

    @functools.cached_property
    def readings(self):
        '''Colours a slot shows, in position order, mapped to (home slot,
        orientation) of the piece showing them; only meaningful for
        orbits of distinct cubies (corners, single edges).'''
        return {tuple(shown): (home, o)
                for home, row in enumerate(self.shows)
                for o, shown in enumerate(row)}

    @functools.cached_property
    def shape(self):
        '''(slot count, slot set, orientation set) for validate_shape.'''
        size = len(self.slots)
        return size, frozenset(range(size)), frozenset(range(self.turns))


class OrbitAtlas:
    '''Catalogue of piece orbits and their slots for one cube size.

    `orbits` is the one table; orbit(family, key) looks one up, and the
    key tuples list the wing depths, diagonal centre depths and
    off-diagonal centre labels the cube has. `sign_sources` maps each
    orbit the first law ties to the free orbits whose signs multiply to
    the sign it must have; the free orbits are the ones it lacks.
    '''

    def __init__(self, spec, orbits, fixed_centers):
        self.spec = spec
        self.orbits = tuple(orbits)
        self.fixed_centers = fixed_centers
        self._by_name = {(o.family, o.key): o for o in self.orbits}

        def keys(family):
            return tuple(o.key for o in self.orbits if o.family == family)
        self.coupled_orbit_indices = keys('coupled')
        self.center_corner_indices = keys('center_corner')
        self.center_edge_labels = keys('center_edge')
        self.position_owner = {}
        for orbit in self.orbits:
            for slot_id, slot in enumerate(orbit.slots):
                for pos in slot.positions:
                    self.position_owner[pos] = (orbit, slot_id)
        # A tied orbit's sources are the corners and, for a label (i, j),
        # the wings at depths i and j (the odd central slab has none).
        # Each tied orbit comes after its sources in orbits, which the
        # sampler relies on.
        corners = (self._by_name['corner', None],)
        self.sign_sources = {}
        for orbit in self.orbits:
            if orbit.family not in ('corner', 'coupled'):
                depths = orbit.key if orbit.family == 'center_edge' else ()
                wings = (self._by_name.get(('coupled', d)) for d in depths)
                self.sign_sources[orbit] = corners + tuple(filter(None, wings))

    def orbit(self, family, key=None):
        '''The orbit of a family and key.'''
        try:
            return self._by_name[(family, key)]
        except KeyError:
            raise ValueError('no %s orbit %r on a %d-cube'
                             % (family, key, self.spec.n)) from None

    @functools.cached_property
    def paint(self):
        '''(fixed, gather): compose lists the immobile centres' colours,
        fixed, then every orbit's, in orbit order and as orbit.read lays
        them out; gather takes that list to sticker order.'''
        fixed = self.fixed_centers or ()
        order = [p for p, _ in fixed] + [p for o in self.orbits
                                         for p in o.positions]
        if set(range(self.spec.sticker_count)).difference(order):
            raise AssertionError('reassembly left a position unpainted')
        where = {p: k for k, p in enumerate(order)}
        return ''.join(c for _, c in fixed), operator.itemgetter(
            *map(where.__getitem__, range(self.spec.sticker_count)))

    def slot_action(self, perm, orbit):
        '''Slot permutation induced by a sticker permutation on one orbit.

        Returns images indexed by slot: the piece in slot a moves to
        slot action[a]. The sticker permutation must preserve the
        orbit, which holds for every legal non-central slab move.
        '''
        images = []
        for slot in orbit.slots:
            owner, slot_id = self.position_owner[perm[slot.positions[0]]]
            if owner is not orbit:
                raise ValueError('permutation leaves family %s'
                                 % orbit.family)
            images.append(slot_id)
        return tuple(images)


# The colours of every centre orbit, sorted: each colour four times.
_CENTER_COLORS = sorted(COLORS * 4)


def _orbit_components(spec):
    '''Partition sticker positions into orbits of the legal slab moves.'''
    parent = list(range(spec.sticker_count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for move in legal_slab_moves(spec):
        for src, dst in slab_map(spec, move).items():
            union(src, dst)
    components = {}
    for pos in range(spec.sticker_count):
        components.setdefault(find(pos), []).append(pos)
    return list(components.values())


def _fold(n, index):
    '''A sticker's (row, col) on its face, quarter-turned about the face
    centre into rows 0..n//2-1 and columns 0..(n+1)//2-1; None for an
    immobile face centre, which no turn brings there.'''
    row, col = divmod(index % (n * n), n)
    for _ in range(4):
        if row < n // 2 and col < (n + 1) // 2:
            return row, col
        row, col = col, n - 1 - row
    return None


def build_atlas(spec):
    '''Build (and cache) the orbit catalogue for one cube size.'''
    return _atlas_of(spec.n)


@functools.lru_cache(maxsize=None, typed=True)
def _atlas_of(n):
    '''build_atlas, looked up by n alone; validate_shape leaves CubeSpec
    to refuse a size that is not an int, hashable or not.'''
    spec = CubeSpec(n)
    colors = solved_state(spec).stickers
    folds = [_fold(n, index) for index in range(spec.sticker_count)]
    # Stickers sharing a fold must be exactly the orbits of the legal
    # slab moves; each immobile centre is an orbit of its own.
    fold_classes = {}
    for index, fold in enumerate(folds):
        fold_classes.setdefault(fold or index, []).append(index)
    if sorted(fold_classes.values()) != sorted(_orbit_components(spec)):
        raise AssertionError('folded positions differ from the move orbits')

    def face(p):
        return FACES[p // (n * n)]

    marks = _edge_marking()
    cells = {}
    for index in range(spec.sticker_count):
        cells.setdefault(sticker_position(spec, index)[0], []).append(index)
    slots = {}
    fixed_centers = []
    for stickers in cells.values():
        folded = [folds[p] for p in stickers]
        if len(stickers) == 3:
            # The U/D sticker first, then the other two clockwise.
            first, a, b = sorted(stickers, key=lambda p: face(p) not in 'UD')
            if _det3(*(FACE_NORMAL[face(p)] for p in (first, a, b))) != -1:
                a, b = b, a
            name, positions = ('corner', None), (first, a, b)
        elif len(stickers) == 2 and folded[0] == folded[1]:
            marked = marks[frozenset(map(face, stickers))]
            name = ('single', None)
            positions = sorted(stickers, key=lambda p: face(p) != marked)
        elif len(stickers) == 2:
            # A wing's lead sticker folds into row 0, to (0, depth - 1).
            positions = sorted(stickers, key=lambda p: folds[p][0])
            name = ('coupled', folds[positions[0]][1] + 1)
        elif folded[0] is None:
            fixed_centers.append((stickers[0], colors[stickers[0]]))
            continue
        else:
            row, col = folded[0]
            name = (('center_corner', row + 1) if row == col
                    else ('center_edge', (row + 1, col + 1)))
            positions = stickers
        slots.setdefault(name, []).append(
            Slot(tuple(positions), tuple(colors[p] for p in positions)))

    order = list(FAMILIES)
    orbits = []
    for family, key in sorted(slots, key=lambda k: (order.index(k[0]), k[1])):
        orbit = Orbit(family, key, tuple(
            sorted(slots[family, key], key=lambda s: s.positions)))
        if family == 'coupled':
            shown = {s.colors for s in orbit.slots}
            if len(shown) != len(orbit.slots) or any(
                    lead == trail or (trail, lead) not in shown
                    for lead, trail in shown):
                raise AssertionError('wing twins of %s are not mirror images'
                                     % orbit.name)
        if orbit.turns == 1 and sorted(orbit.homes) != _CENTER_COLORS:
            raise AssertionError('centre orbit colours are not 6 x 4')
        orbits.append(orbit)
    return OrbitAtlas(spec, orbits, tuple(fixed_centers) or None)


def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


# Each family's ConfigTuple fields, taken from FAMILIES once: decompose
# and compose look them up once per orbit.
_FIELDS = {family: row[1:] for family, row in FAMILIES.items()}
# Every field of a ConfigTuple that holds an entry, read by one call.
_ENTRIES = operator.attrgetter(*filter(None, sum(_FIELDS.values(), ())))


@dataclass
class ConfigTuple:
    '''Per-family permutations and orientation vectors of one state.

    Permutations map home slots to current slots: perm[a] = b says the
    piece whose home is slot a sits in slot b. Orientation vectors are
    indexed by current slot. Wing and centre families are keyed by slab
    depth, off-diagonal centre families by their (row, col) depth label.
    Single-edge fields are None on even cubes. ConfigTuple(n) is an empty
    tuple for set_orbit_fields to fill.
    '''

    n: int
    corner_perm: tuple = None
    corner_twists: tuple = None
    single_edge_perm: object = None
    single_edge_flips: object = None
    coupled_perms: dict = field(default_factory=dict)
    coupled_orientations: dict = field(default_factory=dict)
    center_corner_perms: dict = field(default_factory=dict)
    center_edge_perms: dict = field(default_factory=dict)

    def orbit_fields(self, orbit):
        '''(permutation, orientation vector or None) of one orbit.'''
        perm_name, orientation_name = _FIELDS[orbit.family]
        perm = getattr(self, perm_name)
        orientation = (getattr(self, orientation_name) if orientation_name
                       else None)
        if orbit.key is not None:
            perm = perm[orbit.key]
            if orientation is not None:
                orientation = orientation[orbit.key]
        return perm, orientation

    def set_orbit_fields(self, orbit, perm, orientation=None):
        '''Store one orbit's permutation and, where the orbit has one, its
        orientation vector.'''
        for name, value in zip(_FIELDS[orbit.family], (perm, orientation)):
            if name is None:
                continue
            if orbit.key is None:
                setattr(self, name, value)
            else:
                getattr(self, name)[orbit.key] = value

    def to_json_dict(self):
        '''JSON form: lists for tuples, keys 'i' and 'i,j' as strings.'''
        document = {'n': self.n}
        for name in filter(None, sum(_FIELDS.values(), ())):
            value = getattr(self, name)
            if isinstance(value, dict):
                value = {('%d,%d' % key if isinstance(key, tuple)
                          else str(key)): list(entry)
                         for key, entry in sorted(value.items())}
            elif value is not None:
                value = list(value)
            document[name] = value
        return document


def identity_tuple(spec):
    '''ConfigTuple of the solved state.'''
    config = ConfigTuple(spec.n)
    for orbit in build_atlas(spec).orbits:
        size = len(orbit.slots)
        config.set_orbit_fields(orbit, tuple(range(size)), (0,) * size)
    return config


def _values(entries):
    '''set(entries), or {None}, in no slot or orientation set, if one is
    unhashable.'''
    try:
        return set(entries)
    except TypeError:
        return {None}


def validate_shape(config):
    '''Raise ShapeMismatch unless the tuple fits its cube exactly; returns
    that cube's atlas.'''
    if not isinstance(config, ConfigTuple):
        raise ShapeMismatch('expected a ConfigTuple')
    atlas = _atlas_of(config.n) if isinstance(config.n, int) else \
        build_atlas(CubeSpec(config.n))
    # Count off the entries the tuple holds as the atlas's orbits fill
    # them, so that an entry for an orbit the cube lacks is caught too.
    held = sum(len(value) if isinstance(value, dict) else value is not None
               for value in _ENTRIES(config))
    for orbit in atlas.orbits:
        try:
            perm, orientation = config.orbit_fields(orbit)
        except (KeyError, IndexError, TypeError):
            raise ShapeMismatch('tuple has no entry for the %s'
                                % orbit.name) from None
        size, slots, turns = orbit.shape
        if not isinstance(perm, tuple) or len(perm) != size:
            raise ShapeMismatch('%s permutation must have length %d'
                                % (orbit.name, size))
        if _values(perm) != slots:
            raise ShapeMismatch('%s images are not a permutation'
                                % orbit.name)
        held -= 1
        if orbit.turns > 1:
            if (not isinstance(orientation, tuple)
                    or len(orientation) != size
                    or not _values(orientation) <= turns):
                raise ShapeMismatch('%s orientations must be %d values in '
                                    '0..%d' % (orbit.name, size,
                                               orbit.turns - 1))
            held -= 1
    if held:
        raise ShapeMismatch('tuple holds entries for orbits a %d-cube lacks'
                            % atlas.spec.n)
    return atlas


def decompose(state, reads=None):
    '''Cut a sticker state into its canonical ConfigTuple.

    Raises NotAConfiguration when the stickers cannot be read as any
    reassembly of the cube's pieces (wrong colour counts, torn cubies,
    a displaced immobile centre, and so on). Where several tuples paint
    the same stickers, the canonical one is returned: wing orientation
    bits are zeroed when possible, twin collisions send the lower home
    to the lower slot, and centre assignments are sorted then sign-fixed
    by one swap inside the first colour class.

    reads, when given, is a dict kept across the states of one task,
    such as the stages of one solve, as kept_read() keeps it: an orbit
    matching its kept read is not read again, and its fields are a
    function of what matched, so the tuple is the same.
    '''
    n = state.n
    atlas = _atlas_of(n)
    stickers = state.stickers
    share = n * n
    for color in COLORS:
        count = stickers.count(color)
        if count != share:
            raise NotAConfiguration('colour %s appears %d times, expected %d'
                                    % (color, count, share))

    for position, color in atlas.fixed_centers or ():
        if stickers[position] != color:
            raise NotAConfiguration(
                'immobile centre at position %d shows %s, expected %s'
                % (position, stickers[position], color))

    config = ConfigTuple(n)
    reads = {} if reads is None else reads
    # Centres come last, after the corner and wing reads fixing their signs.
    for orbit in atlas.orbits:
        config.set_orbit_fields(
            orbit, *kept_read(atlas, stickers, orbit, reads)[2])
    return config


def kept_read(atlas, stickers, orbit, reads):
    '''[local, sign, fields] of one orbit as reads keeps it: its stickers
    as orbit.read gives them, its permutation's sign (a corner's or a
    wing's found when a centre first asks) and its decompose fields. A
    centre's sign is the one the first law demands, from the kept reads
    of its sign sources, which must be current. A kept read is reused
    while its stickers and, for a centre, that sign are the state's.'''
    local = orbit.read(stickers)
    sign = None
    if orbit.turns == 1:
        sign = 1
        for source in atlas.sign_sources[orbit]:
            read = reads[source]
            if read[1] is None:
                read[1] = _sign(read[2][0])
            sign *= read[1]
    read = reads.get(orbit)
    if read is None or read[0] != local or (sign and read[1] != sign):
        fields = read_orbit(local, orbit) if sign is None \
            else (_assign_centers(local, orbit, sign),)
        read = reads[orbit] = [local, sign, fields]
    return read


def read_orbit(local, orbit):
    '''Permutation and orientation vector of one corner, single-edge or
    wing orbit, read from its stickers as orbit.read gives them, slot
    by slot; decompose's fields for that orbit.'''
    if orbit.family == 'coupled':
        return _read_wings(local, orbit)
    return _read_cubies(local, orbit)


def _read_cubies(local, orbit):
    '''Permutation and orientations of an orbit of distinct cubies.'''
    readings = orbit.readings
    perm = [None] * len(orbit.slots)
    orientation = [0] * len(orbit.slots)
    for current, shown in enumerate(zip(*[iter(local)] * orbit.turns)):
        reading = readings.get(shown)
        if reading is None:
            if any(set(shown) == set(s.colors) for s in orbit.slots):
                problem = 'a mirrored piece'
            else:
                problem = '%r, not one of its pieces' % (shown,)
            raise NotAConfiguration(
                'slot %d of the %s holds %s' % (current, orbit.name, problem))
        home, o = reading
        if perm[home] is not None:
            raise NotAConfiguration(
                'piece %d of the %s appears twice' % (home, orbit.name))
        perm[home] = current
        orientation[current] = o
    return tuple(perm), tuple(orientation)


def _read_wings(local, orbit):
    '''Permutation and orientation bits of a wing orbit, with mirror
    twins resolved canonically.'''
    home_of, twin = orbit.home_of, orbit.twin
    perm = [None] * len(twin)
    bits = [0] * len(twin)
    for current, shown in enumerate(zip(*[iter(local)] * 2)):
        home = home_of.get(shown)
        if home is None:
            raise _wing_fault(local, orbit)
        if perm[home] is None:
            perm[home] = current
            continue
        other = twin[home]
        if perm[other] is not None:
            raise _wing_fault(local, orbit)
        # Two slots show home's colours unturned, so one of them holds
        # the twin turned over: the lower home takes the lower slot, and
        # the slot holding the twin gets the bit.
        low, high = sorted((home, other))
        perm[low], perm[high] = perm[home], current
        bits[perm[other]] = 1
    return tuple(perm), tuple(bits)


def _wing_fault(local, orbit):
    '''The NotAConfiguration naming the first fault of a wing orbit that
    cannot be read: slot faults in slot order, then pair counts in home
    order.'''
    shown = list(zip(*[iter(local)] * 2))
    for current, (lead, trail) in enumerate(shown):
        if lead == trail:
            return NotAConfiguration('slot %d of the %s shows %r twice'
                                     % (current, orbit.name, lead))
        if (lead, trail) not in orbit.home_of:
            return NotAConfiguration(
                'slot %d of the %s shows %r, not a wing piece'
                % (current, orbit.name, (lead, trail)))
    for slot in orbit.slots:
        count = shown.count(slot.colors) + shown.count(slot.colors[::-1])
        if count != 2:
            return NotAConfiguration(
                'wing pair %r appears %d times in the %s, expected 2'
                % (sorted(slot.colors), count, orbit.name))


def _assign_centers(shown, orbit, required_sign):
    if sorted(shown) != _CENTER_COLORS:
        for color in sorted(COLORS):
            count = shown.count(color)
            if count != 4:
                raise NotAConfiguration(
                    '%s has %d stickers of colour %s, expected 4'
                    % (orbit.name, count, color))
    perm = [None] * len(shown)
    currents = sorted(range(len(shown)), key=shown.__getitem__)
    for home, current in zip(orbit.homes_by_color, currents):
        perm[home] = current
    if _sign(perm) != required_sign:
        a, b = orbit.homes_by_color[:2]
        perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def compose(config):
    '''Reassemble the sticker state described by a ConfigTuple.'''
    atlas = validate_shape(config)
    fixed, gather = atlas.paint
    colors = [fixed]
    for orbit in atlas.orbits:
        perm, orientation = config.orbit_fields(orbit)
        # Slot by slot, the home whose piece the slot holds, or for a
        # centre orbit that home's colour.
        size = len(perm)
        if orientation is None:
            colors.append(bytes.maketrans(bytes(perm), orbit.homes.encode())
                          [:size].decode())
            continue
        homes = bytes.maketrans(bytes(perm), bytes(range(size)))[:size]
        colors += map(operator.getitem, map(orbit.shows.__getitem__, homes),
                      orientation)
    return CubeState(atlas.spec.n, ''.join(gather(''.join(colors))))
