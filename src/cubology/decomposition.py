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

build_atlas() works the orbits out from the move engine and cross-checks
them against orbit closure under the legal slab moves. It returns an
OrbitAtlas, cached per cube size, whose `orbits` tuple holds one Orbit
record per orbit, in the order corners, single edges, wings by depth,
diagonal centres by depth, off-diagonal centres by label. An Orbit names
its family and key (the depth or label) and lists its slots; a Slot
lists its sticker positions and the colours its home piece shows there,
reference sticker first. decompose() and compose() read the atlas of the
cube they are given.

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
comes first. Coupled wings: the 48 wing positions of a depth
split into two classes that no slab move ever exchanges; the sticker on
the leading class comes first, so a wing bit of 1 says the occupant sits
with its leading sticker on the wrong class. Sticker colours cannot
distinguish a wing from its mirror twin, so decompose() resolves each
twin pair canonically: bits are zeroed where possible and ties send the
lower home to the lower slot. Centre facelets of one colour are
interchangeable as well, so decompose() assigns them in sorted order and
then, if needed, swaps one pair in the first colour class to land the
permutation sign demanded by the first law; states that admit a legal
tuple therefore receive one.
'''

import functools
from dataclasses import dataclass, field

from .cube_model import (
    COLORS,
    FACE_COLOR,
    FACE_NORMAL,
    FACES,
    CubeSpec,
    CubeState,
    legal_slab_moves,
    solved_state,
    sticker_permutation,
    sticker_position,
)

FAMILY_WORDS = {
    'corner': 'corners',
    'single': 'single edges',
    'coupled': 'coupled orbit',
    'center_corner': 'diagonal centre orbit',
    'center_edge': 'off-diagonal centre orbit',
}


def orbit_name(family, key=None):
    '''How reports name an orbit: its family in words, then its key.'''
    word = FAMILY_WORDS[family]
    return word if key is None else '%s %s' % (word, key)


class NotAConfiguration(ValueError):
    '''The sticker state is not any reassembly of the cube's pieces.'''


class ShapeMismatch(ValueError):
    '''A ConfigTuple does not fit the piece families of the given cube.'''


def permutation_sign(perm):
    '''Sign (+1 or -1) of a permutation given as an image sequence.'''
    perm = tuple(perm)
    seen = sorted(perm)
    if seen != list(range(len(perm))):
        raise ValueError('not a permutation: %r' % (perm,))
    sign = 1
    visited = [False] * len(perm)
    for start in range(len(perm)):
        if visited[start]:
            continue
        length = 0
        node = start
        while not visited[node]:
            visited[node] = True
            node = perm[node]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


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

    @functools.cached_property
    def rotations(self):
        '''rotations[o][k]: the position colour k of a piece lands on when
        it sits in this slot with orientation o.'''
        p = self.positions
        return tuple(p[o:] + p[:o] for o in range(len(p)))


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
    def readings(self):
        '''Colours a slot shows, in position order, mapped to (home slot,
        orientation) of the piece showing them; only meaningful for
        orbits of distinct cubies (corners, single edges).'''
        out = {}
        for home, slot in enumerate(self.slots):
            colors = slot.colors
            for o in range(self.turns):
                shown = tuple(colors[(m - o) % self.turns]
                              for m in range(self.turns))
                out[shown] = (home, o)
        return out


class OrbitAtlas:
    '''Catalogue of piece orbits and their slots for one cube size.

    `orbits` is the one table; orbit(family, key) looks one up, and the
    key tuples list the wing depths, diagonal centre depths and
    off-diagonal centre labels the cube has.
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
        self.center_classes = {}
        self.position_owner = {}
        for orbit in self.orbits:
            if orbit.turns == 1:
                classes = {}
                for slot_id, slot in enumerate(orbit.slots):
                    classes.setdefault(slot.colors[0], []).append(slot_id)
                self.center_classes[orbit.key] = {
                    color: tuple(ids) for color, ids in classes.items()}
            for slot_id, slot in enumerate(orbit.slots):
                for pos in slot.positions:
                    self.position_owner[pos] = (orbit, slot_id)

    def orbit(self, family, key=None):
        '''The orbit of a family and key.'''
        try:
            return self._by_name[(family, key)]
        except KeyError:
            raise ValueError('no %s orbit %r on a %d-cube'
                             % (family, key, self.spec.n)) from None

    def slot_action(self, perm, family, key=None):
        '''Slot permutation induced by a sticker permutation.

        Returns images indexed by slot: the piece in slot a moves to
        slot action[a]. The sticker permutation must preserve the
        orbit, which holds for every legal non-central slab move.
        '''
        orbit = self.orbit(family, key)
        images = []
        for slot in orbit.slots:
            owner, slot_id = self.position_owner[perm[slot.positions[0]]]
            if owner is not orbit:
                raise ValueError('permutation leaves family %s' % family)
            images.append(slot_id)
        return tuple(images)


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
        perm = sticker_permutation(spec, move)
        for src, dst in enumerate(perm):
            union(src, dst)
    components = {}
    for pos in range(spec.sticker_count):
        components.setdefault(find(pos), []).append(pos)
    return list(components.values())


@functools.lru_cache(maxsize=None)
def build_atlas(spec):
    '''Build (and cache) the orbit catalogue for one cube size.'''
    n = spec.n
    solved = solved_state(spec)
    half = n // 2

    def slot(positions):
        return Slot(tuple(positions),
                    tuple(solved.stickers[p] for p in positions))

    cells = {}
    for index in range(spec.sticker_count):
        cell, _ = sticker_position(spec, index)
        cells.setdefault(cell, []).append((index, FACES[index // (n * n)]))

    corner_raw = []
    single_raw = []
    coupled_raw = {}
    center_raw = []
    fixed_raw = []
    for cell, stickers in cells.items():
        extremes = [axis for axis in range(3) if abs(cell[axis]) == n - 1]
        if len(extremes) == 3:
            corner_raw.append((cell, stickers))
        elif len(extremes) == 2:
            free_axis = ({0, 1, 2} - set(extremes)).pop()
            t = cell[free_axis]
            if t == 0:
                single_raw.append((cell, stickers))
            else:
                depth = (n + 1 - abs(t)) // 2
                coupled_raw.setdefault(depth, []).append((cell, stickers))
        elif len(extremes) == 1:
            (index, face), = stickers
            if cell.count(0) == 2:
                fixed_raw.append((index, face))
            else:
                row, col = divmod(index % (n * n), n)
                center_raw.append((index, face, row, col))
        else:
            raise AssertionError('sticker on no face')

    corners = []
    for cell, stickers in corner_raw:
        primary = None
        others = []
        for index, face in stickers:
            if face in ('U', 'D'):
                primary = (index, face)
            else:
                others.append((index, face))
        if primary is None or len(others) != 2:
            raise AssertionError('corner without a U/D facelet')
        n0 = FACE_NORMAL[primary[1]]
        na = FACE_NORMAL[others[0][1]]
        nb = FACE_NORMAL[others[1][1]]
        if _det3(n0, na, nb) == -1:
            corners.append(slot((primary[0], others[0][0], others[1][0])))
        else:
            corners.append(slot((primary[0], others[1][0], others[0][0])))
    corners.sort(key=lambda s: s.positions[0])
    orbits = [Orbit('corner', None, tuple(corners))]

    if n % 2:
        marks = _edge_marking()
        built = []
        for cell, stickers in single_raw:
            pair = {face: index for index, face in stickers}
            marked_face = marks[frozenset(pair)]
            other_face = next(f for f in pair if f != marked_face)
            built.append(slot((pair[marked_face], pair[other_face])))
        built.sort(key=lambda s: s.positions[0])
        orbits.append(Orbit('single', None, tuple(built)))

    components = _orbit_components(spec)
    component_of = {}
    for comp_id, members in enumerate(components):
        for pos in members:
            component_of[pos] = comp_id

    for depth in sorted(coupled_raw):
        raw = coupled_raw[depth]
        positions = sorted(p for _, stickers in raw for p, _ in stickers)
        comp_ids = {component_of[p] for p in positions}
        if len(comp_ids) != 2:
            raise AssertionError(
                'wing positions at depth %d split into %d orbit classes'
                % (depth, len(comp_ids)))
        sizes = {cid: len(components[cid]) for cid in comp_ids}
        if set(sizes.values()) != {24}:
            raise AssertionError('wing orbit classes are not 24+24')
        lead_comp = component_of[min(positions)]
        built = []
        for cell, stickers in raw:
            (ia, fa), (ib, fb) = stickers
            if component_of[ia] == lead_comp and component_of[ib] != lead_comp:
                built.append(slot((ia, ib)))
            elif component_of[ib] == lead_comp and component_of[ia] != lead_comp:
                built.append(slot((ib, ia)))
            else:
                raise AssertionError('wing with both stickers in one class')
        built.sort(key=lambda s: s.positions[0])
        by_pair = {}
        for wing in built:
            by_pair.setdefault(frozenset(wing.colors), []).append(wing)
        for key, twins in by_pair.items():
            if (len(twins) != 2
                    or twins[0].colors[0] == twins[1].colors[0]):
                raise AssertionError(
                    'wing twins of %r are not mirror images' % sorted(key))
        orbits.append(Orbit('coupled', depth, tuple(built)))

    center_components = {}
    for index, face, row, col in center_raw:
        center_components.setdefault(component_of[index], []).append(
            (index, face, row, col))
    center_corners = {}
    center_edges = {}
    for members in center_components.values():
        if len(members) != 24:
            raise AssertionError('centre orbit of size %d' % len(members))
        front = [(row, col) for _, face, row, col in members if face == 'F']
        if len(front) != 4:
            raise AssertionError('centre orbit without 4 front members')
        in_quadrant = [
            (row, col) for row, col in front
            if row + 1 <= n // 2 and col + 1 <= (n + 1) // 2
        ]
        if len(in_quadrant) != 1:
            raise AssertionError('centre orbit label is ambiguous')
        row, col = in_quadrant[0]
        slots = tuple(slot((index,))
                      for index in sorted(m[0] for m in members))
        if row == col:
            if row + 1 in center_corners:
                raise AssertionError('duplicate diagonal centre label')
            center_corners[row + 1] = slots
        else:
            label = (row + 1, col + 1)
            if label in center_edges:
                raise AssertionError('duplicate centre label %r' % (label,))
            center_edges[label] = slots

    expected_cc = set(range(2, half + 1))
    if set(center_corners) != expected_cc:
        raise AssertionError('diagonal centre labels %r, expected %r'
                             % (sorted(center_corners), sorted(expected_cc)))
    expected_ce = {
        (i, j)
        for i in range(2, half + 1)
        for j in range(2, (n + 1) // 2 + 1)
        if i != j
    }
    if set(center_edges) != expected_ce:
        raise AssertionError('off-diagonal centre labels %r, expected %r'
                             % (sorted(center_edges), sorted(expected_ce)))
    if set(coupled_raw) != expected_cc:
        raise AssertionError('wing depths %r, expected %r'
                             % (sorted(coupled_raw), sorted(expected_cc)))
    orbits += [Orbit('center_corner', i, center_corners[i])
               for i in sorted(center_corners)]
    orbits += [Orbit('center_edge', label, center_edges[label])
               for label in sorted(center_edges)]

    fixed_centers = None
    if n % 2:
        fixed_raw.sort()
        fixed_centers = tuple(
            (index, FACE_COLOR[face]) for index, face in fixed_raw)
        for index, _ in fixed_centers:
            if len(components[component_of[index]]) != 1:
                raise AssertionError('face centre is not immobile')

    atlas = OrbitAtlas(spec, orbits, fixed_centers)

    covered = sum(len(s.positions) for o in orbits for s in o.slots)
    fixed_count = len(fixed_centers or ())
    if (covered + fixed_count != spec.sticker_count
            or len(atlas.position_owner) != covered):
        raise AssertionError('orbit sizes do not cover the cube')
    for members in components:
        owners = {atlas.position_owner.get(pos, (None,))[0]
                  for pos in members}
        if len(owners) != 1:
            raise AssertionError('a move orbit crosses family boundaries')
    for classes in atlas.center_classes.values():
        if sorted(classes) != sorted(COLORS) or any(
                len(ids) != 4 for ids in classes.values()):
            raise AssertionError('centre orbit colours are not 6 x 4')
    return atlas


def _det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


# ConfigTuple fields of each family: the permutation and the orientation
# vector (None for one-sticker centres). Families with a key hold dicts
# keyed by it.
_FIELDS = {
    'corner': ('corner_perm', 'corner_twists'),
    'single': ('single_edge_perm', 'single_edge_flips'),
    'coupled': ('coupled_perms', 'coupled_orientations'),
    'center_corner': ('center_corner_perms', None),
    'center_edge': ('center_edge_perms', None),
}


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

    def is_identity(self):
        return self == identity_tuple(CubeSpec(self.n))

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


def required_center_signs(atlas, corner_perm, coupled_perms):
    '''Permutation sign the first law demands of each centre orbit, by key.

    A diagonal centre orbit must match the corner sign. An off-diagonal
    orbit (i, j) must match the corner sign times the wing permutation
    signs at depths i and j; a depth pointing at the central slab of an
    odd cube carries no wings and contributes no factor.
    '''
    corner_sign = permutation_sign(corner_perm)
    wing_signs = {i: permutation_sign(perm)
                  for i, perm in coupled_perms.items()}
    required = dict.fromkeys(atlas.center_corner_indices, corner_sign)
    for i, j in atlas.center_edge_labels:
        required[(i, j)] = (corner_sign * wing_signs.get(i, 1)
                            * wing_signs.get(j, 1))
    return required


def _check_permutation(perm, orbit):
    size = len(orbit.slots)
    if not isinstance(perm, tuple) or len(perm) != size:
        raise ShapeMismatch('%s permutation must have length %d'
                            % (orbit.name, size))
    if sorted(perm) != list(range(size)):
        raise ShapeMismatch('%s images are not a permutation' % orbit.name)


def validate_shape(config):
    '''Raise ShapeMismatch unless the tuple fits its cube exactly; returns
    that cube's atlas.'''
    if not isinstance(config, ConfigTuple):
        raise ShapeMismatch('expected a ConfigTuple')
    atlas = build_atlas(CubeSpec(config.n))
    # Count the entries the tuple holds against those the atlas's orbits
    # fill, so that an entry for an orbit the cube lacks is caught too.
    held = 0
    for names in _FIELDS.values():
        for name in names:
            value = getattr(config, name) if name else None
            held += len(value) if isinstance(value, dict) else (
                value is not None)
    filled = 0
    for orbit in atlas.orbits:
        try:
            perm, orientation = config.orbit_fields(orbit)
        except (KeyError, IndexError, TypeError):
            raise ShapeMismatch('tuple has no entry for the %s'
                                % orbit.name) from None
        _check_permutation(perm, orbit)
        filled += 1
        if orbit.turns > 1:
            size = len(orbit.slots)
            values = range(orbit.turns)
            if (not isinstance(orientation, tuple)
                    or len(orientation) != size
                    or any(v not in values for v in orientation)):
                raise ShapeMismatch('%s orientations must be %d values in '
                                    '0..%d' % (orbit.name, size,
                                               orbit.turns - 1))
            filled += 1
    if held != filled:
        raise ShapeMismatch('tuple holds entries for orbits a %d-cube lacks'
                            % atlas.spec.n)
    return atlas


def decompose(state):
    '''Cut a sticker state into its canonical ConfigTuple.

    Raises NotAConfiguration when the stickers cannot be read as any
    reassembly of the cube's pieces (wrong colour counts, torn cubies,
    a displaced immobile centre, and so on). Where several tuples paint
    the same stickers, the canonical one is returned: wing orientation
    bits are zeroed when possible, twin collisions send the lower home
    to the lower slot, and centre assignments are sorted then sign-fixed
    by one swap inside the first colour class.
    '''
    spec = state.spec
    atlas = build_atlas(spec)
    counts = state.color_counts()
    share = spec.sticker_count // 6
    for color in COLORS:
        if counts.get(color, 0) != share:
            raise NotAConfiguration(
                'colour %s appears %d times, expected %d'
                % (color, counts.get(color, 0), share))

    stickers = state.stickers
    for position, color in atlas.fixed_centers or ():
        if stickers[position] != color:
            raise NotAConfiguration(
                'immobile centre at position %d shows %s, expected %s'
                % (position, stickers[position], color))

    config = ConfigTuple(spec.n)
    required = None
    for orbit in atlas.orbits:
        if orbit.turns == 1:
            if required is None:
                # Centre orbits come last in the atlas, after the corner
                # and wing permutations that fix their signs.
                required = required_center_signs(
                    atlas, config.corner_perm, config.coupled_perms)
            config.set_orbit_fields(orbit, _assign_centers(
                stickers, atlas, orbit, required[orbit.key]))
        else:
            config.set_orbit_fields(orbit, *read_orbit(stickers, orbit))
    return config


def read_orbit(stickers, orbit):
    '''Permutation and orientation vector of one corner, single-edge or
    wing orbit, read from the sticker string alone; decompose's fields
    for that orbit.'''
    if orbit.family == 'coupled':
        return _read_wings(stickers, orbit)
    return _read_cubies(stickers, orbit)


def _read_cubies(stickers, orbit):
    '''Permutation and orientations of an orbit of distinct cubies.'''
    readings = orbit.readings
    perm = [None] * len(orbit.slots)
    orientation = [0] * len(orbit.slots)
    for current, slot in enumerate(orbit.slots):
        shown = tuple([stickers[p] for p in slot.positions])
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


def _read_wings(stickers, orbit):
    '''Permutation and orientation bits of a wing orbit, with mirror
    twins resolved canonically.'''
    slots = orbit.slots
    home_by_pair = {}
    for home, slot in enumerate(slots):
        home_by_pair.setdefault(frozenset(slot.colors), []).append(home)
    shown_by_pair = {}
    for current, slot in enumerate(slots):
        lead, trail = slot.positions
        shown = (stickers[lead], stickers[trail])
        if shown[0] == shown[1]:
            raise NotAConfiguration(
                'slot %d of the %s shows %r twice'
                % (current, orbit.name, shown[0]))
        key = frozenset(shown)
        if key not in home_by_pair:
            raise NotAConfiguration(
                'slot %d of the %s shows %r, not a wing piece'
                % (current, orbit.name, shown))
        shown_by_pair.setdefault(key, []).append(current)
    perm = [None] * len(slots)
    bits = [0] * len(slots)
    for key, homes in home_by_pair.items():
        currents = shown_by_pair.get(key, [])
        if len(currents) != 2:
            raise NotAConfiguration(
                'wing pair %r appears %d times in the %s, expected 2'
                % (sorted(key), len(currents), orbit.name))
        lead_colors = {slots[h].colors[0]: h for h in homes}
        straight = {c: stickers[slots[c].positions[0]] for c in currents}
        if set(straight.values()) == set(lead_colors):
            for current, color in straight.items():
                perm[lead_colors[color]] = current
        else:
            # Both slots show the same leading colour: one occupant
            # must sit with its leading sticker on the trailing
            # class. Send the lower home to the lower slot.
            for home, current in zip(sorted(homes), sorted(currents)):
                perm[home] = current
                if slots[home].colors[0] != straight[current]:
                    bits[current] = 1
    return tuple(perm), tuple(bits)


def _assign_centers(stickers, atlas, orbit, required_sign):
    classes = atlas.center_classes[orbit.key]
    current_by_color = {}
    for current, slot in enumerate(orbit.slots):
        current_by_color.setdefault(
            stickers[slot.positions[0]], []).append(current)
    perm = [None] * len(orbit.slots)
    for color in sorted(classes):
        homes = classes[color]
        currents = current_by_color.get(color, [])
        if len(currents) != len(homes):
            raise NotAConfiguration(
                '%s has %d stickers of colour %s, expected %d'
                % (orbit.name, len(currents), color, len(homes)))
        for home, current in zip(homes, sorted(currents)):
            perm[home] = current
    if permutation_sign(perm) != required_sign:
        first_color = sorted(classes)[0]
        a, b = classes[first_color][0], classes[first_color][1]
        perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def compose(config):
    '''Reassemble the sticker state described by a ConfigTuple.'''
    atlas = validate_shape(config)
    stickers = [None] * atlas.spec.sticker_count
    for position, color in atlas.fixed_centers or ():
        stickers[position] = color
    for orbit in atlas.orbits:
        perm, orientation = config.orbit_fields(orbit)
        slots = orbit.slots
        if orientation is None:
            for slot, current in zip(slots, perm):
                stickers[slots[current].positions[0]] = slot.colors[0]
            continue
        turns = range(orbit.turns)
        for slot, current in zip(slots, perm):
            rotated = slots[current].rotations[orientation[current]]
            colors = slot.colors
            for k in turns:
                stickers[rotated[k]] = colors[k]
    if any(s is None for s in stickers):
        raise AssertionError('reassembly left a position unpainted')
    return CubeState(atlas.spec.n, ''.join(stickers))
