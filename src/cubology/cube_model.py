'''Sticker-level model of the n x n x n cube.

States are flat strings of 6*n*n colour letters in face-major order
U, L, F, R, B, D (row-major inside each face), so the sticker at
(face, row, col) lives at index face_ordinal * n^2 + row * n + col.
Solved colours: U=W, L=O, F=G, R=R, B=B, D=Y.

A move is a clockwise quarter/half/anticlockwise turn of one slab of
cells, named by the face it is viewed from and its depth from that face
(depth 1 is the face layer itself). Depths run up to floor(n/2); on odd
cubes the central slab (n+1)/2 is also addressable, and the letters
M, E, S alias the central slabs that turn like L, D and F. A move word
is a tuple of Moves, applied left to right.

Move notation grammar accepted by the parser:

    sequence := token (whitespace token)*
    token    := slice | group
    slice    := [depth] FACE [suffix]      depth is digits 0-9, >= 2
    FACE     := U | D | L | R | F | B | M | E | S
    suffix   := ' | 2 | 2' | 3
    group    := '[' sequence ',' sequence ']' [suffix]   commutator a b a' b'
              | '[' sequence ':' sequence ']' [suffix]   conjugate  a b a'

On a slice token the suffix fixes the quarter-turn count (mod 4, with
multiples of four dropped); on a group it inverts or repeats the whole
expansion. Groups nest at most MAX_NESTING deep, and the groups of one
text expand to at most MAX_EXPANSION moves, each counted at its own level.
'''

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass

FACES = ('U', 'L', 'F', 'R', 'B', 'D')
FACE_ORDINAL = {f: i for i, f in enumerate(FACES)}
FACE_COLOR = {'U': 'W', 'L': 'O', 'F': 'G', 'R': 'R', 'B': 'B', 'D': 'Y'}
COLORS = tuple(FACE_COLOR[f] for f in FACES)

# central-slab letters and the face whose turn direction they follow
CENTRAL_LETTERS = {'M': 'L', 'E': 'D', 'S': 'F'}


class IllegalDepth(ValueError):
    '''Raised when a move names a slab the cube does not have.'''


class ParseError(ValueError):
    '''Raised on malformed move text; carries the offending position.'''

    def __init__(self, message, position):
        super().__init__(f'{message} (at position {position})')
        self.position = position


@dataclass(frozen=True)
class CubeSpec:
    '''Size descriptor for an n x n x n cube, n >= 2.'''

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f'cube size must be an integer >= 2, got {self.n!r}')

    @property
    def sticker_count(self):
        return 6 * self.n * self.n

    @property
    def central_depth(self):
        '''Depth of the central slab, or None on even cubes.'''
        return (self.n + 1) // 2 if self.n % 2 else None


@dataclass(frozen=True)
class Move:
    '''One slab turn: face letter, depth from that face, quarter turns (1..3, clockwise).'''

    face: str
    depth: int = 1
    quarter_turns: int = 1

    def __post_init__(self):
        if self.face not in FACES:
            raise ValueError(f'unknown face {self.face!r}')
        if not isinstance(self.depth, int) or self.depth < 1:
            raise ValueError(f'depth must be a positive integer, got {self.depth!r}')
        if self.quarter_turns not in (1, 2, 3):
            raise ValueError(f'quarter_turns must be 1, 2 or 3, got {self.quarter_turns!r}')

    @functools.lru_cache(maxsize=1024)
    def inverse(self):
        return Move(self.face, self.depth, 4 - self.quarter_turns)

    def is_legal(self, spec):
        return self.depth <= spec.n // 2 or self.depth == spec.central_depth

    def require_legal(self, spec):
        if not self.is_legal(spec):
            raise IllegalDepth(
                f'depth {self.depth} of face {self.face} does not exist on a '
                f'{spec.n}x{spec.n}x{spec.n} cube')


@dataclass(frozen=True)
class CubeState:
    '''Immutable sticker assignment; equality is positionwise.'''

    n: int
    stickers: str

    def __post_init__(self):
        if not isinstance(self.stickers, str):
            object.__setattr__(self, 'stickers', ''.join(self.stickers))
        if len(self.stickers) != 6 * self.n * self.n:
            raise ValueError('sticker string has wrong length for this cube size')

    @property
    def spec(self):
        return CubeSpec(self.n)

    def sticker(self, face, row, col):
        return self.stickers[sticker_index(self.n, face, row, col)]


def sticker_index(n, face, row, col):
    return FACE_ORDINAL[face] * n * n + row * n + col


# --- geometry -------------------------------------------------------------
#
# Cells live in doubled, centred coordinates (x, y, z), x growing to the
# right, y up and z toward the viewer; each coordinate runs over
# -(n-1), -(n-3), ..., n-1, so the cube's centre is the origin. Each
# sticker is a (cell, outward normal) pair. A face's grid runs along its
# column direction (right) and that direction turned once about the face
# normal (down), so the sticker at (face, r, c) sits at
# (n-1)*normal + (2r-n+1)*down + (2c-n+1)*right. Every slab turn is one
# rotation about its face normal, applied alike to cells and normals.

FACE_NORMAL = {
    'U': (0, 1, 0), 'D': (0, -1, 0), 'R': (1, 0, 0),
    'L': (-1, 0, 0), 'F': (0, 0, 1), 'B': (0, 0, -1),
}

# column direction of each face's grid, as seen from outside the cube
_FACE_RIGHT = {
    'U': (1, 0, 0), 'D': (1, 0, 0), 'R': (0, 0, -1),
    'L': (0, 0, 1), 'F': (1, 0, 0), 'B': (-1, 0, 0),
}


def _turn(v, a):
    '''v turned a clockwise quarter turn about the unit axis a, viewed
    from outside along a: v -> (v.a)a + v x a.'''
    d = v[0] * a[0] + v[1] * a[1] + v[2] * a[2]
    return (d * a[0] + v[1] * a[2] - v[2] * a[1],
            d * a[1] + v[2] * a[0] - v[0] * a[2],
            d * a[2] + v[0] * a[1] - v[1] * a[0])


@functools.lru_cache(maxsize=None)
def _geometry(n):
    '''Per-index (cell, normal) in the centred doubled frame, plus the
    reverse lookup.'''
    placement = []
    for face in FACES:
        normal, right = FACE_NORMAL[face], _FACE_RIGHT[face]
        down = _turn(right, normal)
        for r in range(n):
            for c in range(n):
                u, v = 2 * r - n + 1, 2 * c - n + 1
                cell = tuple((n - 1) * normal[k] + u * down[k] + v * right[k]
                             for k in range(3))
                placement.append((cell, normal))
    lookup = {place: index for index, place in enumerate(placement)}
    return placement, lookup


def sticker_position(spec, index):
    '''(cell, outward normal) of a sticker index, the cell in centred
    doubled coordinates; inverse of position lookup.'''
    placement, _ = _geometry(spec.n)
    return placement[index]


@functools.lru_cache(maxsize=None)
def _move_permutation(n, face, depth, quarter_turns):
    if quarter_turns > 1:
        # one more quarter turn after the cached quarter_turns - 1
        before = _move_permutation(n, face, depth, quarter_turns - 1)
        return operator.itemgetter(*before)(_move_permutation(n, face, depth, 1))
    placement, lookup = _geometry(n)
    normal = FACE_NORMAL[face]
    axis = next(k for k in range(3) if normal[k])
    # the slab's cells share this coordinate on the normal's axis
    level = (n + 1 - 2 * depth) * normal[axis]
    perm = list(range(6 * n * n))
    for src, (cell, direction) in enumerate(placement):
        if cell[axis] == level:
            perm[src] = lookup[(_turn(cell, normal), _turn(direction, normal))]
    return tuple(perm)


def sticker_permutation(spec, move):
    '''Destination map p of a move: applying the move sends the sticker at
    index i to index p[i], i.e. apply_move(s, move).stickers[p[i]] == s.stickers[i].'''
    move.require_legal(spec)
    return _move_permutation(spec.n, move.face, move.depth, move.quarter_turns)


def solved_state(spec):
    n = spec.n
    return CubeState(n, ''.join(FACE_COLOR[f] * (n * n) for f in FACES))


def legal_slab_moves(spec, include_central=False, quarter_turns=(1,)):
    '''All distinct slab moves: one per (face, depth, q).

    The central slab of an odd cube is reachable from two opposite faces;
    it is excluded by default because turning it displaces the immobile
    face centres, which takes a state outside the space of reassemblies.
    '''
    moves = []
    for face in FACES:
        depths = list(range(1, spec.n // 2 + 1))
        if include_central and spec.central_depth is not None and face in 'LDF':
            # The central slab sits at equal depth from both opposite faces,
            # so it is listed once, from the face its slice letter resolves to.
            depths.append(spec.central_depth)
        for depth in depths:
            for q in quarter_turns:
                moves.append(Move(face, depth, q))
    return moves


def _gather(perm):
    '''itemgetter reading a sticker sequence in the order the destination
    map perm leaves it: _gather(perm)(s)[perm[i]] == s[i].'''
    source = [0] * len(perm)
    for src, dst in enumerate(perm):
        source[dst] = src
    return operator.itemgetter(*source)


@functools.lru_cache(maxsize=None)
def _move_gather(n, face, depth, quarter_turns):
    return _gather(_move_permutation(n, face, depth, quarter_turns))


def _carry(spec, items, sequence):
    '''items, one per sticker index, in the order the sequence leaves
    them.'''
    for move in sequence:
        move.require_legal(spec)
        items = _move_gather(
            spec.n, move.face, move.depth, move.quarter_turns)(items)
    return items


def apply_move(state, move):
    return apply_sequence(state, (move,))


def apply_sequence(state, sequence):
    stickers = _carry(state.spec, state.stickers, sequence)
    return CubeState(state.n, ''.join(stickers))


def invert_sequence(sequence):
    return tuple(map(Move.inverse, reversed(tuple(sequence))))


def local_table(spec, positions, sequence):
    '''The destination table of a sequence over the stickers at
    positions alone, at most 256, which it must carry among themselves:
    entry i is the index in positions of where the sticker at
    positions[i] ends. Later entries are fixed, so it is a
    bytes.translate table.'''
    # Follow each listed sticker to where the sequence takes it.
    ends = positions
    for move in sequence:
        perm = sticker_permutation(spec, move)
        ends = [perm[position] for position in ends]
    local = {position: i for i, position in enumerate(positions)}
    return bytes(map(local.__getitem__, ends)) + bytes(
        range(len(ends), 256))


def sequence_permutation(spec, sequence):
    '''Destination map of a whole sequence, composed left to right.'''
    # Carrying the labels 0..N-1 leaves at each index the label of the
    # sticker that ends there, the source map; gathering by it inverts it.
    labels = range(spec.sticker_count)
    return _gather(_carry(spec, labels, sequence))(labels)


# --- parsing and formatting ------------------------------------------------


MAX_NESTING = 100
MAX_EXPANSION = 10 ** 5

# whitespace, then a token: a slice's depth digits, the character after
# them and its suffix
_TOKEN = re.compile(r"\s*([0-9]*)(.?)(2'|['23]?)", re.DOTALL)
# a suffix as a signed count: quarter turns mod 4 after a slice; after a
# group, repeats of its expansion, inverted when negative
_SUFFIX_COUNT = {'': 1, "'": -1, '2': 2, "2'": -2, '3': 3}


def parse_move_sequence(text, spec=None):
    '''Parse move text into a flat tuple of Moves (groups are expanded).

    With a spec, slab depths are legality-checked (IllegalDepth) and the
    central letters M/E/S resolve; without one they are a ParseError. A
    group past MAX_NESTING or MAX_EXPANSION is a ParseError at its '['.
    '''
    room = MAX_EXPANSION

    def sequence(pos, stops, nesting):
        '''The moves from pos up to the end of input or a character in
        stops, and the token of that character.'''
        nonlocal room
        moves = []
        while True:
            token = _TOKEN.match(text, pos)
            start, (digits, letter, suffix) = token.start(1), token.groups()
            # '' is in every stops: the end of input ends each sequence
            if not digits and letter in stops:
                return tuple(moves), token
            if not digits and letter == '[':
                if nesting == MAX_NESTING:
                    raise ParseError(f'groups nest deeper than {MAX_NESTING} levels', start)
                first, stop = sequence(start + 1, ',:', nesting + 1)
                # at the end of input the second half stops there too
                second, close = sequence(stop.start(2) + 1, ']', nesting + 1)
                if close.group(2) != ']':
                    raise ParseError("unclosed group, expected ']'", start)
                pos, count = close.end(), _SUFFIX_COUNT[close.group(3)]
                undo = invert_sequence(second) if stop.group(2) == ',' else ()
                word = first + second + invert_sequence(first) + undo
                room -= len(word) * abs(count)
                if room < 0:
                    raise ParseError(f'groups expand past {MAX_EXPANSION} moves', start)
                moves += (invert_sequence(word) if count < 0 else word) * abs(count)
                continue
            if letter not in FACES and letter not in CENTRAL_LETTERS:
                raise ParseError('expected a face letter, found '
                                 + (repr(letter) if letter else 'end of input'), start)
            try:
                face, depth = letter, int(digits or 1)
            except ValueError:  # past the interpreter's int digit limit
                raise ParseError('the depth has too many digits', start) from None
            if digits and depth < 2:
                raise ParseError('an explicit depth must be at least 2', start)
            if letter in CENTRAL_LETTERS:
                why = ('names the central slab and takes no depth' if digits else
                       'needs a known cube size to resolve its depth' if spec is None else
                       'only exists on odd cubes' if spec.central_depth is None else '')
                if why:
                    raise ParseError(f'{letter} {why}', start)
                face, depth = CENTRAL_LETTERS[letter], spec.central_depth
            move = Move(face, depth, _SUFFIX_COUNT[suffix] % 4)
            if spec is not None:
                move.require_legal(spec)
            moves.append(move)
            pos = token.end()

    return sequence(0, '', 0)[0]


_SUFFIX = {1: '', 2: '2', 3: "'"}


def format_move(move):
    depth_text = '' if move.depth == 1 else str(move.depth)
    return depth_text + move.face + _SUFFIX[move.quarter_turns]


def format_move_sequence(sequence):
    '''Space-separated token text; parse(format(seq)) returns seq unchanged.'''
    return ' '.join(map(format_move, sequence))


# --- rendering and serialisation -------------------------------------------

_ANSI_CODE = {'W': '97', 'O': '38;5;208', 'G': '92', 'R': '91', 'B': '94', 'Y': '93'}


def _paint(ch, ansi):
    if not ansi:
        return ch
    return f'\x1b[{_ANSI_CODE[ch]}m{ch}\x1b[0m'


def render_net(state, ansi=False):
    '''Flat net with U on top, the L F R B strip in the middle, D below.

    Produces exactly 3n + 2 lines (two of them blank separators).
    '''
    n = state.n
    pad = ' ' * (n + 1)

    def row(face, r):
        return ''.join(_paint(state.sticker(face, r, c), ansi) for c in range(n))

    return '\n'.join([pad + row('U', r) for r in range(n)] + ['']
                     + [' '.join(row(face, r) for face in 'LFRB') for r in range(n)]
                     + [''] + [pad + row('D', r) for r in range(n)])


def state_to_json_dict(state):
    return {'n': state.n, 'stickers': list(state.stickers)}


def state_from_json_dict(data):
    try:
        n = data['n']
        raw = data['stickers']
    except (KeyError, TypeError):
        raise ValueError('state document needs "n" and "stickers" fields')
    if isinstance(raw, list):
        if not all(isinstance(ch, str) and len(ch) == 1 for ch in raw):
            raise ValueError('sticker list entries must be one colour '
                             'letter each')
        raw = ''.join(raw)
    if not isinstance(n, int) or not isinstance(raw, str):
        raise ValueError('malformed state document')
    bad = sorted(set(raw) - set(COLORS))
    if bad:
        raise ValueError(f'unknown colour letters {bad} in state document')
    return CubeState(n, raw)

