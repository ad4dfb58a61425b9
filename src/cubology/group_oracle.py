'''Independent order oracle for the slab-move group.

Everything here works on raw sticker permutations produced by the move
engine; no counting formula is consulted. schreier_sims_order() builds
a deterministic stabilizer chain by incremental Schreier-Sims, which
sifts each Schreier generator once, and returns the exact group order
as the product of its orbit sizes. A level is opened by the first
residue that fixes every base point so far, and its base point is the
lowest sticker position that residue moves; so the base depends on
the order of the input permutations, not only on the group. It is the
check the closed-form counts in the counting module are measured
against.

subgroup_order() runs the same machinery over any list of permutations,
which lets tests certify the groups generated by the named move words:
project their sticker action onto one piece family's slots first when
the family alone is under study, since a word that cleanly 3-cycles
corners is allowed to shuffle centre facelets on the side.

bfs_states() grows the exact ball of states around solved in the
quarter-turn metric (clockwise and anticlockwise slab turns count one
move each) and estimate_valid_fraction() samples random reassemblies
for a Wilson confidence interval on the reachable fraction.
'''

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .cube_model import (
    CubeSpec,
    apply_move,
    legal_slab_moves,
    solved_state,
    sticker_permutation,
)
from .cubology_law import is_solvable, random_configuration


class DepthTooLarge(ValueError):
    '''The requested breadth-first ball exceeds the state budget.'''


@dataclass(frozen=True)
class GeneratorSet:
    '''Slab moves of one cube together with their sticker permutations.'''

    spec: CubeSpec
    moves: tuple
    permutations: tuple

    def __len__(self):
        return len(self.permutations)


def generators(spec, include_central=False, signed=False):
    '''Quarter-turn generators of the slab-move group.

    Central slabs are excluded by default: turning one displaces the
    immobile face centres, so it generates a strictly larger sticker
    group than the moves the solvability law describes. Passing
    include_central=True lists the central slabs too (once each, from
    the face their slice letter resolves to), realizing the full basic
    move alphabet of an odd cube: 3n slices, or 6n basic moves once
    signed=True adds the anticlockwise turn of every slab. The signed
    set is closed under inversion; the unsigned set derives an inverse
    as the cube of a generator. Either choice generates the same group.
    '''
    turns = (1, 3) if signed else (1,)
    moves = tuple(legal_slab_moves(spec, include_central, turns))
    perms = tuple(sticker_permutation(spec, move) for move in moves)
    return GeneratorSet(spec=spec, moves=moves, permutations=perms)


class _Level:
    __slots__ = ('point', 'gens', 'transversal', 'inverses')

    def __init__(self, point, identity):
        self.point = point
        self.gens = []
        self.transversal = {point: identity}
        self.inverses = {point: identity}


@dataclass
class BSGS:
    '''Base and strong generating set: the product of the orbit sizes
    along the stabilizer chain is the exact group order. levels holds
    the chain itself, one transversal per base point, for contains().'''

    degree: int
    base: tuple
    orbit_sizes: tuple
    order: int
    strong_generators: tuple
    levels: list = field(repr=False, compare=False)

    def contains(self, perm):
        residue, _ = _sift(np.asarray(perm, dtype=np.int64), self.levels)
        return bool((residue == np.arange(self.degree)).all())


def _sift(perm, levels):
    '''Factor a permutation through the chain; return (residue, level).'''
    g = perm
    for k, level in enumerate(levels):
        image = int(g[level.point])
        if image not in level.transversal:
            return g, k
        if image != level.point:
            # The base point's own representative is the identity.
            g = level.inverses[image][g]
    return g, len(levels)


def build_bsgs(permutations, degree=None):
    '''Incremental Schreier-Sims over explicit permutation arrays.

    Each input permutation is sifted through the chain; a residue that
    survives becomes a strong generator of every level whose base
    prefix it fixes. A new generator of a level is paired with every
    orbit point, and a new orbit point with every generator. Each pair
    either reaches a new point, extending the transversal, or yields a
    Schreier generator that is sifted through the levels below, and a
    survivor of that sift is installed there in turn. Levels are
    completed bottom-up, so the chain below a level is always a full
    BSGS of its own generators when a Schreier generator is sifted
    through it. Transversal entries are never replaced, so a Schreier
    generator that sifted to the identity keeps doing so: each (level,
    point, generator) pair is handled exactly once.
    '''
    perms = [np.asarray(p, dtype=np.int64) for p in permutations]
    if degree is None:
        if not perms:
            raise ValueError('need a degree for an empty generator list')
        degree = len(perms[0])
    identity = np.arange(degree, dtype=np.int64)
    levels = []
    strong = []

    def install(g, lo, hi):
        '''Give residue g, which fixes the base points of the levels
        above hi, to levels hi down to lo.'''
        strong.append(g)
        if hi == len(levels):
            levels.append(
                _Level(int(np.nonzero(g != identity)[0][0]), identity))
        for k in range(hi, lo - 1, -1):
            level = levels[k]
            level.gens.append(g)
            queue = [(point, g) for point in level.transversal]
            while queue:
                point, h = queue.pop()
                image = int(h[point])
                forward = h[level.transversal[point]]
                if image not in level.transversal:
                    inverse = np.empty(degree, dtype=np.int64)
                    inverse[forward] = identity
                    level.transversal[image] = forward
                    level.inverses[image] = inverse
                    queue.extend((image, x) for x in level.gens)
                    continue
                residue, j = _sift(level.inverses[image][forward],
                                   levels[k + 1:])
                if not (residue == identity).all():
                    install(residue, k + 1, k + 1 + j)

    for g in perms:
        residue, k = _sift(g, levels)
        if not (residue == identity).all():
            install(residue, 0, k)

    orbit_sizes = tuple(len(level.transversal) for level in levels)
    return BSGS(
        degree=degree,
        base=tuple(level.point for level in levels),
        orbit_sizes=orbit_sizes,
        order=math.prod(orbit_sizes),
        strong_generators=tuple(tuple(int(v) for v in g) for g in strong),
        levels=levels)


def schreier_sims_order(gens):
    '''Exact order of the group a GeneratorSet generates; subgroup_order
    takes plain permutations.'''
    return build_bsgs(gens.permutations, gens.spec.sticker_count).order


def subgroup_order(permutations, restriction=None, degree=None):
    '''Exact order of the group generated by explicit permutations.

    restriction, when given, is applied to each permutation first; pass
    a projection such as an orbit's slot action to certify the group a
    family of words generates on one piece family alone.
    '''
    perms = list(permutations)
    if restriction is not None:
        perms = [restriction(p) for p in perms]
    return build_bsgs(perms, degree).order


@dataclass(frozen=True)
class BallGrowth:
    '''Exact breadth-first ball around the solved state.'''

    depth: int
    counts: tuple        # states at exactly each depth 0..depth
    cumulative: tuple    # states within each depth 0..depth
    states: tuple        # every state within the ball, by discovery


def bfs_states(spec, depth, budget=2_000_000):
    '''All states within a move-count ball of the solved state.

    One move is one clockwise or anticlockwise quarter turn of a
    non-central slab. Raises DepthTooLarge once more than budget states
    have been discovered.
    '''
    if depth < 0:
        raise ValueError('depth must be at least 0')
    moves = legal_slab_moves(spec, quarter_turns=(1, 3))
    start = solved_state(spec)
    seen = {start.stickers}
    order = [start]
    counts = [1]
    frontier = [start]
    for _ in range(depth):
        next_frontier = []
        for state in frontier:
            for move in moves:
                image = apply_move(state, move)
                if image.stickers not in seen:
                    seen.add(image.stickers)
                    if len(seen) > budget:
                        raise DepthTooLarge(
                            'ball exceeds the budget of %d states' % budget)
                    order.append(image)
                    next_frontier.append(image)
        counts.append(len(next_frontier))
        frontier = next_frontier
    return BallGrowth(
        depth=depth,
        counts=tuple(counts),
        cumulative=tuple(itertools.accumulate(counts)),
        states=tuple(order))


@dataclass(frozen=True)
class FractionEstimate:
    fraction: float
    low: float
    high: float
    hits: int
    samples: int


def estimate_valid_fraction(spec, samples, seed=None):
    '''Wilson 99% confidence interval for the reachable fraction.

    Draws uniform random reassemblies and scores how many pass the
    solvability law.
    '''
    if samples <= 0:
        raise ValueError('need at least one sample')
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        state = random_configuration(spec, seed=rng.randrange(2 ** 63))
        if is_solvable(state):
            hits += 1
    z = 2.576
    phat = hits / samples
    denom = 1 + z * z / samples
    centre = (phat + z * z / (2 * samples)) / denom
    spread = (z / denom) * (
        (phat * (1 - phat) / samples + z * z / (4 * samples * samples))
        ** 0.5)
    return FractionEstimate(
        fraction=phat,
        low=max(0.0, centre - spread),
        high=min(1.0, centre + spread),
        hits=hits,
        samples=samples)
