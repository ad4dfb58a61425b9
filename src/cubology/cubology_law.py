'''Solvability law for reassembled cubes.

A reassembly of the cube's pieces is reachable by slab moves exactly
when its ConfigTuple passes a short list of arithmetic conditions:

  * parity_corners_edges: the corner permutation sign equals the single
    edge permutation sign (odd cubes) and every diagonal centre
    permutation sign. On the 2x2x2 cube no centres or single edges
    exist, so nothing ties the corner sign and the condition is absent.
  * center_edge_sign: each off-diagonal centre family labelled (i, j)
    must have sign equal to the product of the corner sign and the wing
    permutation signs at depths i and j; a depth pointing at the
    central slab of an odd cube contributes no factor.
  * corner_twist_sum: corner twists sum to 0 mod 3.
  * edge_flip_sum: single edge flips sum to 0 mod 2 (odd cubes).
  * coupled_orientation: every wing orientation bit is 0, since no slab
    move ever carries a wing sticker across to its twin's class.

check_validity() evaluates every applicable condition and reports each
verdict. The samplers draw uniformly from all reassemblies and from the
reachable ones respectively. orbit_class_count() recomputes the number
of law classes from first principles (rank of the generator sign
vectors over GF(2)) as an independent check on the closed formulas in
the counting module.
'''

import itertools
import random
from dataclasses import dataclass

from .cube_model import legal_slab_moves, sticker_permutation
from .decomposition import (
    ConfigTuple,
    _sign,
    build_atlas,
    compose,
    decompose,
    permutation_sign,
    required_center_signs,
    validate_shape,
)


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    conditions: tuple

    def failing(self):
        return tuple(c for c in self.conditions if not c.ok)


def check_validity(config):
    '''Evaluate every applicable law condition on a ConfigTuple.'''
    # validate_shape has checked every permutation, so the signs below
    # skip checking them again; each is taken once.
    atlas = validate_shape(config)
    odd = config.n % 2 == 1
    corner_sign = _sign(config.corner_perm)
    conditions = []

    tied = []
    if odd and config.single_edge_perm is not None:
        tied.append(('single edges', _sign(config.single_edge_perm)))
    for i in sorted(config.center_corner_perms):
        tied.append(('diagonal centres %d' % i,
                     _sign(config.center_corner_perms[i])))
    if tied:
        bad = [name for name, sign in tied if sign != corner_sign]
        conditions.append(ConditionVerdict(
            condition='parity_corners_edges',
            ok=not bad,
            detail=('all permutation signs match the corner sign %+d'
                    % corner_sign if not bad else
                    'signs differ from the corner sign %+d: %s'
                    % (corner_sign, ', '.join(bad)))))

    if config.center_edge_perms:
        required = required_center_signs(atlas, corner_sign, {
            i: _sign(perm) for i, perm in config.coupled_perms.items()})
        bad = ['(%d, %d)' % label
               for label, perm in sorted(config.center_edge_perms.items())
               if _sign(perm) != required[label]]
        conditions.append(ConditionVerdict(
            condition='center_edge_sign',
            ok=not bad,
            detail=('every off-diagonal centre sign matches its wing '
                    'sign product' if not bad else
                    'wrong sign at labels ' + ', '.join(bad))))

    twist_sum = sum(config.corner_twists) % 3
    conditions.append(ConditionVerdict(
        condition='corner_twist_sum',
        ok=twist_sum == 0,
        detail='corner twists sum to %d mod 3' % twist_sum))

    if odd:
        flip_sum = sum(config.single_edge_flips) % 2
        conditions.append(ConditionVerdict(
            condition='edge_flip_sum',
            ok=flip_sum == 0,
            detail='single edge flips sum to %d mod 2' % flip_sum))

    if config.coupled_orientations:
        bad = [str(i) for i, bits in sorted(config.coupled_orientations.items())
               if any(bits)]
        conditions.append(ConditionVerdict(
            condition='coupled_orientation',
            ok=not bad,
            detail=('no wing sits on its twin\'s sticker class' if not bad
                    else 'flipped wings at depths ' + ', '.join(bad))))

    return ValidityReport(
        valid=all(c.ok for c in conditions),
        conditions=tuple(conditions))


def is_solvable(state):
    '''Whether a sticker state is reachable from solved by slab moves.

    The state must be a reassembly of the cube's pieces; anything else
    raises NotAConfiguration.
    '''
    return check_validity(decompose(state)).valid


def random_configuration(spec, seed=None):
    '''Uniformly random reassembly of the cube's pieces.

    Draws every family permutation and orientation vector uniformly and
    reassembles. Each sticker state is painted by the same number of
    tuples, so the returned state is uniform over all reassemblies.
    '''
    rng = random.Random(seed)
    atlas = build_atlas(spec)
    config = ConfigTuple(spec.n)
    # Family by family, every permutation is drawn before any orientation
    # vector, so that a seed names the same state as it always has.
    for _, group in itertools.groupby(atlas.orbits, lambda o: o.family):
        group = list(group)
        perms = [_random_perm(rng, len(orbit.slots)) for orbit in group]
        for orbit, perm in zip(group, perms):
            orientation = None
            if orbit.turns > 1:
                orientation = tuple(rng.randrange(orbit.turns)
                                    for _ in orbit.slots)
            config.set_orbit_fields(orbit, perm, orientation)
    return compose(config)


def random_valid_configuration(spec, seed=None):
    '''Uniformly random reachable state.

    Samples every component freely, then repairs each constrained
    component in place: the last corner twist and single edge flip are
    set to cancel the rest, wing orientation bits are zeroed, and each
    permutation whose sign the law ties down is corrected by swapping
    the images of its first two home slots when needed. Each repair
    merges a constant number of free draws into one reachable state, so
    the result is uniform over the reachable states.
    '''
    rng = random.Random(seed)
    atlas = build_atlas(spec)
    config = ConfigTuple(spec.n)
    required = None
    # Orbit by orbit, the permutation is drawn before the orientation
    # vector, so that a seed names the same state as it always has.
    for orbit in atlas.orbits:
        size = len(orbit.slots)
        if orbit.family == 'single':
            perm = _signed_perm(rng, size, permutation_sign(config.corner_perm))
        elif orbit.turns == 1:
            if required is None:
                # Centre orbits come last, after the corner and wing
                # permutations that fix their signs.
                required = required_center_signs(
                    atlas, _sign(config.corner_perm),
                    {i: _sign(p) for i, p in config.coupled_perms.items()})
            perm = _signed_perm(rng, size, required[orbit.key])
        else:
            perm = _random_perm(rng, size)
        orientation = None
        if orbit.family == 'coupled':
            orientation = (0,) * size
        elif orbit.turns > 1:
            values = [rng.randrange(orbit.turns) for _ in range(size - 1)]
            orientation = tuple(values) + (-sum(values) % orbit.turns,)
        config.set_orbit_fields(orbit, perm, orientation)
    return compose(config)


def _random_perm(rng, size):
    images = list(range(size))
    rng.shuffle(images)
    return tuple(images)


def _signed_perm(rng, size, sign):
    images = list(_random_perm(rng, size))
    if permutation_sign(images) != sign:
        images[0], images[1] = images[1], images[0]
    return tuple(images)


def orbit_class_count(spec):
    '''Number of law classes among reassemblies, from first principles.

    Counts the joint values the move-invariant data can take: the
    corner twist sum mod 3, the single edge flip sum mod 2 (odd cubes),
    one bit per wing marking which sticker class it occupies, and the
    coset of the family sign vector modulo the span of the generator
    sign vectors over GF(2). The span is computed by running every
    legal slab move through the atlas and eliminating.
    '''
    atlas = build_atlas(spec)
    odd = spec.n % 2 == 1
    vectors = []
    for move in legal_slab_moves(spec):
        perm = sticker_permutation(spec, move)
        bits = 0
        for k, orbit in enumerate(atlas.orbits):
            action = atlas.slot_action(perm, orbit)
            if permutation_sign(action) < 0:
                bits |= 1 << k
        vectors.append(bits)

    basis = {}
    for vec in vectors:
        while vec:
            top = vec.bit_length() - 1
            if top in basis:
                vec ^= basis[top]
            else:
                basis[top] = vec
                break

    free_signs = len(atlas.orbits) - len(basis)
    wing_bits = 24 * len(atlas.coupled_orbit_indices)
    count = 3 * (2 ** (free_signs + wing_bits))
    if odd:
        count *= 2
    return count
