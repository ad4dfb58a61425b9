"""Acceptance gate: one test per shipped criterion, one verdict line each.

Run with -s to see the verdict lines as they pass; every check here is
exact unless the criterion itself states a statistical tolerance.
"""

import time
from math import factorial

from cubology.cube_model import (
    CubeSpec,
    apply_move,
    apply_sequence,
    invert_sequence,
    legal_slab_moves,
    sequence_permutation,
    solved_state,
)
from cubology.cubology_law import (
    check_validity,
    is_solvable,
    random_configuration,
    random_valid_configuration,
)
from cubology.decomposition import build_atlas, decompose
from cubology.group_oracle import (
    bfs_states,
    estimate_valid_fraction,
    generators,
    schreier_sims_order,
    subgroup_order,
)
from cubology.move_library import (
    all_named_moves,
    corner_three_cycle,
    corner_twist_pair,
    coupled_edge_parity_move,
    coupled_edge_three_cycle,
    single_edge_flip_pair,
    single_edge_three_cycle,
    verify_cycle_structure,
)
from cubology.counting import (
    gods_number_lower_bound,
    group_order,
    normalized_bound_limit,
    normalized_bound_ratio,
    orbit_count,
    reduced_sequence_count,
    s_conf_size,
    s_phys_size,
    stabilizer_order,
    tuned_lower_bound,
)
from cubology.solver import solve, stage_plan

F8, F12, F24 = factorial(8), factorial(12), factorial(24)


def verdict(number, ok, detail):
    print('criterion %d: %s (%s)' % (number, 'PASS' if ok else 'FAIL', detail))
    assert ok, 'criterion %d failed: %s' % (number, detail)


def conjugate_family(spec, core, depth):
    """The core macro plus its conjugates by all setup words up to depth."""
    alphabet = legal_slab_moves(spec, False, (1, 2, 3))
    setups = [(m,) for m in alphabet]
    if depth >= 2:
        setups += [(a, b) for a in alphabet for b in alphabet]
    sequences = [core.sequence]
    sequences += [s + core.sequence + invert_sequence(s) for s in setups]
    return [sequence_permutation(spec, q) for q in sequences]


def test_criterion_1_formula_matches_oracle():
    timings = []
    for n in range(2, 10):
        started = time.time()
        oracle = schreier_sims_order(generators(CubeSpec(n)))
        elapsed = time.time() - started
        timings.append('n=%d %.1fs' % (n, elapsed))
        assert oracle == group_order(n), n
        assert elapsed < 300, (n, elapsed)
    verdict(1, True, 'formula equals Schreier-Sims order, %s' % ', '.join(timings))


def test_criterion_2_canonical_constants():
    ok = (group_order(2) == 88_179_840
          and group_order(3) == 43_252_003_274_489_856_000
          and group_order(5) == F8 * 3 ** 7 * F12 * 2 ** 8 * F24 ** 3
          and s_conf_size(2) == F8 * 3 ** 8
          and s_conf_size(3) == F8 * 3 ** 8 * 2 ** 12 * F12
          and s_conf_size(5) == F8 * 3 ** 8 * 2 ** 36 * F24 ** 3 * F12)
    verdict(2, ok, 'five displayed products evaluated exactly')


def test_criterion_3_law_is_move_invariant():
    states_per_size = 1000
    checked = 0
    for n in range(2, 8):
        spec = CubeSpec(n)
        moves = legal_slab_moves(spec, False, (1, 3))
        for seed in range(states_per_size):
            state = random_configuration(spec, seed=seed * 6 + n)
            before = [c.ok for c in
                      check_validity(decompose(state)).conditions]
            for move in moves:
                after = [c.ok for c in check_validity(
                    decompose(apply_move(state, move))).conditions]
                assert after == before, (n, seed, move)
                checked += 1
    verdict(3, True,
            '%d generator applications left every verdict unchanged' % checked)


def test_criterion_4_orbit_ratio_and_exact_identities():
    trials = 100_000
    est3 = estimate_valid_fraction(CubeSpec(3), trials, seed=2026)
    est2 = estimate_valid_fraction(CubeSpec(2), trials, seed=2026)
    assert est3.low <= 1 / 12 <= est3.high, (est3.low, est3.high)
    assert est2.low <= 1 / 3 <= est2.high, (est2.low, est2.high)
    for n in range(2, 51):
        assert group_order(n) * orbit_count(n) == s_conf_size(n), n
        assert stabilizer_order(n) * s_phys_size(n) == group_order(n), n
    verdict(4, True,
            'n=3 hit rate %.5f in 99%% Wilson of 1/12, n=2 %.5f of 1/3; '
            'Lagrange identities exact for n=2..50'
            % (est3.fraction, est2.fraction))


def test_criterion_5_named_move_contracts():
    reverified = 0
    for n in range(2, 8):
        spec = CubeSpec(n)
        for named in all_named_moves(spec):
            report = verify_cycle_structure(
                spec, named.sequence, named.expected_effect)
            assert report.ok, (n, named.name, report.failing())
            reverified += 1
    # the inventory includes the two special constructions
    names4 = [m.name for m in all_named_moves(CubeSpec(4))]
    assert 'coupled_edge_parity_move' in names4
    names5 = [m.name for m in all_named_moves(CubeSpec(5))]
    assert names5.count('center_three_cycle') == 2  # one rides the central slab
    verdict(5, True, '%d named-move contracts reverified, zero failures'
            % reverified)


def test_criterion_6_subgroup_certification():
    spec3, spec4 = CubeSpec(3), CubeSpec(4)
    atlas3, atlas4 = build_atlas(spec3), build_atlas(spec4)

    corner_slots = subgroup_order(
        conjugate_family(spec3, corner_three_cycle(spec3), 1),
        restriction=lambda p: atlas3.slot_action(p, atlas3.orbit('corner')))
    assert corner_slots == 20_160  # |A8|

    single_slots = subgroup_order(
        conjugate_family(spec3, single_edge_three_cycle(spec3), 2),
        restriction=lambda p: atlas3.slot_action(p, atlas3.orbit('single')))
    assert single_slots == 239_500_800  # |A12|

    corner_positions = sorted(
        q for slot in atlas3.orbit('corner').slots for q in slot.positions)
    corner_index = {q: i for i, q in enumerate(corner_positions)}
    twists = subgroup_order(
        conjugate_family(spec3, corner_twist_pair(spec3), 1),
        restriction=lambda p: tuple(
            corner_index[p[q]] for q in corner_positions))
    assert twists == 2_187  # 3^7

    edge_positions = sorted(
        q for slot in atlas3.orbit('single').slots
        for q in slot.positions)
    edge_index = {q: i for i, q in enumerate(edge_positions)}
    flips = subgroup_order(
        conjugate_family(spec3, single_edge_flip_pair(spec3), 2),
        restriction=lambda p: tuple(edge_index[p[q]] for q in edge_positions))
    assert flips == 2_048  # 2^11

    wings = atlas4.orbit('coupled', 2)
    coupled_cycles = conjugate_family(
        spec4, coupled_edge_three_cycle(spec4, 2), 2)
    coupled_slots = subgroup_order(
        coupled_cycles, restriction=lambda p: atlas4.slot_action(p, wings))
    assert coupled_slots == F24 // 2  # |A24|

    with_parity = coupled_cycles + [sequence_permutation(
        spec4, coupled_edge_parity_move(spec4, 2).sequence)]
    full_wing_group = subgroup_order(
        with_parity, restriction=lambda p: atlas4.slot_action(p, wings))
    assert full_wing_group == F24  # |S24|

    verdict(6, True, 'A8, A12, 3^7, 2^11 at n=3 and A24, S24 at n=4, all exact')


def test_criterion_7_solver_mass_verification():
    worst_large = 0.0
    solves = 0
    for n in (2, 3, 4, 5):
        spec = CubeSpec(n)
        plan = stage_plan(spec)
        for seed in range(100):
            state = random_valid_configuration(spec, seed=seed + 1000 * n)
            started = time.time()
            trace = solve(state)
            elapsed = time.time() - started
            if n == 5:
                worst_large = max(worst_large, elapsed)
                assert elapsed < 10, (seed, elapsed)
            assert apply_sequence(state, trace.total) == solved_state(spec)
            running = state
            for stage, (name, seq, config_after) in zip(plan, trace.stages):
                assert stage.name == name
                running = apply_sequence(running, seq)
                reads = {}
                config = decompose(running, reads)
                assert config == config_after, (n, seed, name)
                assert stage.done(running, reads), (n, seed, name)
            solves += 1
    verdict(7, True,
            '%d solves verified exactly with stage postconditions; '
            'worst n=5 solve %.2fs' % (solves, worst_large))


def test_criterion_8_lower_bound_machinery():
    pocket = gods_number_lower_bound(2)
    assert pocket.ceiling == 7
    # interval-certified: a higher working precision gives the same ceiling
    assert gods_number_lower_bound(2, precision=200).ceiling == 7
    ceilings = [gods_number_lower_bound(n).ceiling for n in range(2, 21)]
    assert all(a < b for a, b in zip(ceilings, ceilings[1:]))
    for n in range(2, 16):
        assert tuned_lower_bound(n).ceiling >= \
            gods_number_lower_bound(n).ceiling, n
    limit = normalized_bound_limit()
    gaps = [limit - normalized_bound_ratio(n) for n in (10, 100, 1000, 10000)]
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # the exhaustive n=3 optimum is out of scope by design; the certified
    # lower bound must simply sit below the known quarter-turn optimum of 26
    assert gods_number_lower_bound(3).ceiling <= 26
    assert tuned_lower_bound(3).ceiling <= 26
    verdict(8, True,
            'ceiling(2)=7 certified at two precisions; ceilings strictly '
            'grow over n=2..20; tuned >= plain; normalized ratio converges '
            'toward %.4f' % limit)


def test_criterion_9_breadth_first_soundness():
    for n in (2, 3):
        ball = bfs_states(CubeSpec(n), 3)
        for state in ball.states:
            assert is_solvable(state), n
        word_bound = sum(reduced_sequence_count(n, k) for k in range(4))
        assert ball.cumulative[3] <= word_bound, (n, ball.cumulative, word_bound)
    from itertools import product
    for n in (2, 3, 4):
        letters = 6 * n
        for k in range(5 if n < 4 else 4):
            if k == 0:
                brute = 1
            else:
                brute = sum(
                    1 for word in product(range(letters), repeat=k)
                    if all(a // 3 != b // 3 for a, b in zip(word, word[1:])))
            assert reduced_sequence_count(n, k) == brute, (n, k)
    verdict(9, True,
            'depth-3 balls all valid and within the reduced-word bound; '
            'closed form matches enumeration for k<=4, n<=4')
