'''Traced calls into the eight cubology modules.

Every function here takes a Tracer and wraps each public call it makes
in a span named ``<module>.<function>``, so the per-layer numbers are
measured from outside the package. The layer sweep at the bottom runs
in every traced run, whatever the workload, so that each per-layer
metric has a value on every workload; the workload's own replay adds
its spans on top. The sweep is a fixed amount of work for a given seed,
and it is recorded by a tracer of its own, so that the totals taken
over it (self time per layer, moves applied, moves per bound) depend
on how fast and how well the program works, not on how many inputs
the replay got through.
'''

import json
import os
import re
import statistics
import subprocess
import sys
import time

from cubology.counting import (
    gods_number_lower_bound,
    group_order,
    reduced_sequence_count,
)
from cubology.cube_model import (
    CubeSpec,
    apply_move,
    apply_sequence,
    legal_slab_moves,
    sequence_permutation,
    solved_state,
    state_from_json_dict,
    state_to_json_dict,
)
from cubology.cubology_law import (
    check_validity,
    random_configuration,
    random_valid_configuration,
)
from cubology.decomposition import build_atlas, compose, decompose
from cubology.move_library import (
    center_three_cycle,
    corner_three_cycle,
    corner_twist_pair,
    coupled_edge_three_cycle,
    single_edge_flip_pair,
    single_edge_three_cycle,
)
from cubology.solver import solve_stage, stage_names, stage_plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, 'src')

# Solver stage names carry orbit indices (coupled_placement_3,
# center_edge_placement_2_4); metrics group them by family.
STAGE_FAMILIES = {
    4: ('sign_alignment', 'corner_placement', 'center_corner_placement',
        'coupled_placement', 'corner_orientation'),
    9: ('sign_alignment', 'corner_placement', 'single_edge_placement',
        'center_corner_placement', 'coupled_placement',
        'center_edge_placement', 'corner_orientation',
        'single_edge_orientation'),
}
DECOMPOSE_SIZES = (3, 4, 7, 9)
BSGS_SIZES = (3, 4)
BFS_DEPTH = 5
# Sphere sizes of the quarter-turn ball around solved at n=2, recorded
# at the commit that introduced this benchmark.
BFS_REFERENCE = (1, 12, 114, 924, 6539, 39528)
CLI_SUBCOMMANDS = ('scramble', 'solve', 'validate', 'count', 'order')
# The eight modules, and the benchmark's own glue.
LAYERS = ('cube_model', 'decomposition', 'cubology_law', 'move_library',
          'solver', 'counting', 'group_oracle', 'cli', 'bench')


def stage_family(stage_name):
    return re.sub(r'(_\d+)+$', '', stage_name)


def child_env():
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        p for p in (SRC, env.get('PYTHONPATH')) if p)
    return env


def cli_command(*args):
    return [sys.executable, '-m', 'cubology.cli', *args]


# --- per-input layer chains ------------------------------------------------


def solve_by_stages(tracer, state, input_id, cold=False):
    '''Replay one solve layer by layer: decompose, check_validity,
    then solve_stage for each stage. Returns the moves of all stages.'''
    spec = state.spec
    n = spec.n
    with tracer.span('decomposition.decompose', input_id, n=n):
        config = decompose(state)
    with tracer.span('cubology_law.check_validity', input_id, n=n):
        report = check_validity(config)
    tracer.count('cubology_law.attempted')
    tracer.count('cubology_law.valid', int(report.valid))
    moves = []
    current = state
    for name in stage_names(spec):
        with tracer.span('solver.solve_stage', input_id, n=n, cold=cold,
                         family=stage_family(name)) as record:
            sequence, current = solve_stage(current, name)
            record['moves'] = len(sequence)
        moves.extend(sequence)
    tracer.count('cube_model.moves_applied', len(moves))
    return moves


def verify_solution(tracer, state, moves, input_id):
    '''apply_sequence the moves to the state; True when that solves it.'''
    with tracer.span('cube_model.apply_sequence', input_id, n=state.n,
                     moves=len(moves)):
        end = apply_sequence(state, moves)
    tracer.count('cube_model.moves_applied', len(moves))
    return end == solved_state(state.spec)


def law_round_trip(tracer, state, input_id):
    '''decompose, check_validity, compose; True when compose gives the
    state back.'''
    n = state.n
    with tracer.span('decomposition.decompose', input_id, n=n):
        config = decompose(state)
    with tracer.span('cubology_law.check_validity', input_id, n=n):
        report = check_validity(config)
    tracer.count('cubology_law.attempted')
    tracer.count('cubology_law.valid', int(report.valid))
    with tracer.span('decomposition.compose', input_id, n=n):
        back = compose(config)
    return back == state


# group_oracle imports numpy, which nothing else in cubology needs; it is
# imported where it is used so that the other workloads' peak RSS and
# set-up do not carry it.


def traced_order(tracer, n, input_id):
    '''generators and build_bsgs at size n; the BSGS.'''
    from cubology.group_oracle import build_bsgs, generators
    with tracer.span('group_oracle.generators', input_id, n=n):
        gens = generators(CubeSpec(n))
    with tracer.span('group_oracle.build_bsgs', input_id, n=n) as record:
        bsgs = build_bsgs(gens.permutations, gens.spec.sticker_count)
        record['base_len'] = len(bsgs.base)
        record['strong_generators'] = len(bsgs.strong_generators)
    return bsgs


def traced_bfs(tracer, input_id, depth=BFS_DEPTH):
    from cubology.group_oracle import bfs_states
    with tracer.span('group_oracle.bfs_states', input_id, n=2,
                     depth=depth) as record:
        ball = bfs_states(CubeSpec(2), depth)
        record['states'] = ball.cumulative[-1]
    # Every state short of the full depth is expanded by every quarter
    # turn.
    tracer.count('cube_model.moves_applied',
                 ball.cumulative[-2] * len(legal_slab_moves(
                     CubeSpec(2), quarter_turns=(1, 3))))
    return ball


def bfs_ok(ball):
    '''The sphere sizes match the reference, and the ball holds no more
    states than there are reduced words of its length or less. The
    bound is checked on the whole ball, as acceptance criterion 9 does
    at depth 3: sphere by sphere it fails (114 states at distance 2
    against 108 reduced words of length 2, since the ball counts quarter
    turns), and so does the whole ball up to depth 2 (127 against 121).'''
    words = sum(reduced_sequence_count(2, k) for k in range(ball.depth + 1))
    return (ball.counts == BFS_REFERENCE[:ball.depth + 1]
            and ball.cumulative[-1] <= words)


def run_process(tracer, argv, sub, input_id):
    '''One CLI process, recorded as a span unless tracer is None;
    (returncode, stdout, stderr).'''
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=120)
    if tracer is not None:
        tracer.record('cli.process', start, time.perf_counter(), input_id,
                      sub=sub)
    return done.returncode, done.stdout, done.stderr


def run_pipeline(tracer, scramble_args, solve_args, input_id):
    '''scramble | solve as two concurrent processes, each recorded as a
    span unless tracer is None; (returncode of solve, its stdout, its
    stderr, whether scramble exited 0).'''
    env = child_env()
    first_start = time.perf_counter()
    first = subprocess.Popen(cli_command(*scramble_args), env=env, cwd=ROOT,
                             stdout=subprocess.PIPE)
    second_start = time.perf_counter()
    second = subprocess.Popen(cli_command(*solve_args), env=env, cwd=ROOT,
                              stdin=first.stdout, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
    first.stdout.close()
    # solve reads all of its input before it writes, so scramble ends
    # first; waiting for it before collecting solve's output is safe.
    first.wait(timeout=120)
    first_end = time.perf_counter()
    out, err = second.communicate(timeout=120)
    second_end = time.perf_counter()
    if tracer is not None:
        tracer.record('cli.process', first_start, first_end, input_id,
                      sub='scramble')
        tracer.record('cli.process', second_start, second_end, input_id,
                      sub='solve')
    return second.returncode, out, err, first.returncode == 0


# --- the layer sweep -------------------------------------------------------


def plan_words(spec, atlas):
    '''Build every named word stage_plan uses for this cube size.'''
    words = [corner_three_cycle(spec), corner_twist_pair(spec)]
    if spec.n % 2:
        words += [single_edge_three_cycle(spec), single_edge_flip_pair(spec)]
    words += [center_three_cycle(spec, i, i)
              for i in atlas.center_corner_indices]
    words += [coupled_edge_three_cycle(spec, i)
              for i in atlas.coupled_orbit_indices]
    words += [center_three_cycle(spec, i, j)
              for i, j in atlas.center_edge_labels]
    return words


def cold_probe(tracer, seed):
    '''Cold costs, run in a fresh interpreter (see child.py): atlas per
    size, the named words and stage_plan per solver size, then one solve
    per solver size replayed by stages so that each stage builds its
    setup chains.'''
    for n in DECOMPOSE_SIZES:
        with tracer.span('decomposition.build_atlas', n=n):
            build_atlas(CubeSpec(n))
    for n in sorted(STAGE_FAMILIES):
        spec = CubeSpec(n)
        with tracer.span('move_library.named_moves', n=n):
            plan_words(spec, build_atlas(spec))
        with tracer.span('solver.stage_plan', n=n):
            stage_plan(spec)
    ok = True
    for n in sorted(STAGE_FAMILIES):
        state = random_valid_configuration(CubeSpec(n), seed=seed + n)
        input_id = 'cold-%d' % n
        moves = solve_by_stages(tracer, state, input_id, cold=True)
        ok &= verify_solution(tracer, state, moves, input_id)
    return ok


def sweep(tracer, rng):
    '''Touch every layer once at fixed sizes; False if a check failed.'''
    ok = True
    for n, calls in ((2, 2000), (4, 1000), (9, 400)):
        spec = CubeSpec(n)
        alphabet = legal_slab_moves(spec, False, (1, 2, 3))
        word = [rng.choice(alphabet) for _ in range(calls)]
        state = solved_state(spec)
        with tracer.span('cube_model.apply_move', n=n, calls=calls):
            for move in word:
                state = apply_move(state, move)
        tracer.count('cube_model.moves_applied', calls)
        with tracer.span('cube_model.sequence_permutation', n=n,
                         moves=calls):
            perm = sequence_permutation(spec, word)
        # perm sends the sticker at i to perm[i].
        solved = solved_state(spec).stickers
        ok &= all(state.stickers[perm[i]] == solved[i]
                  for i in range(len(perm)))
        if n == 4:
            with tracer.span('cube_model.state_io', n=n, calls=200):
                for _ in range(200):
                    back = state_from_json_dict(state_to_json_dict(state))
            ok &= back == state
    for n in DECOMPOSE_SIZES:
        for k in range(8):
            state = random_configuration(CubeSpec(n),
                                         seed=rng.randrange(2 ** 63))
            ok &= law_round_trip(tracer, state, 'sweep-law-%d-%d' % (n, k))
    for n in sorted(STAGE_FAMILIES):
        for k in range(3):
            state = random_valid_configuration(
                CubeSpec(n), seed=rng.randrange(2 ** 63))
            input_id = 'sweep-solve-%d-%d' % (n, k)
            with tracer.span('bench.input', input_id, kind='solve',
                             n=n) as record:
                moves = solve_by_stages(tracer, state, input_id)
                record['moves'] = len(moves)
            ok &= verify_solution(tracer, state, moves, input_id)
    for _ in range(10):
        with tracer.span('counting.gods_number_lower_bound', n=4):
            gods_number_lower_bound(4)
    for n in BSGS_SIZES:
        bsgs = traced_order(tracer, n, 'sweep-order-%d' % n)
        ok &= bsgs.order == group_order(n)
    ok &= bfs_ok(traced_bfs(tracer, 'sweep-bfs'))
    ok &= sweep_cli(tracer, rng)
    with tracer.span('bench.cold_probe') as record:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, 'child.py'), 'cold',
             str(rng.randrange(2 ** 31))],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=170)
    if done.returncode:
        raise RuntimeError('cold probe failed:\n' + done.stderr)
    probe = json.loads(done.stdout.splitlines()[-1])
    tracer.adopt(probe['spans'], record['id'])
    for name, amount in probe['counts'].items():
        tracer.count(name, amount)
    return ok and probe['ok']


def sweep_cli(tracer, rng):
    '''Import timings, then one pipe and one run of each command.'''
    done = subprocess.run(
        [sys.executable, '-X', 'importtime', '-c', 'import cubology.cli'],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=120)
    tracer.counts['cli.import_us'] = import_micros(done.stderr,
                                                   'cubology.cli')
    tracer.counts['cli.import.numpy_us'] = import_micros(done.stderr,
                                                         'numpy')
    ok = True
    seed = rng.randrange(10 ** 9)
    for kind in ('pipe', 'validate', 'count', 'order'):
        op = cli_op(kind, seed, 3, 4)
        failed, wrong, _error = run_cli_op(tracer, op, 'sweep-cli-' + kind)
        ok &= not (failed or wrong)
    return ok


def cli_op(kind, seed, order_n, n):
    '''One CLI operation: the README pipe (kind 'pipe', or
    'solved_pipe' piping an already-solved document) or a single
    validate, count or order process, with the line its output must end
    with.'''
    if kind in ('pipe', 'solved_pipe'):
        scramble = ['scramble', '--n', str(n), '--seed', str(seed)]
        if kind == 'solved_pipe':
            scramble += ['--length', '0']
        return {'kind': kind, 'scramble': scramble,
                'solve': ['solve', '--n', str(n), '--state-file', '-'],
                'expect': 'verified: solved'}
    if kind == 'validate':
        args = ['validate', '--n', str(n), '--seed', str(seed)]
        expect = 'valid: yes'
    elif kind == 'count':
        args = ['count', '--n', str(n), '--what', 'bound']
        expect = '%d (bound ' % gods_number_lower_bound(n).ceiling
    else:
        args = ['order', '--n', str(order_n), '--method', 'both']
        expect = 'MATCH'
    return {'kind': kind, 'args': args, 'expect': expect}


# A last line that is a verdict against the expected one is a wrong
# answer, not a crash.
_WRONG_VERDICTS = ('verified: NOT SOLVED', 'valid: no', 'MISMATCH')


def run_cli_op(tracer, op, input_id):
    '''Run one cli_op; (failed, wrong, last stderr line).'''
    if 'scramble' in op:
        code, out, err, scrambled = run_pipeline(
            tracer, op['scramble'], op['solve'], input_id)
        code = code or not scrambled
    else:
        code, out, err = run_process(
            tracer, cli_command(*op['args']), op['args'][0], input_id)
    lines = out.splitlines()
    last = lines[-1] if lines else ''
    wrong = last in _WRONG_VERDICTS or (
        code == 0 and not last.startswith(op['expect']))
    failed = wrong or code != 0
    errors = err.strip().splitlines()
    return failed, wrong, errors[-1] if failed and errors else None


def import_micros(importtime_log, module):
    '''Cumulative import time of a top-level module from -X importtime.'''
    for line in importtime_log.splitlines():
        parts = [p.strip() for p in line.split('|')]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[1])
    raise ValueError('module %s missing from the import log' % module)


# --- per-layer metrics -----------------------------------------------------


def _mean(values):
    return sum(values) / len(values)


def layer_metrics(replay, sweep, overhead_s, untraced_s, inputs):
    '''Every per-layer metric of one traced run, as {name: (value,
    unit)}, from the Tracer of the replay of its `inputs` operations
    and that of the fixed sweep. Times per call, per solve and per
    process pool both; totals come from the sweep alone.'''
    spans = replay.spans + sweep.spans
    out = {}

    def per_call(name, unit_scale, weight, **match):
        chosen = [s for s in spans if s['name'] == name
                  and all(s.get(k) == v for k, v in match.items())]
        seconds = sum(s['end'] - s['start'] for s in chosen)
        return unit_scale * seconds / sum(s.get(weight, 1) for s in chosen)

    for n in (2, 4, 9):
        out['cube_model.apply_move.us.n%d' % n] = (
            per_call('cube_model.apply_move', 1e6, 'calls', n=n), 'us')
    out['cube_model.apply_sequence.us_per_move'] = (
        per_call('cube_model.apply_sequence', 1e6, 'moves'), 'us')
    out['cube_model.sequence_permutation.us_per_move'] = (
        per_call('cube_model.sequence_permutation', 1e6, 'moves'), 'us')
    out['cube_model.state_io.us'] = (
        per_call('cube_model.state_io', 1e6, 'calls'), 'us')
    out['cube_model.moves_applied'] = (
        sweep.counts['cube_model.moves_applied'], 'count')
    for n in DECOMPOSE_SIZES:
        out['decomposition.build_atlas.s.n%d' % n] = (
            per_call('decomposition.build_atlas', 1, 'calls', n=n), 's')
        out['decomposition.decompose.us.n%d' % n] = (
            per_call('decomposition.decompose', 1e6, 'calls', n=n), 'us')
        out['decomposition.compose.us.n%d' % n] = (
            per_call('decomposition.compose', 1e6, 'calls', n=n), 'us')
    out['cubology_law.check_validity.us'] = (
        per_call('cubology_law.check_validity', 1e6, 'calls'), 'us')
    for n, families in sorted(STAGE_FAMILIES.items()):
        out['move_library.named_moves.s.n%d' % n] = (
            per_call('move_library.named_moves', 1, 'calls', n=n), 's')
        out['solver.stage_plan.s.n%d' % n] = (
            per_call('solver.stage_plan', 1, 'calls', n=n), 's')
        warm = [s for s in spans
                if s['name'] == 'solver.solve_stage' and s['n'] == n]
        solves = len({s['input'] for s in warm if not s['cold']})
        for family in families:
            mine = [s for s in warm if s['family'] == family]
            hot = [s for s in mine if not s['cold']]
            out['solver.stage.%s.s.n%d' % (family, n)] = (
                sum(s['end'] - s['start'] for s in hot) / solves, 's')
            out['solver.stage.%s.moves.n%d' % (family, n)] = (
                sum(s['moves'] for s in hot) / solves, 'moves')
            out['solver.stage.%s.cold_s.n%d' % (family, n)] = (
                sum(s['end'] - s['start'] for s in mine if s['cold']), 's')
        ceiling = gods_number_lower_bound(n).ceiling
        out['solver.moves_per_bound.n%d' % n] = (statistics.median(
            s['moves'] / ceiling for s in sweep.spans
            if s['name'] == 'bench.input' and s.get('kind') == 'solve'
            and s['n'] == n), 'ratio')
    out['counting.gods_number_lower_bound.ms'] = (
        per_call('counting.gods_number_lower_bound', 1e3, 'calls'), 'ms')
    for n in BSGS_SIZES:
        out['group_oracle.build_bsgs.s.n%d' % n] = (
            per_call('group_oracle.build_bsgs', 1, 'calls', n=n), 's')
    last = [s for s in spans
            if s['name'] == 'group_oracle.build_bsgs' and s['n'] == 4][-1]
    out['group_oracle.base_len.n4'] = (last['base_len'], 'count')
    out['group_oracle.strong_generators.n4'] = (
        last['strong_generators'], 'count')
    out['group_oracle.bfs_states.s'] = (
        per_call('group_oracle.bfs_states', 1, 'calls'), 's')
    out['group_oracle.bfs_states.us_per_state'] = (
        per_call('group_oracle.bfs_states', 1e6, 'states'), 'us')
    out['cli.import_s'] = (sweep.counts['cli.import_us'] / 1e6, 's')
    out['cli.import.numpy_s'] = (
        sweep.counts['cli.import.numpy_us'] / 1e6, 's')
    for sub in CLI_SUBCOMMANDS:
        out['cli.process_s.%s' % sub] = (
            per_call('cli.process', 1, 'calls', sub=sub), 's')
    selfs = sweep.self_times()
    for layer in LAYERS:
        out['%s.self_s' % layer] = (selfs[layer], 's')
    out['trace.overhead_ms_per_input'] = (1e3 * overhead_s / inputs, 'ms')
    out['trace.overhead_frac'] = (overhead_s / untraced_s, 'ratio')
    return out
