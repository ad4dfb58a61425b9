#!/usr/bin/env python3
'''Solver performance snapshot, written as BENCH_<label>.json.

    python3 tools/bench.py --label L [--out DIR]

Run it from the root of a checkout; it imports cubology from the
checkout's src/. It records:

* cold solve at n = 4, 9, 13, 17, 25, 33: three fresh interpreters per
  size each solve the seeded valid state (seed n) and report the
  solve's wall seconds, the part of them spent building orbit stages'
  set-ups (setup alphabet, class tables, core table), the set-ups
  built and the breadth-first passes that filled the class tables;
  each figure is the median of the three, since one fresh process
  alone can swing by as much as a change under test;
* warm solve at n = 3, 4, 5, 7, 9, 13, 17, 25, 33: after one solve has
  built the size's stage plan and class tables, the median and worst
  wall seconds over the new states of seeds 100..139, raw and at the
  reference speed (each solve is followed by about as much of
  perfbench's reference() as REF_SPEED runs in its time, as for the
  layers below), the microseconds per emitted move (all solve seconds
  over all moves, raw and at the reference speed), the shares of the
  solve seconds spent choosing setups in _ClassTables.choose (for a
  3-cycle, the walk of its class's order and that order's first build)
  and in full decompositions of the state (the entry check and the sign
  alignment's postcondition), the median ratio of solution length to
  the certified lower bound gods_number_lower_bound(n).ceiling, the
  passes per solve (the calls of that chooser, one per conjugate), the
  microseconds per pass at the reference speed (all solve seconds over
  all passes) and, per family of the worked orbit (centre, wing, cubie:
  corners and single edges), the microseconds per pass at the
  reference speed of that family's stages (their run seconds, without
  the postcondition checks, over their passes; None where the size has
  no such orbit); then the
  same states solved once more, when every order they ask for exists,
  give the repeat median and microseconds per pass at the reference
  speed;
* first-request cost of _ClassTables.order at n = 4 and 5: after one
  solve at the size, each 3-cycle class the size uses builds its order
  afresh for every (s, h) pair, its kept orders set aside meanwhile;
  the microseconds per pair, the median of ORDER_PASSES passes, raw
  and at the reference speed;
* per-layer microseconds per call of decompose, compose and
  check_validity at n = 3, 5, 7, 9, over the random_configuration
  states of seeds 0..49: the median of seven passes over all of them,
  raw and at the reference speed, as perfbench/run.py gives them:
  each pass is followed by about as much of perfbench's reference()
  as REF_SPEED runs in the pass's time, and the pass's seconds are
  scaled by the speed that reached over REF_SPEED;
* Monte Carlo seconds: estimate_valid_fraction at n = 3 and 2, each
  MONTE_CARLO_SAMPLES samples from MONTE_CARLO_SEED, the median of
  MONTE_CARLO_RUNS runs, raw and at the reference speed, with the
  quartiles at the reference speed; this is criterion 4's work (draws
  composed, decomposed and checked by the law) at a fiftieth of its
  sample count;
* CLI end to end: `cubology solve --n 17 --seed 1` (cli_solve_s) and
  `cubology solve --n 33 --seed 1` (cli_solve_n33_s), each in a fresh
  interpreter, its wall seconds from start to exit, including the
  check by application, the median of three runs;
* the speed of perfbench/run.py's reference(), a fixed pure-Python
  workload sharing no code with the program, in iterations per second,
  measured before and after the solves, so that files written on
  different days, when the host runs at a different speed, can be
  put on one scale;
* the git sha, whether tracked files differ from it, the Python
  version and the processor count.

Compare two heads by running both alternately in one session; the host's
speed drifts too much for files from different days to compare in raw
seconds, and even within a session the raw layer microseconds swing by
up to 2x, which the reference-speed figures (_ref_us) take out.
'''

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, 'src'))
sys.path.insert(0, os.path.join(ROOT, 'perfbench'))

COLD_SIZES = (4, 9, 13, 17, 25, 33)
WARM_SIZES = (3, 4, 5, 7, 9, 13, 17, 25, 33)
WARM_SEEDS = range(100, 140)
LAYER_SIZES = (3, 5, 7, 9)
LAYER_SEEDS = range(50)
LAYER_PASSES = 7
REF_ITERATIONS = 20000
MONTE_CARLO_SIZES = (3, 2)
MONTE_CARLO_SAMPLES = 2000
MONTE_CARLO_SEED = 2026
MONTE_CARLO_RUNS = 25
ORDER_SIZES = (4, 5)
ORDER_PASSES = 5
CLI_SOLVE = ('solve', '--n', '17', '--seed', '1')
CLI_SOLVE_N33 = ('solve', '--n', '33', '--seed', '1')
RUNS = 3


def timed(function, spent):
    '''function wrapped to append each call's wall seconds to spent.'''
    def wrapper(*args):
        start = time.perf_counter()
        try:
            return function(*args)
        finally:
            spent.append(time.perf_counter() - start)
    return wrapper


def at_reference_speed(seconds):
    '''seconds scaled to the reference speed: about as much of
    perfbench's reference() as REF_SPEED runs in that time is run right
    after, and seconds are scaled by the speed it reached over
    REF_SPEED.'''
    from run import REF_SPEED, reference
    iterations = max(1, round(seconds * REF_SPEED))
    start = time.perf_counter()
    reference(iterations)
    speed = iterations / (time.perf_counter() - start)
    return seconds * speed / REF_SPEED


def cold_solve(n):
    '''Solve seed n's valid state in this fresh interpreter, timing the
    orbit stages' set-ups it builds on the way.'''
    from cubology import solver
    from cubology.cube_model import CubeSpec
    from cubology.cubology_law import random_valid_configuration

    spec = CubeSpec(n)
    state = random_valid_configuration(spec, seed=n)
    spent = []
    # stage_plan binds _setup_search into each orbit stage, so it is
    # wrapped before the solve builds the plan; one call per set-up.
    solver._setup_search = timed(solver._setup_search, spent)
    start = time.perf_counter()
    solver.solve(state)
    elapsed = time.perf_counter() - start
    # One breadth-first pass fills each class's tables.
    return {'solve_s': elapsed, 'chain_build_s': sum(spent),
            'chains_built': len(spent),
            'breadth_first_passes': solver._class_tables.cache_info().misses}


def _pass_family(orbit):
    return ('centre' if orbit.turns == 1 else
            'wing' if orbit.family == 'coupled' else 'cubie')


def _timed_plan(plan, in_choose, spent):
    '''The stage plan with each orbit stage's run timed: every run
    appends (family, seconds, passes) to spent, its passes counted as
    the chooser calls in_choose records meanwhile.'''
    def timed_stage(stage):
        run = stage.run
        orbit = getattr(run, 'keywords', {}).get('orbit')
        if orbit is None:
            return stage

        def timed_run(state):
            passes, start = len(in_choose), time.perf_counter()
            try:
                return run(state)
            finally:
                spent.append((_pass_family(orbit),
                              time.perf_counter() - start,
                              len(in_choose) - passes))
        return dataclasses.replace(stage, run=timed_run)
    return tuple(map(timed_stage, plan))


def warm_solves(n):
    from cubology import solver
    from cubology.counting import gods_number_lower_bound
    from cubology.cube_model import CubeSpec
    from cubology.cubology_law import random_valid_configuration

    spec = CubeSpec(n)
    solver.solve(random_valid_configuration(spec, seed=n))
    ceiling = gods_number_lower_bound(n).ceiling
    choose, decompose = solver._ClassTables.choose, solver.decompose
    stage_plan = solver.stage_plan
    in_choose, in_decompose, spent = [], [], []
    solver._ClassTables.choose = timed(choose, in_choose)
    solver.decompose = timed(decompose, in_decompose)
    plan = _timed_plan(stage_plan(spec), in_choose, spent)
    solver.stage_plan = lambda _spec: plan
    # Per family: [stage seconds at the reference speed, passes].
    families = {family: [0.0, 0] for family in ('centre', 'wing', 'cubie')}
    seconds, at_ref, ratios, moves = [], [], [], 0
    states = [random_valid_configuration(spec, seed=seed)
              for seed in WARM_SEEDS]
    try:
        for state in states:
            start = time.perf_counter()
            trace = solver.solve(state)
            seconds.append(time.perf_counter() - start)
            at_ref.append(at_reference_speed(seconds[-1]))
            ratios.append(len(trace.total) / ceiling)
            moves += len(trace.total)
            for family, stage_seconds, stage_passes in spent:
                families[family][0] += (stage_seconds * at_ref[-1]
                                        / seconds[-1])
                families[family][1] += stage_passes
            spent.clear()
    finally:
        solver._ClassTables.choose = choose
        solver.decompose = decompose
        solver.stage_plan = stage_plan
    passes = len(in_choose)
    repeat = []
    for state in states:
        start = time.perf_counter()
        solver.solve(state)
        repeat.append(at_reference_speed(time.perf_counter() - start))
    return {'median_s': statistics.median(seconds), 'worst_s': max(seconds),
            'median_ref_s': statistics.median(at_ref),
            'worst_ref_s': max(at_ref),
            'us_per_move': 1e6 * sum(seconds) / moves,
            'us_per_move_ref': 1e6 * sum(at_ref) / moves,
            'find_share': sum(in_choose) / sum(seconds),
            'decompose_share': sum(in_decompose) / sum(seconds),
            'moves_per_bound': statistics.median(ratios),
            'bound_ceiling': ceiling,
            'passes_per_solve': passes / len(states),
            'us_per_pass_ref': 1e6 * sum(at_ref) / passes,
            **{'us_per_pass_ref_' + family:
               1e6 * family_seconds / family_passes if family_passes else None
               for family, (family_seconds, family_passes)
               in families.items()},
            'repeat_median_ref_s': statistics.median(repeat),
            'repeat_us_per_pass_ref': 1e6 * sum(repeat) / passes}


def order_first_request(n):
    '''Microseconds per (s, h) pair of _ClassTables.order building a
    pair's order afresh, over every pair of each 3-cycle class a solve
    of size n uses, the median of ORDER_PASSES passes, raw and at the
    reference speed; each class's kept orders are set aside during a
    pass and put back after it.'''
    from cubology import solver
    from cubology.cube_model import CubeSpec
    from cubology.cubology_law import random_valid_configuration

    spec = CubeSpec(n)
    solver.solve(random_valid_configuration(spec, seed=n))
    classes = {}
    for stage in solver.stage_plan(spec)[1:]:
        tables = stage.run.keywords['setup']()[0]
        if len(tables.lengths) == 3:
            classes[id(tables)] = tables
    pairs = sum(len(t.lengths[0]) * (len(t.lengths[0]) - 1)
                for t in classes.values())
    passes, at_ref = [], []
    for _ in range(ORDER_PASSES):
        seconds = 0.0
        for tables in classes.values():
            kept, tables._orders = tables._orders, {}
            size = len(tables.lengths[0])
            start = time.perf_counter()
            for s in range(size):
                for h in range(size):
                    if s != h:
                        tables.order(s, h)
            seconds += time.perf_counter() - start
            tables._orders = kept
        passes.append(seconds)
        at_ref.append(at_reference_speed(seconds))
    return {'classes': len(classes), 'pairs': pairs,
            'us_per_pair': 1e6 * statistics.median(passes) / pairs,
            'us_per_pair_ref': 1e6 * statistics.median(at_ref) / pairs}


def layer_calls(n):
    '''Microseconds per call of decompose, compose and check_validity at
    size n, the median of LAYER_PASSES passes over fixed states, raw
    and at the reference speed measured right after each pass.'''
    from cubology.cube_model import CubeSpec
    from cubology.cubology_law import check_validity, random_configuration
    from cubology.decomposition import compose, decompose

    states = [random_configuration(CubeSpec(n), seed) for seed in LAYER_SEEDS]
    configs = [decompose(state) for state in states]
    calls = {'decompose': (decompose, states), 'compose': (compose, configs),
             'check_validity': (check_validity, configs)}
    out = {}
    for name, (function, inputs) in calls.items():
        passes, at_ref = [], []
        for _ in range(LAYER_PASSES):
            start = time.perf_counter()
            for value in inputs:
                function(value)
            seconds = time.perf_counter() - start
            passes.append(seconds)
            at_ref.append(at_reference_speed(seconds))
        out[name + '_us'] = 1e6 * statistics.median(passes) / len(inputs)
        out[name + '_ref_us'] = (1e6 * statistics.median(at_ref)
                                 / len(inputs))
    return out


def monte_carlo(n):
    '''Seconds of one fixed estimate_valid_fraction at size n, the median
    of MONTE_CARLO_RUNS runs, raw and at the reference speed, and the
    quartiles at the reference speed.'''
    from cubology.cube_model import CubeSpec
    from cubology.group_oracle import estimate_valid_fraction

    seconds, at_ref = [], []
    for _ in range(MONTE_CARLO_RUNS):
        start = time.perf_counter()
        estimate_valid_fraction(CubeSpec(n), MONTE_CARLO_SAMPLES,
                                seed=MONTE_CARLO_SEED)
        seconds.append(time.perf_counter() - start)
        at_ref.append(at_reference_speed(seconds[-1]))
    q1, _, q3 = statistics.quantiles(at_ref, n=4)
    return {'samples': MONTE_CARLO_SAMPLES, 'seed': MONTE_CARLO_SEED,
            'runs': MONTE_CARLO_RUNS, 'seconds': statistics.median(seconds),
            'ref_seconds': statistics.median(at_ref),
            'ref_q1': q1, 'ref_q3': q3}


def cli_solve(argv):
    '''Wall seconds of the CLI run with argv in a fresh interpreter,
    start to exit, the median of RUNS runs.'''
    paths = (os.path.join(ROOT, 'src'), os.environ.get('PYTHONPATH'))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    seconds = []
    for _ in range(RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, '-m', 'cubology.cli', *argv],
                       env=env, capture_output=True, check=True)
        seconds.append(time.perf_counter() - start)
    return {'argv': ' '.join(argv), 'seconds': statistics.median(seconds)}


def reference_speed():
    '''Fastest of three runs of perfbench's reference(), iterations/s.'''
    from run import reference
    best = 0.0
    for _ in range(3):
        start = time.perf_counter()
        reference(REF_ITERATIONS)
        best = max(best, REF_ITERATIONS / (time.perf_counter() - start))
    return best


def git(*args):
    try:
        return subprocess.run(
            ['git', *args], cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--label')
    parser.add_argument('--out', default=ROOT)
    parser.add_argument('--cold', type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cold is not None:
        print(json.dumps(cold_solve(args.cold)))
        return 0
    if not args.label:
        parser.error('--label is required')
    speed_before = reference_speed()
    cold = {}
    for n in COLD_SIZES:
        runs = [json.loads(subprocess.run(
            [sys.executable, os.path.abspath(__file__), '--cold', str(n)],
            capture_output=True, text=True, check=True).stdout)
            for _ in range(RUNS)]
        cold[str(n)] = {key: statistics.median(run[key] for run in runs)
                        for key in runs[0]}
    warm = {str(n): warm_solves(n) for n in WARM_SIZES}
    orders = {str(n): order_first_request(n) for n in ORDER_SIZES}
    layers = {str(n): layer_calls(n) for n in LAYER_SIZES}
    estimates = {str(n): monte_carlo(n) for n in MONTE_CARLO_SIZES}
    cli = cli_solve(CLI_SOLVE)
    cli_n33 = cli_solve(CLI_SOLVE_N33)
    result = {
        'label': args.label,
        'git_sha': git('rev-parse', 'HEAD'),
        # True when tracked files differ from that commit, as they do
        # when a change is measured before it is committed.
        'git_dirty': bool(git('status', '--porcelain',
                              '--untracked-files=no')),
        'python': platform.python_version(),
        'nproc': os.cpu_count(),
        'reference_iterations_per_s': {
            'before': speed_before, 'after': reference_speed()},
        'cold_solve': cold,
        'warm_solve': warm,
        'order_first_request': orders,
        'layer_us': layers,
        'monte_carlo_s': estimates,
        'cli_solve_s': cli,
        'cli_solve_n33_s': cli_n33,
    }
    path = os.path.join(args.out, 'BENCH_%s.json' % args.label)
    with open(path, 'w') as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write('\n')
    print(path)
    return 0


if __name__ == '__main__':
    sys.exit(main())
