#!/usr/bin/env python3
'''Measure every workload over several seeds and write a baseline.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

For each of the four workloads, each run as long as run_seconds in
BENCHMARK.json: ten untraced runs with seeds 1 to 10, then one traced
run with seed 1. For every end-to-end metric, the means, medians and
tails of both classes and the work per second in measured seconds
(marked as not gated) and every named metric it records the median over
the runs, the quartiles and their distance as a share of the median
(the spread), with the per-run sample counts and tail
percentiles; for every per-layer metric, the traced run's value. Also
recorded: the git commit of the checkout when there is one, the Python
version, the processor count, the workload mixes, whether BENCHMARK.json
lists the workload (and so gates it) and, for each per-layer
metric, the end-to-end metric it should move. A perf change can write
the same file for its parent and for itself and compare the two.
'''

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Ten seeds, as the benchmark's acceptance takes its quartiles over.
SEEDS = list(range(1, 11))

# per-layer metric prefix -> (end-to-end metric it should move, workloads)
PER_LAYER_TARGETS = {
    'cube_model.apply_move.us': (
        'large_* (solve_n9_s.*), work_per_ref_s (oracle.bfs_states_per_s); '
        'no change on law', 'solve oracle'),
    'cube_model.apply_sequence.us_per_move': (
        'large_* (solve_n9_s.*), work_per_ref_s (oracle.bfs_states_per_s); '
        'no change on law', 'solve oracle'),
    'cube_model.sequence_permutation.us_per_move': ('setup_s', 'solve cli'),
    'cube_model.state_io.us': ('large_* (cli.pipe_s.*)', 'cli'),
    'decomposition.build_atlas.s': ('setup_s, every cli metric',
                                    'solve law cli'),
    'decomposition.decompose.us': (
        'work_per_ref_s (law.states_per_s), large_* (solve_n9_s.*)',
        'law solve'),
    'decomposition.compose.us': (
        'work_per_ref_s (law.states_per_s), large_* (solve_n9_s.*)',
        'law solve'),
    'cubology_law.check_validity.us': (
        'work_per_ref_s (law.states_per_s), small_* (solve_n4_s.*)',
        'law solve'),
    'move_library.named_moves.s': ('setup_s', 'solve cli'),
    'solver.stage_plan.s': ('setup_s', 'solve cli'),
    'solver.stage.*.s': ('small_*, large_* (solve_n4_s.*, solve_n9_s.*)',
                         'solve'),
    'solver.stage.*.moves': ('solve_n*.moves_per_bound', 'solve'),
    'solver.moves_per_bound': ('solve_n*.moves_per_bound', 'solve'),
    'solver.stage.*.cold_s': ('setup_s, large_* (cli.pipe_s.*)',
                              'solve cli'),
    'counting.gods_number_lower_bound.ms': (
        'small_ref_s (cli.command_s.p50)', 'cli'),
    'group_oracle.build_bsgs.s': ('large_ref_s (oracle.order_n4_s)',
                                  'oracle'),
    'group_oracle.bfs_states.s': ('work_per_ref_s (oracle.bfs_states_per_s)',
                                  'oracle'),
    'cli.import_s': ('every cli metric', 'cli'),
    'cli.import.numpy_s': ('every cli metric', 'cli'),
    'cli.process_s': ('every cli metric', 'cli'),
}


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, 'run.py'), '--workload',
            workload, '--seed', str(seed), '--seconds', str(seconds),
            '--trace', str(trace)]
    # A run measures for `seconds`; its set-up and, traced, the layer
    # sweep take well under ten minutes.
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=2 * seconds + 600)
    if done.returncode:
        raise SystemExit('%s seed %d exited %d:\n%s'
                         % (workload, seed, done.returncode, done.stderr))
    result = json.loads(done.stdout.splitlines()[-1])
    path = os.path.join(ROOT, '.perfbench', 'result-%s-seed%d-trace%d.json'
                        % (workload, seed, trace))
    with open(path) as handle:
        return result, json.load(handle)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {'median': median, 'q1': q1, 'q3': q3,
            'spread': (q3 - q1) / median if median else None,
            'values': values}


def commit():
    try:
        done = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[1])
    parser.add_argument('--out', required=True)
    args = parser.parse_args()
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, 'src'))
    from workloads import WORKLOADS
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as handle:
        contract = json.load(handle)
    seconds = contract['run_seconds']
    whys = {w['name']: w['why'] for w in contract['workloads']}
    report = {
        'commit': commit(),
        'python': platform.python_version(),
        'nproc': os.cpu_count(),
        'machine': platform.machine(),
        'seconds': seconds,
        'seeds': SEEDS,
        'workloads': {},
        'per_layer_targets': {
            key: {'moves': moves, 'on': on.split()}
            for key, (moves, on) in PER_LAYER_TARGETS.items()},
    }
    for name in WORKLOADS:
        workload = WORKLOADS[name]()
        results, details = [], []
        for seed in report['seeds']:
            result, detail = run_once(name, seed, seconds, 0)
            print(name, seed, json.dumps(result['metrics']), flush=True)
            results.append(result)
            details.append(detail)
        metrics = {}
        for key, entry in results[0]['metrics'].items():
            metrics[key] = {'unit': entry['unit'], **spread(
                [r['metrics'][key]['value'] for r in results])}
        # The same figures in measured seconds, not gated.
        metrics['work_per_s'] = {'unit': '1/s', 'gated': False, **spread(
            [d['summary']['work_per_s'] for d in details])}
        for cls in ('small', 'large'):
            metrics['%s_ref_s' % cls]['samples'] = [
                d['summary'][cls]['samples'] for d in details]
            for key in ('mean', 'p50', 'tail'):
                metrics['%s_%s_s' % (cls, key)] = {
                    'unit': 's', 'gated': False, **spread(
                        [d['summary'][cls][key] for d in details])}
            metrics['%s_tail_s' % cls]['tail_percentile'] = [
                d['summary'][cls]['tail_percentile'] for d in details]
        named = {key: {'unit': unit, **spread(
                     [d['named'][key][0] for d in details])}
                 for key, (_, unit) in details[0]['named'].items()}
        traced, traced_detail = run_once(name, SEEDS[0], seconds, 1)
        report['workloads'][name] = {
            'gated': name in whys,
            'why': whys.get(name),
            'mix': ' '.join(workload.__doc__.split()),
            'sizes': {'small': workload.small, 'large': workload.large},
            'loop': workload.loop,
            'attempted': [r['attempted'] for r in results],
            'failed': [r['failed'] for r in results],
            'correct': all(r['correct'] for r in results),
            'end_to_end': metrics,
            'named': named,
            'per_layer': {key: entry['value'] for key, entry
                          in traced['metrics'].items()},
            'traced': {'attempted': traced['attempted'],
                       'failed': traced['failed'],
                       'correct': traced['correct'],
                       'untraced_s': traced_detail['untraced_s'],
                       'traced_s': traced_detail['traced_s']},
        }
    with open(args.out, 'w') as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write('\n')
    for name, entry in report['workloads'].items():
        for key, stats in entry['end_to_end'].items():
            print('%-7s %-12s median %-12.6g spread %.4f'
                  % (name, key, stats['median'], stats['spread']))
        for key, stats in entry['named'].items():
            print('%-7s %-26s median %-12.6g spread %s'
                  % (name, key, stats['median'], stats['spread']))
    return 0


if __name__ == '__main__':
    sys.exit(main())
