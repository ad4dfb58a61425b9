#!/usr/bin/env python3
'''Cubology benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is solve, law, oracle or cli (see workloads.py and README.md), or
all, which runs the four one after another in fresh processes and
prints every named metric of each. Run it from the root of a checkout:
it imports cubology from the checkout's src/ and nothing else.

The workload's inputs are one fixed list drawn from N. --trace 0 times
the set-up of three fresh processes, the middle one of which goes
through the list again and again for S seconds, and reports the
end-to-end metrics from each input's fastest time, at the reference
speed of REF_SPEED below; an input counts as attempted once, and as
failed if any of its runs failed. --trace 1 goes through the
list untraced for S/2 seconds, then runs each input once more and
replays it layer by layer under spans, adds the layer sweep of
layers.py, and reports the per-layer metrics; the spans of the replay
and of the sweep are written to .perfbench/. The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
The exit code is 0 whenever the run completed, whatever it measured.
'''

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, 'src')
OUT = os.path.join(ROOT, '.perfbench')
# An untraced run starts this many fresh processes one after another
# and times each one's start-up as a setup_s sample; the middle one
# then runs the loop, the others exit when they are ready.
SETUPS = 3
NAMES = ('solve', 'law', 'oracle', 'cli')
# The host's speed drifts by a quarter and more over minutes (README.md,
# Noise). So after each operation, from an input's second run on, the
# loop runs reference() for about as long as the input's fastest run
# before took, but for at most REF_ITERATIONS, and an
# input's fastest time is also given at the reference speed REF_SPEED:
# its seconds times the fastest speed reference() reached next to it,
# over REF_SPEED, in iterations per second.
REF_SPEED = 100000.0
REF_ITERATIONS = 5000
_REF_PERM = tuple((7 * i + 3) % 486 for i in range(486))


def reference(iterations):
    '''Fixed pure-Python work that shares no code with the program: per
    iteration one permutation of a 486-tuple and one dict store.'''
    state = tuple(range(486))
    seen = {}
    for k in range(iterations):
        state = tuple([state[p] for p in _REF_PERM])
        seen[state[k % 486]] = k
    return len(seen)


class Best:
    """Per input of a run's fixed list: its class, units of work and
    numeric extras, the fastest time of its successful runs, how often
    it ran, whether any run of it failed or gave a wrong answer, the
    iterations of reference() run after it and their fastest speed."""

    def __init__(self, size):
        self.cls = [None] * size
        self.work = [0] * size
        self.extra = [{} for _ in range(size)]
        self.seconds = [math.inf] * size
        self.runs = [0] * size
        self.failed = [False] * size
        self.wrong = [False] * size
        self.ref_iterations = [0] * size
        self.ref_speed = [0.0] * size
        self.errors = Counter()

    def add(self, index, outcome):
        self.cls[index] = outcome.cls
        self.runs[index] += 1
        self.wrong[index] |= outcome.wrong
        if outcome.error:
            self.errors[outcome.error] += 1
        if outcome.failed:
            self.failed[index] = True
            return
        self.seconds[index] = min(self.seconds[index], outcome.seconds)
        self.work[index] = outcome.work
        self.extra[index] = outcome.extra

    def add_reference(self, index, seconds):
        self.ref_speed[index] = max(self.ref_speed[index],
                                    self.ref_iterations[index] / seconds)

    KEYS = ('cls', 'work', 'extra', 'seconds', 'runs', 'failed', 'wrong',
            'ref_iterations', 'ref_speed', 'errors')

    def to_dict(self):
        return {key: getattr(self, key) for key in self.KEYS}

    @classmethod
    def from_dict(cls, data):
        best = cls(len(data['cls']))
        for key in cls.KEYS:
            setattr(best, key, data[key])
        best.errors = Counter(data['errors'])
        return best

    def ok(self):
        """Indices of the inputs none of whose runs failed."""
        return [i for i, failed in enumerate(self.failed) if not failed]

    def at_ref(self, i):
        return self.seconds[i] * self.ref_speed[i] / REF_SPEED

    def samples(self, cls, at_ref=False):
        return [self.at_ref(i) if at_ref else self.seconds[i]
                for i in self.ok() if self.cls[i] == cls]

    def extras(self, key, cls):
        return [self.extra[i][key] for i in self.ok()
                if self.cls[i] == cls and key in self.extra[i]]


def _percentiles(samples):
    '''Mean, median and tail of a class, with the sample count. The
    tail is the highest percentile with at least ten samples beyond it,
    capped at the 99th so that a class of a thousand inputs does not
    report its few slowest; with ten samples or fewer the maximum stands
    in.'''
    ordered = sorted(samples)
    count = len(ordered)
    if not count:
        raise RuntimeError('no operation of a class succeeded')
    index = (min(count - 11, math.ceil(0.99 * count) - 1) if count > 10
             else count - 1)
    return {'mean': statistics.fmean(ordered),
            'p50': statistics.median(ordered), 'tail': ordered[index],
            'tail_percentile': 100.0 * (index + 1) / count,
            'samples': count}


def summarize(best):
    summary = {cls: _percentiles(best.samples(cls))
               for cls in ('small', 'large')}
    busy = [i for i in best.ok() if best.work[i]]
    work = sum(best.work[i] for i in busy)
    summary['work_per_s'] = work / sum(best.seconds[i] for i in busy)
    summary['at_ref'] = {
        cls: statistics.fmean(best.samples(cls, at_ref=True))
        for cls in ('small', 'large')}
    summary['at_ref']['work_per_s'] = work / sum(
        best.at_ref(i) for i in busy)
    summary['runs'] = sum(best.runs)
    return summary


def measure(workload, inputs, seconds):
    """The closed loop: passes over the inputs, back to back, until the
    time is up, but at least two whole passes. From the second pass on,
    each operation is followed by as many iterations of reference() as
    REF_SPEED runs in the time of the input's fastest run in the passes
    before, at most REF_ITERATIONS; the first pass, with cold caches,
    sets no length."""
    best = Best(len(inputs))
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        for index, op in enumerate(inputs):
            if passes > 1 and time.perf_counter() >= deadline:
                return best
            fastest = best.seconds[index]
            best.add(index, workload.run(op))
            if not passes or fastest == math.inf:
                continue
            if not best.ref_iterations[index]:
                best.ref_iterations[index] = min(REF_ITERATIONS, max(
                    1, round(fastest * REF_SPEED)))
            start = time.perf_counter()
            reference(best.ref_iterations[index])
            best.add_reference(index, time.perf_counter() - start)
        passes += 1


def start_process(workload, seed=None, seconds=None):
    """One fresh process that sets up and says so, then, given seconds,
    runs the loop; (its seconds from start to ready, and its record and
    peak RSS or None)."""
    from layers import child_env
    argv = [sys.executable, os.path.join(HERE, 'child.py')]
    if seconds is None:
        argv += ['setup', workload.name]
    else:
        argv += ['measure', workload.name, str(seed), str(seconds)]
    argv += [str(n) for n in workload.setup_sizes]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                          env=child_env(), cwd=ROOT) as process:
        try:
            ready = process.stdout.readline()
            setup = time.perf_counter() - start
            # The loop goes through its inputs at least twice, however
            # long that takes, and can overrun by one operation (an n=4
            # order takes about 2 s).
            rest, _ = process.communicate(timeout=(seconds or 0) + 170)
        except BaseException:
            process.kill()
            raise
    if process.returncode or ready != 'ready\n':
        raise RuntimeError('a %s process of %s exited %d'
                           % (argv[2], workload.name, process.returncode))
    return setup, json.loads(rest.splitlines()[-1]) if rest else None


def peak_rss_mb(workload):
    who = (resource.RUSAGE_CHILDREN if workload.peak_rss == 'children'
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def report_errors(best):
    for error, count in best.errors.items():
        print('%d operation(s) failed with: %s' % (count, error.strip()),
              file=sys.stderr)


def untraced_run(workload, args):
    setups = []
    for index in range(SETUPS):
        if index == SETUPS // 2:
            setup, data = start_process(workload, args.seed, args.seconds)
        else:
            setup, _ = start_process(workload)
        setups.append(setup)
    best = Best.from_dict(data['best'])
    peak = data['peak_rss_mb']
    summary = summarize(best)
    at_ref = summary['at_ref']
    metrics = {
        'setup_s': (statistics.median(setups), 's'),
        'peak_rss_mb': (peak, 'MB'),
        'small_ref_s': (at_ref['small'], 's'),
        'large_ref_s': (at_ref['large'], 's'),
        'work_per_ref_s': (at_ref['work_per_s'], '1/s'),
    }
    attempted, failed = len(best.cls), sum(best.failed)
    named = workload.named_metrics(summary, best)
    for key in ('setup_s', 'peak_rss_mb'):
        named['%s.%s' % (workload.name, key)] = metrics[key]
    named['%s.fail_frac' % workload.name] = (failed / attempted, 'ratio')
    detail = {'summary': summary, 'setup_samples': setups,
              'named': named, 'runs': best.runs,
              'fastest_s': [s if s < math.inf else None
                            for s in best.seconds]}
    report_errors(best)
    return metrics, attempted, failed, not any(best.wrong), detail


def traced_run(workload, args):
    """Warm passes untraced for half the time, then one pass in which
    each input runs untraced and is at once replayed under spans."""
    import layers
    from spans import Tracer
    inputs = workload.inputs(random.Random(args.seed))
    workload.warm_up()
    measure(workload, inputs, args.seconds / 2)
    replay = Tracer()
    traced = untraced = 0.0
    failed = wrong = 0
    for op in inputs:
        outcome = workload.run(op)
        try:
            seconds, op_failed, op_wrong = workload.replay(op, replay)
        except Exception:
            print('replay failed: %s' % traceback.format_exc(),
                  file=sys.stderr)
            failed += 1
            continue
        untraced += outcome.seconds
        traced += seconds
        failed += op_failed or outcome.failed
        wrong += op_wrong or outcome.wrong
    # The sweep draws from a generator of its own, so that its inputs
    # are the same on every workload.
    sweep = Tracer()
    sweep_ok = layers.sweep(sweep, random.Random('sweep/%d' % args.seed))
    metrics = layers.layer_metrics(replay, sweep, traced - untraced,
                                   untraced, len(inputs))
    for part, part_tracer in (('replay', replay), ('sweep', sweep)):
        path = os.path.join(OUT, 'spans-%s-seed%d-%s.json'
                            % (workload.name, args.seed, part))
        part_tracer.write(path)
        print('spans: %s' % os.path.relpath(path, ROOT))
    detail = {'untraced_s': untraced, 'traced_s': traced}
    return metrics, len(inputs), failed, sweep_ok and not wrong, detail


def run_all(args):
    '''Each workload in its own process; prints the named metrics.'''
    named = {}
    attempted = failed = 0
    correct = True
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), '--workload',
                name, '--seed', str(args.seed), '--seconds',
                str(args.seconds), '--trace', '0']
        done = subprocess.run(argv, capture_output=True, text=True,
                              cwd=ROOT, timeout=args.seconds + 900)
        sys.stderr.write(done.stderr)
        if done.returncode:
            raise SystemExit('workload %s exited %d' % (name,
                                                        done.returncode))
        result = json.loads(done.stdout.splitlines()[-1])
        attempted += result['attempted']
        failed += result['failed']
        correct &= result['correct']
        with open(_result_path(name, args.seed, 0)) as handle:
            for key, (value, unit) in json.load(handle)['named'].items():
                named[key] = {'value': value, 'unit': unit}
    for key, entry in named.items():
        print('%-28s %14.6g %s' % (key, entry['value'], entry['unit']))
    print(json.dumps({'correct': correct, 'attempted': attempted,
                      'failed': failed, 'metrics': named}))
    return 0


def _result_path(name, seed, trace):
    return os.path.join(OUT, 'result-%s-seed%d-trace%d.json'
                        % (name, seed, trace))


def import_checkout():
    '''Put the checkout's src/ first on the path and refuse any other
    copy of cubology.'''
    if not os.path.isfile(os.path.join(SRC, 'cubology', '__init__.py')):
        raise SystemExit('perfbench: no src/cubology under %s; run it from '
                         'the root of a cubology checkout' % ROOT)
    sys.path.insert(0, SRC)
    import cubology
    if not os.path.abspath(cubology.__file__).startswith(SRC + os.sep):
        raise SystemExit('perfbench: cubology was imported from %s'
                         % cubology.__file__)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[1])
    parser.add_argument('--workload', required=True,
                        choices=NAMES + ('all',))
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error('--seconds must be positive')
    import_checkout()
    if args.workload == 'all':
        if args.trace:
            parser.error('--workload all runs untraced only')
        return run_all(args)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    run = traced_run if args.trace else untraced_run
    metrics, attempted, failed, correct, detail = run(workload, args)
    for key, (value, unit) in sorted(detail.get('named', {}).items()):
        print('%-28s %14.6g %s' % (key, value, unit))
    os.makedirs(OUT, exist_ok=True)
    with open(_result_path(workload.name, args.seed, args.trace),
              'w') as handle:
        json.dump({'workload': workload.name, 'seed': args.seed,
                   'seconds': args.seconds, 'trace': args.trace,
                   'attempted': attempted, 'failed': failed,
                   'correct': correct, 'metrics': metrics, **detail},
                  handle, indent=1)
    print(json.dumps({
        'correct': correct, 'attempted': attempted, 'failed': failed,
        'metrics': {key: {'value': value, 'unit': unit}
                    for key, (value, unit) in metrics.items()}}))
    return 0


if __name__ == '__main__':
    sys.exit(main())
