'''The four workloads: what each feeds the program, how one operation
runs untraced and traced, and how its output is checked.

Each workload draws, from the seed, one fixed list of inputs of a fixed
composition (inputs()); a run goes through that list again and again,
with one client, the next operation starting when the previous one has
finished, and keeps each input's fastest time. Operations fall in a
small and a large class (two cube sizes, or a command against a pipe),
and the end-to-end metrics are reported per class; see README.md for
how they map onto the named metrics of each workload.

run() times exactly the public call a user makes and returns an
Outcome; replay() makes the same operation through the layer calls of
layers.py under one root span, so that the root spans and run()'s
timings cover the same work, and returns (seconds, failed, wrong).
Output checks run outside both timings.
'''

import statistics
import time
import traceback
from dataclasses import dataclass, field

import child
import layers
from cubology.counting import gods_number_lower_bound, group_order
from cubology.cube_model import (
    CubeSpec,
    Move,
    apply_move,
    apply_sequence,
    solved_state,
)
from cubology.cubology_law import (
    check_validity,
    random_configuration,
    random_valid_configuration,
)
from cubology.decomposition import compose, decompose
from cubology.solver import solve


@dataclass
class Outcome:
    '''One operation: its timed seconds, class, whether it failed
    (raised, exited non-zero or gave a wrong answer), whether it gave a
    wrong answer, units of work for throughput, and numeric extras.'''

    seconds: float
    cls: str
    failed: bool = False
    wrong: bool = False
    work: int = 1
    error: str = None
    extra: dict = field(default_factory=dict)


def _crash(start, cls):
    return Outcome(time.perf_counter() - start, cls, failed=True,
                   error=traceback.format_exc())


class Workload:
    '''Shared parts: the two sizes, set-up as warm-up, the class of an
    operation by its size.'''

    peak_rss = 'self'
    loop = 'closed loop, 1 client, in process, fixed inputs repeated'

    def __init__(self, small, large):
        self.small, self.large = small, large
        self.setup_sizes = (small, large)

    def warm_up(self):
        child.SETUP[self.name](self.setup_sizes)

    def _cls(self, op):
        return 'small' if op['n'] == self.small else 'large'


class Solve(Workload):
    '''solve() at a small and a large size: per size, random valid
    states (`randoms` of each size), the solved state and the state one
    quarter turn of the U face away from it, in seeded order, the small
    size's spread evenly between the large size's.'''

    name = 'solve'

    def __init__(self, small=4, large=9, randoms=(8, 2)):
        super().__init__(small, large)
        self.randoms = dict(zip((small, large), randoms))

    def _states(self, rng, n):
        spec = CubeSpec(n)
        states = [('random', random_valid_configuration(
            spec, seed=rng.randrange(2 ** 63)))
            for _ in range(self.randoms[n])]
        states.append(('solved', solved_state(spec)))
        states.append(('one_move', apply_move(solved_state(spec),
                                              Move('U', 1, 1))))
        rng.shuffle(states)
        return [(n, kind, state) for kind, state in states]

    def inputs(self, rng):
        large = self._states(rng, self.large)
        small = self._states(rng, self.small)
        order = []
        for k, entry in enumerate(large):
            order.append(entry)
            order += small[k * len(small) // len(large):
                           (k + 1) * len(small) // len(large)]
        return [{'id': 'solve-%d' % k, 'n': n, 'kind': kind, 'state': state}
                for k, (n, kind, state) in enumerate(order)]

    def run(self, op):
        state = op['state']
        start = time.perf_counter()
        try:
            trace = solve(state)
        except Exception:
            return _crash(start, self._cls(op))
        seconds = time.perf_counter() - start
        wrong = apply_sequence(state, trace.total) != solved_state(state.spec)
        return Outcome(seconds, self._cls(op), failed=wrong, wrong=wrong,
                       extra={'moves': len(trace.total)})

    def replay(self, op, tracer):
        state = op['state']
        with tracer.span('bench.input', op['id'], kind='solve',
                         n=op['n']) as root:
            moves = layers.solve_by_stages(tracer, state, op['id'])
            root['moves'] = len(moves)
        wrong = not layers.verify_solution(tracer, state, moves, op['id'])
        return root['end'] - root['start'], wrong, wrong

    def named_metrics(self, summary, best):
        out = {}
        for cls, n in (('small', self.small), ('large', self.large)):
            out['solve_n%d_s.p50' % n] = (summary[cls]['p50'], 's')
            out['solve_n%d_s.tail' % n] = (summary[cls]['tail'], 's')
            ceiling = gods_number_lower_bound(n).ceiling
            out['solve_n%d.moves_per_bound' % n] = (statistics.median(
                best.extras('moves', cls)) / ceiling, 'ratio')
        return out


class Law(Workload):
    '''`pairs` random_configuration reassemblies at a small and at a
    large size, alternating; each goes through decompose, check_validity
    and compose.'''

    name = 'law'

    def __init__(self, small=3, large=7, pairs=1000):
        super().__init__(small, large)
        self.pairs = pairs

    def inputs(self, rng):
        return [{'id': 'law-%d' % k, 'n': n,
                 'state': random_configuration(
                     CubeSpec(n), seed=rng.randrange(2 ** 63))}
                for k, n in enumerate((self.small, self.large) * self.pairs)]

    def run(self, op):
        state = op['state']
        start = time.perf_counter()
        try:
            config = decompose(state)
            report = check_validity(config)
            back = compose(config)
        except Exception:
            return _crash(start, self._cls(op))
        seconds = time.perf_counter() - start
        wrong = back != state
        return Outcome(seconds, self._cls(op), failed=wrong, wrong=wrong,
                       extra={'valid': float(report.valid)})

    def replay(self, op, tracer):
        with tracer.span('bench.input', op['id'], kind='law',
                         n=op['n']) as root:
            same = layers.law_round_trip(tracer, op['state'], op['id'])
        return root['end'] - root['start'], not same, not same

    def named_metrics(self, summary, best):
        valid = [v for cls in ('small', 'large')
                 for v in best.extras('valid', cls)]
        return {'law.states_per_s': (summary['work_per_s'], '1/s'),
                'law.valid_frac': (statistics.fmean(valid), 'ratio')}


class Oracle(Workload):
    '''Schreier-Sims orders at a small and a large size and the
    breadth-first ball at n=2: four small orders, one ball and one
    large order, in seeded order.'''

    name = 'oracle'

    def __init__(self, small=3, large=4, depth=layers.BFS_DEPTH):
        super().__init__(small, large)
        self.depth = depth
        # Imported here, not at the top: see layers.traced_order.
        from cubology import group_oracle
        self.oracle = group_oracle

    def inputs(self, rng):
        cycle = [('order', self.small)] * 4 + [
            ('bfs', 2), ('order', self.large)]
        rng.shuffle(cycle)
        return [{'id': 'oracle-%d' % k, 'kind': kind, 'n': n}
                for k, (kind, n) in enumerate(cycle)]

    def _cls(self, op):
        return 'bfs' if op['kind'] == 'bfs' else super()._cls(op)

    def run(self, op):
        start = time.perf_counter()
        try:
            if op['kind'] == 'bfs':
                ball = self.oracle.bfs_states(CubeSpec(2), self.depth)
            else:
                order = self.oracle.schreier_sims_order(
                    self.oracle.generators(CubeSpec(op['n'])))
        except Exception:
            return _crash(start, self._cls(op))
        seconds = time.perf_counter() - start
        if op['kind'] == 'bfs':
            wrong = not layers.bfs_ok(ball)
            work = ball.cumulative[-1]
        else:
            wrong = order != group_order(op['n'])
            work = 0
        return Outcome(seconds, self._cls(op), failed=wrong, wrong=wrong,
                       work=work)

    def replay(self, op, tracer):
        with tracer.span('bench.input', op['id'], kind=op['kind'],
                         n=op['n']) as root:
            if op['kind'] == 'bfs':
                ball = layers.traced_bfs(tracer, op['id'], self.depth)
            else:
                bsgs = layers.traced_order(tracer, op['n'], op['id'])
        if op['kind'] == 'bfs':
            wrong = not layers.bfs_ok(ball)
        else:
            wrong = bsgs.order != group_order(op['n'])
        return root['end'] - root['start'], wrong, wrong

    def named_metrics(self, summary, best):
        return {'oracle.order_n%d_s' % self.large:
                (summary['large']['p50'], 's'),
                'oracle.bfs_states_per_s': (summary['work_per_s'], '1/s')}


class Cli(Workload):
    '''python -m cubology.cli processes: four README pipes scramble |
    solve, one of which, in seeded place, pipes an already-solved
    document, alternating with a single validate, count and order
    process.'''

    name = 'cli'
    peak_rss = 'children'
    loop = ('closed loop, 1 client, subprocesses (2 per pipe), fixed '
            'inputs repeated')

    pipes = 4

    def __init__(self, small=3, large=4):
        # small: the order command's size; large: every other process.
        super().__init__(small, large)
        self.setup_sizes = ()

    def inputs(self, rng):
        pipes = ['pipe'] * (self.pipes - 1) + ['solved_pipe']
        rng.shuffle(pipes)
        kinds = [pipes[0]]
        for command, pipe in zip(('validate', 'count', 'order'), pipes[1:]):
            kinds += [command, pipe]
        ops = []
        for k, kind in enumerate(kinds):
            op = layers.cli_op(kind, rng.randrange(10 ** 9), self.small,
                               self.large)
            op['id'] = 'cli-%d' % k
            ops.append(op)
        return ops

    def run(self, op):
        start = time.perf_counter()
        failed, wrong, error = layers.run_cli_op(None, op, op['id'])
        return Outcome(time.perf_counter() - start,
                       'large' if 'scramble' in op else 'small',
                       failed=failed, wrong=wrong, error=error)

    def replay(self, op, tracer):
        with tracer.span('bench.input', op['id'], kind=op['kind']) as root:
            failed, wrong, _error = layers.run_cli_op(tracer, op, op['id'])
        return root['end'] - root['start'], failed, wrong

    def named_metrics(self, summary, best):
        return {'cli.pipe_s.p50': (summary['large']['p50'], 's'),
                'cli.pipe_s.tail': (summary['large']['tail'], 's'),
                'cli.command_s.p50': (summary['small']['p50'], 's')}


WORKLOADS = {w.name: w for w in (Solve, Law, Oracle, Cli)}
