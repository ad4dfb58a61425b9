'''Quick self-check of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_selfcheck.py

It runs each workload's inputs once at small cube sizes, checks
that the output checks and the span bookkeeping hold, and runs
run.py once per trace mode to hold its output to BENCHMARK.json.
'''

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_checkout()

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = {
    'solve': workloads.Solve(small=2, large=3, randoms=(3, 2)),
    'law': workloads.Law(small=2, large=3, pairs=10),
    'oracle': workloads.Oracle(small=2, large=3, depth=3),
    'cli': workloads.Cli(small=2, large=2),
}


def _inputs(name, seed=1):
    workload = TINY[name]
    return workload, workload.inputs(random.Random(seed))


@pytest.mark.parametrize('name', sorted(TINY))
def test_run_and_replay_agree_and_check_outputs(name):
    workload, ops = _inputs(name)
    workload.warm_up()
    outcomes = [workload.run(op) for op in ops]
    failing = [op['kind'] for op, o in zip(ops, outcomes) if o.failed]
    # The already-solved pipe crashes (see README.md); nothing else may.
    assert failing in ([], ['solved_pipe'])
    assert not any(o.wrong for o in outcomes)
    assert {o.cls for o in outcomes} >= {'small', 'large'}
    tracer = Tracer()
    for op in ops:
        seconds, failed, wrong = workload.replay(op, tracer)
        assert seconds > 0 and not wrong
        assert not failed or op['kind'] == 'solved_pipe'
    roots = [s for s in tracer.spans if s['name'] == 'bench.input']
    assert len(roots) == len(ops)
    # Every call under a root span serves that root's input.
    by_id = {s['id']: s for s in tracer.spans}
    for s in tracer.spans:
        if s['parent'] is not None:
            assert s['input'] == by_id[s['parent']]['input']


@pytest.mark.parametrize('name', sorted(TINY))
def test_same_seed_same_inputs(name):
    _, first = _inputs(name, seed=5)
    _, again = _inputs(name, seed=5)
    assert first == again


def test_every_seed_gives_the_same_mix():
    def mix(name, seed):
        return sorted((op.get('kind'), op.get('n'))
                      for op in _inputs(name, seed)[1])
    for name in TINY:
        assert mix(name, 1) == mix(name, 2)
    kinds = [k for k, _ in mix('solve', 1)]
    assert kinds.count('solved') == kinds.count('one_move') == 2
    assert [k for k, _ in mix('cli', 1)].count('solved_pipe') == 1


def test_fastest_run_is_kept_and_any_failure_sticks():
    best = run.Best(2)
    best.add(0, workloads.Outcome(2.0, 'small'))
    best.add(0, workloads.Outcome(1.0, 'small'))
    best.add(1, workloads.Outcome(3.0, 'large', failed=True))
    best.add(1, workloads.Outcome(0.5, 'large'))
    best.ref_iterations[0] = 1000
    best.add_reference(0, 0.02)
    best.add_reference(0, 0.04)
    best = run.Best.from_dict(json.loads(json.dumps(best.to_dict())))
    assert best.seconds[0] == 1.0 and best.runs == [2, 2]
    assert best.failed == [False, True]
    assert best.samples('small') == [1.0] and best.samples('large') == []
    # Fastest reference speed, 50,000 iterations a second, is half of
    # REF_SPEED, so the host ran at half speed and the second counts half.
    assert best.samples('small', at_ref=True) == [
        pytest.approx(50000.0 / run.REF_SPEED)]


def test_already_solved_pipe_is_never_a_wrong_answer():
    op = layers.cli_op('solved_pipe', 1, 2, 2)
    failed, wrong, error = layers.run_cli_op(None, op, 'solved')
    assert not wrong
    assert not failed or error


def test_bfs_check_rejects_a_wrong_sphere():
    from cubology.group_oracle import bfs_states
    from cubology.cube_model import CubeSpec
    ball = bfs_states(CubeSpec(2), 3)
    assert layers.bfs_ok(ball)
    assert not layers.bfs_ok(ball.__class__(
        depth=3, counts=(1, 12, 114, 925), cumulative=ball.cumulative,
        states=()))


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    tracer.record('bench.input', 0.0, 10.0)
    tracer.record('cli.process', 1.0, 5.0)
    tracer.record('cli.process', 3.0, 7.0)
    for child in tracer.spans[1:]:
        child['parent'] = 0
    selfs = tracer.self_times()
    assert selfs['bench'] == pytest.approx(4.0)
    assert selfs['cli'] == pytest.approx(8.0)


def test_tail_is_the_sample_with_ten_beyond_it():
    summary = run._percentiles([float(k) for k in range(1, 41)])
    assert summary['tail'] == 30.0
    assert summary['tail_percentile'] == 75.0
    assert summary['p50'] == 20.5
    capped = run._percentiles([float(k) for k in range(1, 2001)])
    assert capped['tail'] == 1980.0
    assert capped['tail_percentile'] == 99.0


def _contract():
    with open(os.path.join(run.ROOT, 'BENCHMARK.json')) as handle:
        return json.load(handle)


@pytest.mark.parametrize('trace,key', [(0, 'end_to_end'), (1, 'per_layer')])
def test_output_matches_benchmark_json(trace, key):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, 'run.py'), '--workload', 'law',
         '--seed', '1', '--seconds', '1', '--trace', str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {'correct', 'attempted', 'failed', 'metrics'}
    assert result['correct'] and result['attempted'] >= 1
    wanted = {m['name']: m['unit'] for m in _contract()[key]}
    assert {k: v['unit'] for k, v in result['metrics'].items()} == wanted


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, 'BENCHMARK.json'), tmp_path)
    for path in _contract()['paths']:
        shutil.copytree(os.path.join(run.ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns('__pycache__'))
    done = subprocess.run(
        [sys.executable, 'perfbench/run.py', '--workload', 'law', '--seed',
         '1', '--seconds', '1', '--trace', '0'],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
        env={k: v for k, v in os.environ.items() if k != 'PYTHONPATH'})
    assert done.returncode != 0
    assert not done.stdout.strip()
