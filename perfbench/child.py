'''Work that has to start from a fresh interpreter.

    python3 perfbench/child.py setup WORKLOAD SIZE...
    python3 perfbench/child.py measure WORKLOAD SEED SECONDS SIZE...
    python3 perfbench/child.py cold SEED

`setup` does what a user pays before the first answer of a workload,
importing only the modules that workload uses, prints `ready` and
exits; the parent times start to ready as one setup_s sample.
`measure` sets up the same way and prints `ready`. Then it draws the
workload's inputs from SEED, goes through them for SECONDS and prints
each input's fastest time and outcome as JSON. The traced run in the
parent process uses the same set-up as its warm-up. `cold` runs
layers.cold_probe and prints its spans as JSON. The parent puts the
checkout's src/ on PYTHONPATH.
'''

import json
import sys


def setup_solve(sizes):
    from cubology.cube_model import CubeSpec
    from cubology.cubology_law import random_valid_configuration
    from cubology.decomposition import build_atlas
    from cubology.solver import solve, stage_plan
    for n in sizes:
        spec = CubeSpec(n)
        build_atlas(spec)
        stage_plan(spec)
        solve(random_valid_configuration(spec, seed=n))


def setup_law(sizes):
    from cubology.cube_model import CubeSpec
    from cubology.cubology_law import check_validity, random_configuration
    from cubology.decomposition import build_atlas, compose, decompose
    for n in sizes:
        spec = CubeSpec(n)
        build_atlas(spec)
        config = decompose(random_configuration(spec, seed=n))
        check_validity(config)
        compose(config)


def setup_oracle(sizes):
    from cubology.cube_model import CubeSpec
    from cubology.group_oracle import bfs_states, generators
    from cubology.group_oracle import schreier_sims_order
    for n in sizes:
        schreier_sims_order(generators(CubeSpec(n)))
    bfs_states(CubeSpec(2), 1)


def setup_cli(sizes):
    import cubology.cli  # noqa: F401


SETUP = {'solve': setup_solve, 'law': setup_law, 'oracle': setup_oracle,
         'cli': setup_cli}


def main(argv):
    if argv[0] == 'setup':
        SETUP[argv[1]]([int(n) for n in argv[2:]])
        print('ready', flush=True)
        return 0
    if argv[0] == 'measure':
        name, seed, seconds = argv[1:4]
        SETUP[name]([int(n) for n in argv[4:]])
        print('ready', flush=True)
        import random
        import run
        import workloads
        workload = workloads.WORKLOADS[name]()
        inputs = workload.inputs(random.Random(int(seed)))
        best = run.measure(workload, inputs, float(seconds))
        print(json.dumps({'best': best.to_dict(),
                          'peak_rss_mb': run.peak_rss_mb(workload)}))
        return 0
    if argv[0] == 'cold':
        import layers
        from spans import Tracer
        tracer = Tracer()
        ok = layers.cold_probe(tracer, int(argv[1]))
        print(json.dumps({'spans': tracer.spans,
                          'counts': dict(tracer.counts), 'ok': ok}))
        return 0
    raise SystemExit('unknown mode %r' % argv[0])


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
