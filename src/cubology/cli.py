'''Command line front end.

One executable, `cubology`, with a subcommand per operation: scramble,
validate, solve, count, order, bound, verify-moves, render, decompose.
Output is plain text by default and versioned JSON under --json; counts
are serialized as decimal strings because several exceed what common
JSON readers keep exact.

State documents are JSON of the form {"n": N, "stickers": [letters in
face-major order]}. scramble emits exactly that document, so it pipes
into any subcommand that reads --state-file (use - for stdin). Exit
codes: 0 success (and verdicts that hold), 1 domain errors (reported as
"ErrorName: message" on stderr) and failed verdicts, 2 usage errors.
'''

import argparse
import json
import os
import random
import sys

from .counting import count_digits, gods_number_lower_bound, tuned_lower_bound
from .cube_model import (
    CubeSpec,
    apply_sequence,
    format_move_sequence,
    legal_slab_moves,
    parse_move_sequence,
    render_net,
    solved_state,
    state_from_json_dict,
    state_to_json_dict,
)
from .cubology_law import check_validity
from .decomposition import decompose
from .group_oracle import generators, schreier_sims_order
from .move_library import all_named_moves
from .solver import solve


class _UsageError(Exception):
    pass


def _emit(args, n, **fields):
    '''Print the --json document of args.command: its schema and n, then
    fields in order.'''
    print(json.dumps({'schema': 'cubology/%s/v1' % args.command, 'n': n,
                      **fields}, indent=2))


def _require_n(args):
    if args.n is None:
        raise _UsageError('--n is required here')
    return CubeSpec(args.n)


def _scramble_state(spec, seed, length):
    rng = random.Random(seed)
    alphabet = legal_slab_moves(spec, False, (1, 2, 3))
    if length is None:
        length = 30 * spec.n
    moves = [rng.choice(alphabet) for _ in range(length)]
    return apply_sequence(solved_state(spec), moves)


def _input_state(args):
    '''Resolve the state a subcommand works on from --state-file,
    --moves, or --seed, in that order of precedence.'''
    given = [name for name, value in (('--state-file', args.state_file),
                                      ('--moves', args.moves),
                                      ('--seed', args.seed))
             if value is not None]
    if len(given) > 1:
        raise _UsageError('give only one of %s' % ', '.join(given))
    if args.state_file is not None:
        if args.state_file == '-':
            document = json.load(sys.stdin)
        else:
            with open(args.state_file) as handle:
                document = json.load(handle)
        state = state_from_json_dict(document)
        if args.n is not None and args.n != state.n:
            raise _UsageError('--n %d contradicts the state file (n=%d)'
                              % (args.n, state.n))
        return state
    spec = _require_n(args)
    if args.moves is not None:
        sequence = parse_move_sequence(args.moves, spec)
        return apply_sequence(solved_state(spec), sequence)
    if args.seed is not None:
        return _scramble_state(spec, args.seed, None)
    raise _UsageError('give one of --state-file, --moves, --seed')


def _cmd_scramble(args):
    spec = _require_n(args)
    if args.seed is None:
        raise _UsageError('scramble needs --seed for reproducibility')
    state = _scramble_state(spec, args.seed, args.length)
    print(json.dumps(state_to_json_dict(state), indent=2))
    return 0


def _cmd_validate(args):
    state = _input_state(args)
    report = check_validity(decompose(state))
    if args.json:
        _emit(args, state.n, valid=report.valid,
              conditions=[{'condition': c.condition, 'ok': c.ok,
                           'detail': c.detail} for c in report.conditions])
    else:
        for c in report.conditions:
            line = '%-22s %s' % (c.condition, 'pass' if c.ok else 'FAIL')
            if not c.ok and c.detail:
                line += '  (%s)' % c.detail
            print(line)
        print('valid: %s' % ('yes' if report.valid else 'no'))
    return 0 if report.valid else 1


def _cmd_solve(args):
    state = _input_state(args)
    trace = solve(state)
    solved = apply_sequence(state, trace.total) == solved_state(state.spec)
    cumulative = 0
    if args.json:
        stages = []
        for name, sequence, config in trace.stages:
            cumulative += len(sequence)
            stages.append({'stage': name,
                           'moves': format_move_sequence(sequence),
                           'length': len(sequence),
                           'cumulative': cumulative,
                           'tuple_after': config.to_json_dict()})
        _emit(args, trace.n, stages=stages,
              total=format_move_sequence(trace.total),
              total_length=len(trace.total), verified=solved)
    else:
        for name, sequence, _state in trace.steps:
            cumulative += len(sequence)
            print('%-28s %5d %7d' % (name, len(sequence), cumulative))
        print('total %d moves: %s'
              % (len(trace.total), format_move_sequence(trace.total)))
        print('verified: %s' % ('solved' if solved else 'NOT SOLVED'))
    return 0 if solved else 1


def _lower_bound(spec, args, tuned):
    '''The tuned or plain lower bound at the requested precision.'''
    bound = tuned_lower_bound if tuned else gods_number_lower_bound
    return bound(spec.n, args.precision)


def _bound_fields(spec, result):
    '''The fields every --json document of a lower bound ends with.'''
    return {'bound': str(result.bound), 'precision': result.precision,
            's_phys': count_digits('s_phys', spec.n),
            'basic_move_count': result.basic_move_count}


def _cmd_count(args):
    spec = _require_n(args)
    if args.what not in ('bound', 'tuned-bound'):
        value = count_digits(args.what, spec.n)
        if args.json:
            _emit(args, spec.n, what=args.what, value=value)
        else:
            print(value)
        return 0
    result = _lower_bound(spec, args, args.what == 'tuned-bound')
    if args.json:
        _emit(args, spec.n, what=args.what, value=str(result.ceiling),
              **_bound_fields(spec, result))
    else:
        print('%d (bound %s at %d digits)'
              % (result.ceiling, _format_bound(result.bound),
                 result.precision))
    return 0


def _format_bound(value):
    text = str(value)
    return text[:24] + '...' if len(text) > 27 else text


def _cmd_order(args):
    spec = _require_n(args)
    formula = oracle = None
    if args.method in ('formula', 'both'):
        formula = count_digits('group', spec.n)
    if args.method in ('oracle', 'both'):
        oracle = str(schreier_sims_order(generators(spec)))
    match = formula == oracle if args.method == 'both' else None
    if args.json:
        _emit(args, spec.n, method=args.method, formula=formula,
              oracle=oracle, match=match)
    else:
        if formula is not None:
            print('formula: %s' % formula)
        if oracle is not None:
            print('oracle:  %s' % oracle)
        if match is not None:
            print('MATCH' if match else 'MISMATCH')
    return 0 if match in (True, None) else 1


def _cmd_bound(args):
    spec = _require_n(args)
    result = _lower_bound(spec, args, args.tuned)
    kind = 'tuned' if args.tuned else 'plain'
    if args.json:
        _emit(args, spec.n, kind=kind, ceiling=result.ceiling,
              **_bound_fields(spec, result))
    else:
        print('n=%d: no solver beats %d moves in the worst case'
              % (spec.n, result.ceiling))
        print('%s bound %s with %d basic moves, %d digits'
              % (kind, _format_bound(result.bound),
                 result.basic_move_count, result.precision))
    return 0


def _cmd_verify_moves(args):
    # Every word is verified as it is built, and one that fails raises
    # BrokenWord, so each word listed here has passed.
    spec = _require_n(args)
    moves = all_named_moves(spec)
    if args.json:
        _emit(args, spec.n,
              moves=[{'name': named.name,
                      'descriptor': named.expected_effect.describe(),
                      'ok': named.report.ok} for named in moves],
              all_ok=True)
    else:
        for named in moves:
            print('%-26s n=%d  %-40s pass'
                  % (named.name, spec.n, named.expected_effect.describe()))
    return 0


def _cmd_render(args):
    state = _input_state(args)
    if args.json:
        _emit(args, state.n, lines=render_net(state).splitlines())
    else:
        print(render_net(state, ansi=args.ansi))
    return 0


def _cmd_decompose(args):
    state = _input_state(args)
    document = decompose(state).to_json_dict()
    if args.json:
        _emit(args, **document)
    else:
        for key, value in document.items():
            print('%s: %s' % (key, json.dumps(value)))
    return 0


def _add_state_arguments(parser):
    parser.add_argument('--moves', metavar='SEQ',
                        help='apply this sequence to the solved cube')
    parser.add_argument('--state-file', metavar='PATH',
                        help='read a state document (- for stdin)')
    parser.add_argument('--seed', type=int, metavar='S',
                        help='scramble the solved cube with this seed')


def _int_at_least(low):
    '''argparse type: an integer no smaller than low.'''
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                'must be at least %d, got %d' % (low, value))
        return value
    return integer


def _build_parser():
    parser = argparse.ArgumentParser(
        prog='cubology',
        description='Exact cube group toolkit: simulate, validate, '
                    'solve, count.')
    commands = parser.add_subparsers(dest='command', required=True)

    def subcommand(name, handler, helptext):
        sub = commands.add_parser(name, help=helptext)
        sub.set_defaults(handler=handler)
        sub.add_argument('--n', type=int, help='cube size')
        sub.add_argument('--json', action='store_true',
                         help='versioned JSON output')
        return sub

    sub = subcommand('scramble', _cmd_scramble,
                     'emit a seeded random state document')
    sub.add_argument('--seed', type=int, metavar='S')
    sub.add_argument('--length', type=_int_at_least(0), metavar='K',
                     help='scramble length (default 30n)')

    _add_state_arguments(subcommand('validate', _cmd_validate,
                                    'check the solvability law'))
    _add_state_arguments(subcommand('solve', _cmd_solve,
                                    'solve a state and print the trace'))

    sub = subcommand('count', _cmd_count, 'exact counts and bounds')
    sub.add_argument('--what', required=True,
                     choices=['s_conf', 'orbits', 'group', 's_phys',
                              'bound', 'tuned-bound'])
    sub.add_argument('--precision', type=_int_at_least(1), default=50,
                     metavar='D')

    sub = subcommand('order', _cmd_order,
                     'group order by formula, oracle, or both')
    sub.add_argument('--method', choices=['formula', 'oracle', 'both'],
                     default='both')

    sub = subcommand('bound', _cmd_bound,
                     'certified lower bound on worst-case solve length')
    sub.add_argument('--precision', type=_int_at_least(1), default=50,
                     metavar='D')
    sub.add_argument('--tuned', action='store_true',
                     help='use the reduced word count')

    subcommand('verify-moves', _cmd_verify_moves,
               'verify every named move against its contract')

    sub = subcommand('render', _cmd_render, 'print the sticker net')
    _add_state_arguments(sub)
    sub.add_argument('--ansi', action='store_true',
                     help='color the letters')

    _add_state_arguments(subcommand('decompose', _cmd_decompose,
                                    'print the configuration tuple'))
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early (`| head`). Point stdout at
        # devnull so the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as error:
        print('usage error: %s' % error, file=sys.stderr)
        return 2
    except (ValueError, OSError) as error:
        print('%s: %s' % (type(error).__name__, error), file=sys.stderr)
        return 1


if __name__ == '__main__':
    sys.exit(main())
