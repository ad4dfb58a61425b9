"""Command-line tests: exit codes, JSON schemas, piping."""

import decimal
import io
import json
import os
import subprocess
import sys
import time

import pytest

from cubology.cli import main
from cubology.counting import group_order, s_phys_size
from cubology.cube_model import (
    CubeSpec,
    apply_sequence,
    parse_move_sequence,
    render_net,
    solved_state,
)


# Child processes run this checkout's package, installed or not.
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, 'src')),
    os.environ.get('PYTHONPATH')])))


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr('sys.stdin', io.StringIO(stdin_text))
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
    out, err = capsys.readouterr()
    return code, out, err


def test_scramble_emits_a_bare_state_document(capsys):
    code, out, _ = run(capsys, ['scramble', '--n', '3', '--seed', '5'])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {'n', 'stickers'}
    assert doc['n'] == 3
    assert len(doc['stickers']) == 54
    # same seed, same scramble
    _, again, _ = run(capsys, ['scramble', '--n', '3', '--seed', '5'])
    assert again == out


def test_scramble_without_seed_is_a_usage_error(capsys):
    code, _, err = run(capsys, ['scramble', '--n', '3'])
    assert code == 2


def test_validate_accepts_piped_state(capsys, monkeypatch):
    _, doc, _ = run(capsys, ['scramble', '--n', '4', '--seed', '8'])
    code, out, _ = run(capsys, ['validate', '--n', '4', '--state-file', '-'],
                       stdin_text=doc, monkeypatch=monkeypatch)
    assert code == 0
    assert 'valid: yes' in out


def test_validate_flags_unsolvable_states(capsys, monkeypatch):
    _, doc, _ = run(capsys, ['scramble', '--n', '2', '--seed', '1'])
    data = json.loads(doc)
    # rotate the three stickers of one corner in place: a twisted reassembly
    from cubology.cube_model import CubeSpec
    from cubology.decomposition import build_atlas
    a, b, c = build_atlas(CubeSpec(2)).orbit('corner').slots[0].positions
    s = data['stickers']
    s[a], s[b], s[c] = s[c], s[a], s[b]
    code, out, _ = run(capsys, ['validate', '--n', '2', '--state-file', '-'],
                       stdin_text=json.dumps(data), monkeypatch=monkeypatch)
    assert code == 1
    assert 'valid: no' in out
    assert 'corner_twist_sum' in out


def test_validate_json_schema(capsys):
    code, out, _ = run(capsys, ['validate', '--n', '3', '--moves', 'R U',
                                '--json'])
    assert code == 0
    doc = json.loads(out)
    assert doc['schema'] == 'cubology/validate/v1'
    assert doc['valid'] is True
    assert [c['condition'] for c in doc['conditions']] == \
        ['parity_corners_edges', 'corner_twist_sum', 'edge_flip_sum']


def test_solve_from_seed_reports_verification(capsys):
    code, out, _ = run(capsys, ['solve', '--n', '2', '--seed', '9'])
    assert code == 0
    assert 'verified: solved' in out
    assert 'total' in out


def test_solve_json_trace(capsys):
    code, out, _ = run(capsys, ['solve', '--n', '3', '--seed', '2', '--json'])
    assert code == 0
    doc = json.loads(out)
    assert doc['schema'] == 'cubology/solve/v1'
    assert doc['verified'] is True
    names = [s['stage'] for s in doc['stages']]
    assert names[0] == 'sign_alignment'
    assert doc['total_length'] == sum(s['length'] for s in doc['stages'])


def test_solve_rejects_unsolvable_input_with_domain_error(capsys, monkeypatch):
    _, doc, _ = run(capsys, ['scramble', '--n', '2', '--seed', '1'])
    data = json.loads(doc)
    from cubology.cube_model import CubeSpec
    from cubology.decomposition import build_atlas
    a, b, c = build_atlas(CubeSpec(2)).orbit('corner').slots[0].positions
    s = data['stickers']
    s[a], s[b], s[c] = s[c], s[a], s[b]
    code, _, err = run(capsys, ['solve', '--n', '2', '--state-file', '-'],
                       stdin_text=json.dumps(data), monkeypatch=monkeypatch)
    assert code == 1
    assert err.startswith('NotSolvable:')


def test_contradictory_inputs_are_usage_errors(capsys):
    code, _, err = run(capsys, ['validate', '--n', '3', '--moves', 'R',
                                '--seed', '4'])
    assert code == 2


def test_state_file_size_conflict_is_a_usage_error(capsys, monkeypatch):
    _, doc, _ = run(capsys, ['scramble', '--n', '3', '--seed', '5'])
    code, _, err = run(capsys, ['validate', '--n', '4', '--state-file', '-'],
                       stdin_text=doc, monkeypatch=monkeypatch)
    assert code == 2


def test_parse_errors_exit_one_with_the_error_name(capsys):
    code, _, err = run(capsys, ['validate', '--n', '3', '--moves', 'Q'])
    assert code == 1
    assert err.startswith('ParseError:')
    code, _, err = run(capsys, ['render', '--n', '3', '--moves', '5R'])
    assert code == 1
    assert err.startswith('IllegalDepth:')


@pytest.mark.parametrize('moves', ['[R:' * 400 + 'U' + ']' * 400,
                                   '[R,' * 18 + 'U' + ']' * 18, '\u00b2R'])
def test_deep_exploding_or_unicode_move_text_exits_one(capsys, moves):
    code, _, err = run(capsys, ['validate', '--n', '3', '--moves', moves])
    assert code == 1
    assert err.startswith('ParseError:')


def test_overlong_slice_depth_exits_one_with_a_parse_error(capsys):
    moves = '1' * 5000 + 'R'
    code, _, err = run(capsys, ['validate', '--n', '3', '--moves', moves])
    assert code == 1
    assert err == 'ParseError: the depth has too many digits (at position 0)\n'


def test_uncancelled_central_slab_turns_are_domain_errors(capsys):
    for command in ('validate', 'solve', 'decompose'):
        code, _, err = run(capsys, [command, '--n', '3', '--moves', 'M'])
        assert code == 1, command
        assert err.startswith('NotAConfiguration: immobile centre'), command
    code, _, _ = run(capsys, ['validate', '--n', '3', '--moves', '[F,[R:S]]'])
    assert code == 0


def test_count_prints_exact_decimals(capsys):
    code, out, _ = run(capsys, ['count', '--n', '3', '--what', 'group'])
    assert code == 0
    assert out.strip() == '43252003274489856000'
    code, out, _ = run(capsys, ['count', '--n', '4', '--what', 'orbits'])
    assert out.strip() == str(3 * 2 ** 25)


def test_counts_beyond_the_int_digit_limit_print_exactly(capsys):
    def printed(argv, field=None):
        code, out, _ = run(capsys, argv)
        assert code == 0
        text = json.loads(out)[field] if field else out.strip()
        assert text.isdigit() and len(text) > 4300
        # int() refuses a string this long; Decimal reads it exactly.
        return decimal.Decimal(text)

    group = group_order(30)
    assert printed(['count', '--n', '30', '--what', 'group']) == group
    assert printed(['count', '--n', '30', '--what', 'group', '--json'],
                   'value') == group
    assert printed(['bound', '--n', '34', '--json'],
                   's_phys') == s_phys_size(34)


def test_large_counts_and_bounds_stay_fast(capsys):
    # The digits are formed without converting the integer, so printing
    # costs about as much as computing; str() of this many digits would
    # be quadratic, so the check reads the length and the last 50 digits.
    start = time.perf_counter()
    code, out, _ = run(capsys, ['count', '--n', '400', '--what', 'group'])
    assert time.perf_counter() - start < 10
    assert code == 0
    text = out.strip()
    group = group_order(400)
    low = 10 ** (len(text) - 1)
    assert low <= group < 10 * low
    assert int(text[-50:]) == group % 10 ** 50
    # The bound's text output never builds the physical state count.
    start = time.perf_counter()
    code, out, _ = run(capsys, ['bound', '--n', '10000'])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert 'no solver beats 81150592 moves' in out


def test_count_bound_carries_a_precision_note(capsys):
    code, out, _ = run(capsys, ['count', '--n', '2', '--what', 'bound'])
    assert code == 0
    assert out.startswith('7 ')
    assert 'digits' in out


def test_count_json_values_are_strings(capsys):
    code, out, _ = run(capsys, ['count', '--n', '5', '--what', 's_phys',
                                '--json'])
    doc = json.loads(out)
    assert doc['schema'] == 'cubology/count/v1'
    assert isinstance(doc['value'], str)
    assert int(doc['value']) > 0


def test_order_both_methods_match(capsys):
    code, out, _ = run(capsys, ['order', '--n', '2', '--method', 'both'])
    assert code == 0
    assert 'MATCH' in out
    assert '88179840' in out


def test_bound_human_sentence(capsys):
    code, out, _ = run(capsys, ['bound', '--n', '2'])
    assert code == 0
    assert 'no solver beats 7 moves' in out
    code, out, _ = run(capsys, ['bound', '--n', '2', '--tuned'])
    assert 'no solver beats 9 moves' in out


def test_verify_moves_all_pass(capsys):
    code, out, _ = run(capsys, ['verify-moves', '--n', '4'])
    assert code == 0
    assert 'FAIL' not in out
    assert 'corner_three_cycle' in out


def test_verify_moves_reports_a_broken_word_as_a_domain_error(
        capsys, monkeypatch):
    from cubology import move_library
    monkeypatch.setattr(
        move_library, 'corner_twist_pair',
        lambda spec: move_library._named(
            'corner_twist_pair', spec, 'R U',
            move_library.EffectDescriptor('twist_pair', 'corner')))
    code, out, err = run(capsys, ['verify-moves', '--n', '3'])
    assert code == 1
    assert out == ''
    assert err.startswith('BrokenWord: word for corner_twist_pair fails its '
                          'contract on n=3: ')
    assert 'Traceback' not in err


def test_render_plain_and_ansi(capsys):
    code, out, _ = run(capsys, ['render', '--n', '2', '--moves', 'R'])
    assert code == 0
    assert '\x1b[' not in out
    assert len(out.splitlines()) == 8
    code, ansi_out, _ = run(capsys, ['render', '--n', '2', '--moves', 'R',
                                     '--ansi'])
    assert '\x1b[' in ansi_out
    spec = CubeSpec(2)
    state = apply_sequence(solved_state(spec), parse_move_sequence('R', spec))
    assert ansi_out == render_net(state, ansi=True) + '\n'


def test_decompose_shows_tuple_fields(capsys):
    code, out, _ = run(capsys, ['decompose', '--n', '2', '--moves', 'F'])
    assert code == 0
    assert 'corner_perm: [0, 1, 3, 5, 2, 4, 6, 7]' in out
    code, out, _ = run(capsys, ['decompose', '--n', '2', '--moves', 'F',
                                '--json'])
    doc = json.loads(out)
    assert doc['schema'] == 'cubology/decompose/v1'
    assert doc['corner_twists'] == [0, 0, 2, 1, 1, 2, 0, 0]


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, err = run(capsys, ['simulate', '--n', '3'])
    assert code == 2


def test_real_process_pipe_round_trip():
    pipeline = (
        '%(py)s -m cubology.cli scramble --n 3 --seed 77 | '
        '%(py)s -m cubology.cli solve --n 3 --state-file -'
        % {'py': sys.executable})
    proc = subprocess.run(['sh', '-c', pipeline],
                          capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    assert 'verified: solved' in proc.stdout


def test_solve_accepts_an_already_solved_state_document(capsys, monkeypatch):
    _, doc, _ = run(capsys, ['scramble', '--n', '4', '--seed', '3',
                             '--length', '0'])
    code, out, _ = run(capsys, ['solve', '--n', '4', '--state-file', '-'],
                       stdin_text=doc, monkeypatch=monkeypatch)
    assert code == 0
    assert 'verified: solved' in out


def test_state_document_without_n_is_a_domain_error(capsys, monkeypatch):
    _, doc, _ = run(capsys, ['scramble', '--n', '2', '--seed', '1'])
    data = json.loads(doc)
    del data['n']
    code, _, err = run(capsys, ['validate', '--state-file', '-'],
                       stdin_text=json.dumps(data), monkeypatch=monkeypatch)
    assert code == 1
    assert err.startswith('ValueError:')
    assert 'Traceback' not in err


@pytest.mark.parametrize('stickers', [
    [1, 2],
    [None],
    ['WWWW', 'OOOO', 'GGGG', 'RRRR', 'BBBB', 'YYYY'],
])
def test_sticker_list_entries_must_be_single_letters(capsys, monkeypatch,
                                                      stickers):
    document = json.dumps({'n': 2, 'stickers': stickers})
    code, _, err = run(capsys, ['validate', '--state-file', '-'],
                       stdin_text=document, monkeypatch=monkeypatch)
    assert code == 1
    assert err.startswith('ValueError:')
    assert 'Traceback' not in err


def test_missing_state_file_is_a_domain_error(capsys, tmp_path):
    code, _, err = run(capsys, ['validate', '--state-file',
                                str(tmp_path / 'missing.json')])
    assert code == 1
    assert err.startswith('FileNotFoundError:')


@pytest.mark.parametrize('argv', [
    ['count', '--n', '3', '--what', 'bound', '--precision', '0'],
    ['bound', '--n', '3', '--precision', '-5'],
    ['scramble', '--n', '3', '--seed', '1', '--length', '-1'],
])
def test_out_of_range_numbers_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ''
    assert 'must be at least' in err


@pytest.mark.parametrize('command', [
    'render --n 100 --moves U',
    'scramble --n 60 --seed 1 --length 0',
])
def test_closed_pipe_leaves_no_traceback(command):
    # Both outputs are far larger than a pipe buffer, so the writer is
    # still writing when head exits.
    proc = subprocess.run(
        ['sh', '-c', '%s -m cubology.cli %s | head -1'
         % (sys.executable, command)],
        capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0
    assert proc.stdout.count('\n') == 1
    assert proc.stderr == ''


def test_cli_import_leaves_mpmath_unloaded():
    # Only the bound commands need mpmath; every other command, which
    # imports the CLI and nothing more, must not pay for loading it.
    proc = subprocess.run(
        [sys.executable, '-c',
         'import sys, cubology.cli; print("mpmath" in sys.modules)'],
        capture_output=True, text=True, env=SRC_ENV, check=True)
    assert proc.stdout == 'False\n'
