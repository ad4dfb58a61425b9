"""Golden outputs: `decompose --json` and `solve --json` stay byte-identical.

The digests were recorded from the CLI before the orbit table replaced the
per-family dispatch. They pin the canonical choices of decompose (wing
twins, the centre sign swap) and the solver's setup-chain search order,
so any change to either shows up here.
"""

import contextlib
import hashlib
import io

import pytest

from cubology.cli import main

GOLDEN = {
    (2, 'decompose'):
        '360896826e4e4b8045026bc7f15ded136255db57bc55a21517ea1fcf1887694e',
    (2, 'solve'):
        '8658ecc37763387e67ee348e9d1988ba935311ce49459f1e255d564c6bb91d22',
    (3, 'decompose'):
        'e0b7870126f6e854953647e809d1da6858a33fceab1c40570747595747738f86',
    (3, 'solve'):
        'deff997e98b6575529886f4ca75736c1015f21cb2ec3368a2cc43540df142cc7',
    (4, 'decompose'):
        '50b0b66b04892754ac146c17523fcceabf3734cc8498ecddca1aa057350b72a5',
    (4, 'solve'):
        'b343cee03c6f338e07ed6d0887ffc369d69d301b242ff1a7d0d544b6200c20ec',
    (5, 'decompose'):
        '882e58e8912a338886f88244b6500da9a1cb31253fdfcba5c8c11e51dd0e1855',
    (5, 'solve'):
        '378cee7235bc16d7ee2a03b0f265fb5c37e9d046b41e918e28f72b4467599244',
    (6, 'decompose'):
        '82c2c060f7d88b977b934201a52331f1f27e2723b09155c9b97d7aa7803e9cec',
    (6, 'solve'):
        '8ff6294f57c6ee9b0a11351fd07f49f00f5f2392fd3f61b0857afafa9e099ea4',
    (7, 'decompose'):
        '28dc0465a933ff318f308835f81e7fcd4ba1c2edceaa2d642c6898656125f604',
    (7, 'solve'):
        '413a17b5bdb37e72910ae9d3436ffa8f8de1578567fc2b73f9a871a02b7d030b',
}


@pytest.mark.parametrize('n, command', sorted(GOLDEN))
def test_json_output_matches_golden_digest(n, command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, '--n', str(n), '--seed', str(n), '--json'])
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[(n, command)]
