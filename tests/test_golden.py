"""Golden outputs: `decompose --json` and `solve --json` stay byte-identical.

The digests were recorded from the CLI before the orbit table replaced the
per-family dispatch (n=2..7), and before the solver's stage runners became
one loop (n=8, 9). They pin the canonical choices of decompose (wing
twins, the centre sign swap) and the solver's setup-chain search order,
so any change to either shows up here.

The sampler digests pin the states the two random samplers draw per seed.
The benchmark draws its inputs from them, so a changed draw would change
what it measures.
"""

import contextlib
import hashlib
import io

import pytest

from cubology.cli import main
from cubology.cube_model import CubeSpec
from cubology.cubology_law import (
    random_configuration,
    random_valid_configuration,
)

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
    (8, 'decompose'):
        '2a0e6478709d88c2ea18340f54c93a7acd8ad4ba4285e29b55bf3617437669e8',
    (8, 'solve'):
        'c240f6dc2554d82a2298450cbb3bcb5160300b1a740e11e2983a49a97e6bf988',
    (9, 'decompose'):
        'c587901341092b469546bbd954e43b21c671a1e6628b9fecd2f20e88700c2cf6',
    (9, 'solve'):
        'fbafc74ff0846202bc2a7c4d82779415eb2a184f197ec7e4e0903f2df949e18a',
}

# sha256 of the stickers of seeds 0..9, concatenated, per sampler and size.
SAMPLER_GOLDEN = {
    ('random_configuration', 2):
        'b4abdbe999225a65d6123611b58b3324350c97094f21fd294b2dba9c2259d8a7',
    ('random_configuration', 3):
        'e43288402dfe2be0c59aac7e100d3d34cd845b017880e4b5a43080f5614a35c2',
    ('random_configuration', 4):
        'f90aeb4379575a533aaebe32815ed822cf91d3be73cabbd60eb16246dce3778c',
    ('random_configuration', 5):
        '5a16e0bdf24cd69f9f3504baa6ce534e82886034a07f04706053dfeccb673a5f',
    ('random_configuration', 6):
        'd53e872559ce9c57b2aa0f850b03ef73b955377286df3587b94dd41fb1970532',
    ('random_configuration', 7):
        '08d0be6edd99d2dfaa69577d2858b9ff2aacc19c0064c6fbcdd5260535b6188c',
    ('random_configuration', 8):
        '5b1b819adc5beea860f0f78eff10fa6fc8bfcdb97166dec5381e1f564aad3244',
    ('random_configuration', 9):
        'dbd3e745dfdaf7e59bb5da0eddc269032e7080ccc819d06feb9276a69f9535ba',
    ('random_valid_configuration', 2):
        '5a01bd38ec4e7e85e7dc416b52195e5941e2eb4a0bfec052182edd6ebc711b78',
    ('random_valid_configuration', 3):
        'a402cd04f24dfd475b5f5f8f9a4f57ecc85d79e7753b94be991dae529cf19b12',
    ('random_valid_configuration', 4):
        '68fa87c6f71d8b7853c0d3190b8a05b020c43800bf75f212388714c1525ab982',
    ('random_valid_configuration', 5):
        '73e7214371180a2acecd54eb911de308a468e25782775d403ab6f123406b5dc0',
    ('random_valid_configuration', 6):
        '79ab75dcea11a91308d516a606a01b2efed4b780e0a2679c65adec53e1b3cddb',
    ('random_valid_configuration', 7):
        'aa5c589d0d4245ac11523ee3f9dddab2d6cc285b229c15c19969cb9a9b72b8d3',
    ('random_valid_configuration', 8):
        '1744a10922fcb0b5da2262b9b30fd51517e06f8ec102548aa29d8f2194cb11e6',
    ('random_valid_configuration', 9):
        '6c1201374d2a2ab8925b97dfb949736fb5e14ba79a7c8e4b87b7e1247517ef7c',
}

SAMPLERS = {sampler.__name__: sampler
            for sampler in (random_configuration, random_valid_configuration)}


@pytest.mark.parametrize('n, command', sorted(GOLDEN))
def test_json_output_matches_golden_digest(n, command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, '--n', str(n), '--seed', str(n), '--json'])
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[(n, command)]


@pytest.mark.parametrize('sampler, n', sorted(SAMPLER_GOLDEN))
def test_sampler_draws_match_golden_digest(sampler, n):
    digest = hashlib.sha256()
    for seed in range(10):
        digest.update(SAMPLERS[sampler](CubeSpec(n), seed).stickers.encode())
    assert digest.hexdigest() == SAMPLER_GOLDEN[(sampler, n)]
