"""Golden outputs: `decompose --json` and `solve --json` stay byte-identical.

The digests were recorded from the CLI before the orbit table replaced the
per-family dispatch (n=2..7), before the solver's stage runners became
one loop (n=8, 9), and before the solve loop gathered stickers through one
cached itemgetter and scored setup keys by length (n=12, 16). They pin the canonical choices of decompose (wing
twins, the centre sign swap) and the solver's setup-chain search order,
so any change to either shows up here.

The sampler digests pin the states the two random samplers draw per seed.
The benchmark draws its inputs from them, so a changed draw would change
what it measures.

The geometry digests pin every slab move's sticker permutation, central
slabs included, and every orbit atlas (slot positions and colours per
orbit, plus the fixed face centres). Those for n=2..9 were recorded
before the sticker geometry became one rotation rule, those for
n=10..13 before the atlas classified stickers by their folded face
position.

The verify-moves digests pin the text and JSON reports of every named
word, and the oracle digests pin the chain build_bsgs produces (base,
orbit sizes and strong generators) for the quarter-turn generators. Both
were recorded before the named words began carrying their verification
report and before the sift skipped identity transversal steps.
"""

import contextlib
import hashlib
import io

import pytest

from cubology.cli import main
from cubology.cube_model import (
    CubeSpec,
    legal_slab_moves,
    sticker_permutation,
)
from cubology.cubology_law import (
    random_configuration,
    random_valid_configuration,
)
from cubology.decomposition import build_atlas
from cubology.group_oracle import build_bsgs, generators

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
    (12, 'solve'):
        'ea100fc76f0642b33c54bdd7d8145c3cc91f39a2273ab0fd286b0b0783bf0f1f',
    (16, 'solve'):
        'ba59fa94b18ab0d591ab4dac4f27368e599c7c7b94654d2c6e5c90aaa2a059e5',
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

# sha256 of every legal slab move's sticker permutation (central slabs
# included, q = 1..3), and of every atlas, per size.
GEOMETRY_GOLDEN = {
    ('permutations', 2):
        '87ce9c55d26facbee4029bc2a1dcae0de47c5a0f850fde5a0bd464b1fd5d66ab',
    ('permutations', 3):
        'fbfbd171dd6d60833c483b91991ff7e7acd5d412a9711476ab690ed677e1ca5f',
    ('permutations', 4):
        'cab69b9f12416d8d660a3f5501d48dafa0e8094bdeb500485cda140cc1a5a488',
    ('permutations', 5):
        '1bbf2082f9d077aa2bf79ca719717f7953938394c5aeee6b28959978184acf9e',
    ('permutations', 6):
        '08fc68a1d701b54c463f9020bd961101a099e6fa446b3b837840b93bcae0eaf0',
    ('permutations', 7):
        '8087032269407acb1314b42afcb33c6fa146a85158e3b195b5034a179a8e86eb',
    ('permutations', 8):
        '113d85bac9a734adc53b00af613d8f88efdfdb9e56db9d7f6c7a77280b14cf17',
    ('permutations', 9):
        '740c80017794842307d2a854e4408c46f16fadcb9afd96a1fb24daf988176397',
    ('atlas', 2):
        '3f6df3e80a3289b9757bb404ccff90d0572d2db660c0eb2e6808db4530bf787a',
    ('atlas', 3):
        'dd9cff47f4b575872075a6e3dd649e87f981d392bb03bab486ed70d838c98459',
    ('atlas', 4):
        '0ff842085fc799291afe2a2bb80824ca89d648f8eebb16221fbd59809ceedc28',
    ('atlas', 5):
        '87cf8530374596f7c6fc3f894c7c7c9ac846507366dd12e3dd44097d4689f54d',
    ('atlas', 6):
        'a6ce4bed75ffb9e20d7e7378d13c9503382522cd28ec3a60a6631d79552bb3f7',
    ('atlas', 7):
        '2adc2d0b6e1ebc3a40438c70133c055ba3a7899596025b32b3936a007f83cfac',
    ('atlas', 8):
        '54869e5efea614751ea637e0ae259061e3a38244ca9e6233d330233e3ad81c17',
    ('atlas', 9):
        'a2e1f7cff763bf970ef1a431066c1c24e13db3182cca588a77d5db039627e27f',
    ('atlas', 10):
        '5737fa6350983364a8ba13284786d90d01e096eab1c041379144f80f003347c2',
    ('atlas', 11):
        'edffb4e0b833749603f473e67e8aa716c193698371c03783fe76a190c4be4d7f',
    ('atlas', 12):
        '9ac7202bbeabaa449e13e550b22e356387410a4d1307c50d4d0b483c021b0ea9',
    ('atlas', 13):
        'ed907c3697064059110e89f7f685909791d5268eeae9346b4237ec306e3774e5',
}

# sha256 of `verify-moves --n N`, plain text and --json, per size.
VERIFY_MOVES_GOLDEN = {
    ('json', 2):
        '96250a134a41bd05518abf37cb6101fb6b514f32e656f7591140a32381d54187',
    ('json', 3):
        'a4785746ca90978d213366c038c95bc924ef2af828da3b733957c331496894dd',
    ('json', 4):
        'b8fbacb34ddd07809cc3ad4e99a672b6540fc42d8e33e83a09d1c0f3dc6253c8',
    ('json', 5):
        '24fa7ef52a4a5704e33b41dc27cc6851fb3cc4efaa8b4d4e45a8dfd5c27fbda2',
    ('json', 6):
        'f170ca783f0e27bd15ae10005c2bd0080c000182127af0f3765a3320f270b787',
    ('json', 7):
        '2b24f120acbfa8ae5008e424d17545d949774f9d847b5d370d2f4cf9a0348b8a',
    ('text', 2):
        'dfd6cae0b413c8ccd2c5f981e468ec5d2145161287bc9c68b4eace6deb3e9297',
    ('text', 3):
        'a7941133e9ff6071f5680d98cc7402e2aa4ae440134c48a9127988412e965df7',
    ('text', 4):
        'cfff209a3ff002d0621d49306061c5457c7ec5c49609f918eb127a1c8bf0cdfb',
    ('text', 5):
        'f4c8323d4532a5d3a5648cabfbd434b7c4f9e901494641c33bf6ddd82bfa6e3c',
    ('text', 6):
        'fd61ef006bb2190bfa12d1d930a2308023b25916187cc1381bcf67cb7bbdc33c',
    ('text', 7):
        '335cea50b2e43305eaba95cb4492b1f21da87517ba903ae08322859191c024d3',
}

# sha256 of repr((base, orbit_sizes, strong_generators)) of the chain
# build_bsgs grows from the quarter-turn generators, per size.
BSGS_GOLDEN = {
    2: '96e0357db78a27d19511bd26d561d78b4727ce682998f2ac20adb86717f3f7ea',
    3: '0e4223783dae02b12ab043d934aedd33e99fc396294eee048462c14573ccfa5b',
    4: '3af8b77808e437b655b3ccc60cc278948b4c5db9833ff4a9b9a089edce04dcd8',
    5: '561184c1cf8016015ca8bdc5e90678936207cd21726f9358e9434ef50ac2fe0a',
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


def _geometry_rows(kind, n):
    spec = CubeSpec(n)
    if kind == 'permutations':
        return [sticker_permutation(spec, move)
                for move in legal_slab_moves(spec, True, (1, 2, 3))]
    atlas = build_atlas(spec)
    orbits = [(orbit.family, orbit.key,
               [slot.positions for slot in orbit.slots],
               [slot.colors for slot in orbit.slots])
              for orbit in atlas.orbits]
    return [(orbits, atlas.fixed_centers)]


@pytest.mark.parametrize('kind, n', sorted(GEOMETRY_GOLDEN))
def test_geometry_matches_golden_digest(kind, n):
    digest = hashlib.sha256()
    for row in _geometry_rows(kind, n):
        digest.update(repr(row).encode())
    assert digest.hexdigest() == GEOMETRY_GOLDEN[(kind, n)]


@pytest.mark.parametrize('form, n', sorted(VERIFY_MOVES_GOLDEN))
def test_verify_moves_matches_golden_digest(form, n):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(['verify-moves', '--n', str(n)]
                    + (['--json'] if form == 'json' else []))
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == VERIFY_MOVES_GOLDEN[(form, n)]


@pytest.mark.parametrize('n', sorted(BSGS_GOLDEN))
def test_bsgs_chain_matches_golden_digest(n):
    bsgs = build_bsgs(generators(CubeSpec(n)).permutations, 6 * n * n)
    chain = (bsgs.base, bsgs.orbit_sizes, bsgs.strong_generators)
    digest = hashlib.sha256(repr(chain).encode()).hexdigest()
    assert digest == BSGS_GOLDEN[n]
