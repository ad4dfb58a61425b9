"""Golden outputs: `decompose --json` and `solve --json` stay byte-identical.

The digests were recorded from the CLI before the orbit table replaced the
per-family dispatch (n=2..7), before the solver's stage runners became
one loop (n=8, 9), and before the solve loop gathered stickers through one
cached itemgetter and scored setup keys by length (n=12, 16), and before
one setup chain began serving every orbit of a class (n=13, 15, whose
many off-diagonal centre orbits exercise the i>j and central-column
classes). The decompose digests for n=11 and 13, which reach wings at
depths 2..6 and 25 off-diagonal centre orbits, were recorded before
decompose read each orbit through per-orbit tables. They pin the
canonical choices of decompose (wing twins, the centre sign swap) and
the solver's setup-chain search order, so any change to either shows up
here.

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
report and before the sift skipped identity transversal steps. The
named-word digest pins every named move's name, word and report for
n=8..12, past the verify-moves digests; it was recorded before the
library listed its words by walking the orbit atlas.

The count digests pin `count --what W --json` for the four exact counts
and for the plain bound, and `bound --json` with and without --tuned
(tuned only up to n=60, where the step-by-step power sum still ran in
well under a second). They were recorded before every count became one
row of exponents evaluated as an integer, as printed digits and as a
certified logarithm, so the printed digits and the bound's text stay
byte-identical across that change. The outputs run to tens of thousands
of digits, so the interpreter's int-to-str limit is lifted around them.

The parse digest pins what parse_move_sequence returns or raises, error
message and position included, for a seeded corpus of move texts with
and without each of several cube sizes. The texts follow the grammar,
nest groups at most four deep and take ASCII depth digits only; they
also carry stray and missing characters, Unicode whitespace and
truncations, so every error path is taken. It was recorded before the
parser became one recursive function.

The CLI-document digest pins the plain and --json output and the exit
code of scramble, validate, solve, decompose and render (plain and
--ansi) for n=2..5 and two seeds, of count for every --what and bound
with and without --tuned for n=2..5, and of order by formula for n=2..9
and by both methods for n=2 and 3. It was recorded before every --json
document began taking its schema and size from one writer.
"""

import contextlib
import hashlib
import io
import random
import sys

import pytest

from cubology.cli import main
from cubology.cube_model import (
    CubeSpec,
    IllegalDepth,
    ParseError,
    legal_slab_moves,
    parse_move_sequence,
    sticker_permutation,
)
from cubology.cubology_law import (
    random_configuration,
    random_valid_configuration,
)
from cubology.decomposition import build_atlas
from cubology.group_oracle import build_bsgs, generators
from cubology.move_library import all_named_moves

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
    (11, 'decompose'):
        '99bc6a392cd8baa9c13dfca2c0c3b6aab648d220e39fcef1e77e2114e35052a0',
    (12, 'solve'):
        'ea100fc76f0642b33c54bdd7d8145c3cc91f39a2273ab0fd286b0b0783bf0f1f',
    (13, 'decompose'):
        'dd210464e1066ddb6b14517a9cbd39275f7f8853a3f58a5652c622474a3c5217',
    (13, 'solve'):
        'd3b4770884ad62864062922870a8a195c7f6dab061faf75fde5339fb91b5625d',
    (15, 'solve'):
        '9c6f7f0b9b4ea64d055a9d57b46d0b43dbb5af65c894f4d9ce66bd9ace36b6ed',
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

# sha256 of repr([(name, sequence, report)]) of all_named_moves, one list
# per size, for n = 8..12 in turn.
NAMED_MOVES_GOLDEN = \
    '6e54e29d20136dfbb37c05026045ec6462d43aa7cffa85d0e85087963b7a743a'

# sha256 of repr((base, orbit_sizes, strong_generators)) of the chain
# build_bsgs grows from the quarter-turn generators, per size.
BSGS_GOLDEN = {
    2: '96e0357db78a27d19511bd26d561d78b4727ce682998f2ac20adb86717f3f7ea',
    3: '0e4223783dae02b12ab043d934aedd33e99fc396294eee048462c14573ccfa5b',
    4: '3af8b77808e437b655b3ccc60cc278948b4c5db9833ff4a9b9a089edce04dcd8',
    5: '561184c1cf8016015ca8bdc5e90678936207cd21726f9358e9434ef50ac2fe0a',
}

# sha256 of `count --n N --what W --json`, per count and size.
COUNT_GOLDEN = {
    ('bound', 2):
        'b70bd00b34abc01284eabaf870430791b08d38872b26563450962fcec1f5e48c',
    ('bound', 3):
        'b5d565d4aadd059329ab09c8191b19d645593318a9502a4a02f02d9ab93adf10',
    ('bound', 4):
        'fe10c04e10e6fdfccb78a4cc629ef1e4987efe270b94362e953a8ff632fc2637',
    ('bound', 5):
        'da644a4dd7f9e8a9b80f24ccb158d5ce880001a9b746eba0e4f7869d4e28db0b',
    ('bound', 6):
        'cde535e8f0148103f2d074c4d0536fafa3a947ed88b692e7a58bde2667c3bf00',
    ('bound', 7):
        'd9cf3cef35ce69b615e846dc16f3922e8186b1c2ad5f17b8dc3c6740818e5af7',
    ('bound', 8):
        '8fd0d88c397d451ac56a8cb19652b61da8437c046bf6d872dfd35f5cbc316b61',
    ('bound', 9):
        'dbc2f030d04e24e5ce303cc9973806abbf9f5edc00945c3a7d776e3bc16a087a',
    ('bound', 10):
        '7ab43a456a05e38ba8cd8efe1c5b89dc29a7d1c7db3dd61ffe13b200b92b3cea',
    ('bound', 11):
        'ff0e36f95cbabcd5b33b1b13d50a8d0148f0f75e1823abd55fb92f2f2e54bb86',
    ('bound', 12):
        '622fab4f385505892e5b20d3d6c75002f58b1f6aebae4b5cf704a9e2fc9027d1',
    ('bound', 13):
        'b627604239cc9359e80a5d841971aec665d0aa2d40bee7c2b2b93a8ed17eed35',
    ('bound', 20):
        '626eec899850e7c926a38e2cd7394ca7479aaa62a51216c7928aedeb54475ab9',
    ('bound', 34):
        '8d18bfbc611da746b4879512a395f4c911d04d8ee8d5193f51b138db189761ee',
    ('bound', 60):
        'fe0c9e322bfbb327c4d00b14525439790bea02c19571f923a79c93b5f2b38990',
    ('bound', 100):
        '83a31046c19a15ad16dd426ec17a0b357f0f5ce8955ef51fb346e25a23f98f41',
    ('group', 2):
        'fb579b61fb6a6017d82ec65cd5a22de624c0ac2e4013fad4d803f18513d0cb47',
    ('group', 3):
        'e09b580fc294edd75868ea709414fe970c1f825a034e0291d4e7ff8966903237',
    ('group', 4):
        '3f23d6c239ee46246ac7baccf783be7a6a5fa82b328605f2e6042588541e44f7',
    ('group', 5):
        'd3cfb2e4cc8ab467be5e3660a7fe41cc20e0745427eb83b00500750d6e34a154',
    ('group', 6):
        'ceac78b730fb3221ae9cd2aecf8361267510b07ab67c5d55406f84bdba96de4f',
    ('group', 7):
        'a4b0d8ad42ade6baada608eaba5af3cb4956bd621cb7a1055fafa3f0e3c0dc82',
    ('group', 8):
        '1e81273146b8c942509dfe86a440bab88fe489814923e45d9b71743b5ce942d1',
    ('group', 9):
        'dd79778cd895d4230ff826fffb8c012a2916eaab14c8c46abaf4729cf4b466d8',
    ('group', 10):
        '5075b0381ec6641f49ae39c2a7b6d2d28a98b72fe8f2c059b697bc8ab1498810',
    ('group', 11):
        '1389de061a023b09a1ed21b740569be4a8d4b22a97668c85e2773b2197a02fe4',
    ('group', 12):
        'fd8d5044e476e36748b0803c9a6837fc8ee04318f1acae47484bdca34c7c66bc',
    ('group', 13):
        '270933cccfde0bb9f19c4e80bea8ee3bd5af4032a0e1851ccc8f9d4d36fe2cbc',
    ('group', 20):
        '041885960548c91511f492a81c376a26a82bfe86babd3d8b301139f767a876a0',
    ('group', 34):
        '3e4579f75a9983107f3074173c8ea352d6ed03b9d60aac8499b07a11211641db',
    ('group', 60):
        '1ca49fb9ee585c87cc52ea34562546f5e84ce26c879a03b10c5aa82c4ac14e8c',
    ('group', 100):
        '1019164e8fa7d5bf21f5d2f0cf9cb50ce1fe4eac1bbee7982e9dc959fc8dc678',
    ('orbits', 2):
        'cae1b10ea21cc4c57557efc17fa79b556ffca7461c40fb238b052cbe73237378',
    ('orbits', 3):
        '0b5fe05c68c84a15fd974f2f7d74d33cfb8bb3321b74ba396e14fef54d0b6891',
    ('orbits', 4):
        '09513fabe225dc25ac8c624642bae973e4194ae4a3c30f36bdf86e95e7ef82c5',
    ('orbits', 5):
        '59b7eba19e91d7d1876b7c6c608a4f722a3dced3d39423e545b3b6c88337dd98',
    ('orbits', 6):
        '52a3ef0ad4190dd2de81ba2a86c6fe4aac2f59c727858f5494903b7153e04dc7',
    ('orbits', 7):
        'ab53c8ca423eb2e2e452cf74bfe1197429a724fbbcdcc791009f844e6147f886',
    ('orbits', 8):
        '6728a97907fb9a0b9a1382b4371393b7e8f84db214b8177688d93d23f5193e6d',
    ('orbits', 9):
        '01d12285270035323a7440811abcac2c1df41c8d81347237e0d7cc08f00c2a5c',
    ('orbits', 10):
        '3023847b995eb01e238d73eb4db6c7108c2bcf30a058b3786916240ba3bccb74',
    ('orbits', 11):
        '8b788b09c3ac2945c3bfa4956dad334ce10d3bdc6eb769aa37b763105f5d5165',
    ('orbits', 12):
        '81f821a89fcad1b0f56cd3005de3b3bc3d3cb0755cd3bea5fee03204904b3c93',
    ('orbits', 13):
        '11be3fb59145ed9a0cf179a5535065dacf3df6e37b1ed58af7adf68bd3830ed9',
    ('orbits', 20):
        'f588cf5541e4a5170c67cd623fd6ebaf5a70fbd355a894752d434c3aedab7507',
    ('orbits', 34):
        '53eb132e0bf8b249e848ded051cf5c1af2e96c84a0f41cfffebbf598c9afa552',
    ('orbits', 60):
        'e818126dad0ace1ab43ad7431fd31ad0ff6b395d7864b93349dadf53967a8379',
    ('orbits', 100):
        '36efd05ae5f19fd16baa480b54fbbce16fe7011c0d0ddd00f0b9b81363b87ffd',
    ('s_conf', 2):
        '91d556be5f7906aebaddf09f2c1b99c1f33de24200de0b064b8f4a84e89de550',
    ('s_conf', 3):
        '46e745d7ab05b1f0ea24f39ecab4dcfb1fbd93d40713938bd08d6caa1f237cb8',
    ('s_conf', 4):
        '225ca82a09191c81caf48eadd4d3b5cd73746422ce746693df6f254922a18b0f',
    ('s_conf', 5):
        'e39705fcd466c60207a726b3947e1c64d1e7044e23dc1e5da1ff0e9cf59ecdb2',
    ('s_conf', 6):
        'abeb87c19eba2bc8ee1bd810bedc0e2b9cba3b10b1351c95fe27c6ce2669c333',
    ('s_conf', 7):
        '7d6f1373ff6c37b253097626fdac47698bd34c4a8c3e7da2463cce78e7598dc0',
    ('s_conf', 8):
        'd72fcd3daec12596b00ae7bce036881f03b9d6cce00bb6c449f69b17ba662e53',
    ('s_conf', 9):
        '192701d445ff4ffb76150c367aaa42ab8a3f5663e0f4c9b54a16c8e8ea271d21',
    ('s_conf', 10):
        '03b6a06a595f003118c13cef2f009f76f56161b9c73e06098aee5f3fcdf3e07d',
    ('s_conf', 11):
        '6f4ff93985af0813597be5346f2829385bf678f76f33b84a512aa80b623c9719',
    ('s_conf', 12):
        '21f2ec08a41aa0ca2efc59c1256442d8b3fd06ce0b940c764650cde0b2b0b027',
    ('s_conf', 13):
        '5032cc0012b2ab06663094210f6132320573d79b2f854cf97ffeb6f3b85a6a66',
    ('s_conf', 20):
        '3b3accacd6a884a0677a233e1d7c599fd27dadf49bd0f8d87ec50feb8e49f83b',
    ('s_conf', 34):
        '038aa430836808f59add4d49f7bd1aa4ad94a5dbfdb233141e103a99133a080b',
    ('s_conf', 60):
        '0828357dc7e5242f2a41498ca9aee189c75f7c04808e4a0cc38df00ea1743494',
    ('s_conf', 100):
        'f6e4d8a45f10d2b21055ef1dd0774fe01455d7f8afa17b3944a0b6f416238d7a',
    ('s_phys', 2):
        '0b4dcc8865e9e8337ce090e27f65963f279fa54a7fcc531c17f4bb3dbd33ac07',
    ('s_phys', 3):
        '3d804d650fea174831bfdc5c4bdb713e7ee8ec46be004990a6cd41943d15551f',
    ('s_phys', 4):
        'bdb004e08fe427fd3f525491a54c47e8356b650f7211433b8fcb736bb59f305e',
    ('s_phys', 5):
        'd6066163be37625b6d5406eaaef2bb73577916f485df1f6362c6f1018ad2ddf9',
    ('s_phys', 6):
        '4e49ac6c91248866ef9901feffd76ba41ea7ac7bd9f0b830c3b3114e246a1e48',
    ('s_phys', 7):
        '4aee84c19af8587b23c3ffcca8fa3b3dcb0c1c825866865e27f30b09b87f9bb4',
    ('s_phys', 8):
        'dd3991d979a791fbc80cb5acaf8ddc2983e2c60283f39f1265c36a22728417f8',
    ('s_phys', 9):
        'fc02e90a3378a248dc439669ff9aa82386bff92fcc22bdc1e169c9b013bf0858',
    ('s_phys', 10):
        'b17988546fd726dea1fb25e1f002d2b9ded2051454973e18c78a319fa50445a2',
    ('s_phys', 11):
        '12a8b2e04a987ca7904fe99e5f7b27c374f3a27e943927298f13f58fcdd35235',
    ('s_phys', 12):
        '00b888ad843868b8d3012d26a193c6b11f42fe9fd3d6a7412687619c9f0b9968',
    ('s_phys', 13):
        '51f1ba0fd89f80a400993d5bc40872c95e70054302cb873361ef28ff58221933',
    ('s_phys', 20):
        'aae4ab78e767fb0384c679f837482f5daa8504e1bddea6e7225e79f648d259bf',
    ('s_phys', 34):
        'cb34ba957536757f898b28bcb05874e06b4136ee2c918f373b2e126d092bf6f5',
    ('s_phys', 60):
        '008553b4ac0fda6d6563dd990fd0799f2f639693b41d66e0307d8da70e9f4e5b',
    ('s_phys', 100):
        'aaee752c21f5bece5fc9ed8a741265f233a088e6d94d3c5cf30240a0ef628dc8',
}

# sha256 of `bound --n N --json`, plain and --tuned, per size.
BOUND_GOLDEN = {
    ('plain', 2):
        '6f11d5287a2fade6a00aa5606f291f495a3b3266855157c6450133c8a1544f34',
    ('plain', 3):
        '9ad1373d7f17bb0df4e6986ba0ff368da75d9c33f1b1e1d7ee8c66124e1a4b68',
    ('plain', 4):
        '3f5112899ea4a09b0fbbdedac3c16557dedd69a8ed619409578967bbb311baf2',
    ('plain', 5):
        'b18b07cf2e7d6df9bb0d23fd33dbcc904fac34ba591b8012e460941276bca740',
    ('plain', 6):
        '5986726b171387c5281d9e47182ab8a82e66c94aa3b89b0ed0644caa2941af0d',
    ('plain', 7):
        'f552fc74d42c2a16197a01435e3c02265de58abd75313971f252053faee8def9',
    ('plain', 8):
        '864a20fa5ae2ec641b2b270c3fb16d667f5145ccfcea8f797f406d5e4072d638',
    ('plain', 9):
        '2c49593092bcd34033d68bfd4ff70dab5f16597259edb7f8108f105b62b54d28',
    ('plain', 10):
        '4875b3410b725e23a8d2d0355a2cb42708a451ab638d74377d5b75c9563e6b6a',
    ('plain', 11):
        '570c9ce869e1d12b0bf5797418f8696f2ee912e2b2e52f05bc09147bbfc3ccd0',
    ('plain', 12):
        '970ba64de3e25e3bfedf603ed94443288a189b5cb666beb1f6752ddc697fa167',
    ('plain', 13):
        'e19ac838a79df6a04e69a92492a2993d5bbf4e4d631e445b5e5188835829af5d',
    ('plain', 20):
        'a09fbed865528ed1dd22cb147fc4ed8de2b444242f006a184a1f759b3e473919',
    ('plain', 34):
        '0b20af726d65e00cc2b8e87212d6508de214167ddfbc1b2b4b68c819f208f902',
    ('plain', 60):
        'feb2069f4802f113ae38f9834bb970b53d2aa23f1080f0c8629d599f7acf9b41',
    ('plain', 100):
        'cad583ae97435fb6fb5a4a5d768f897278e47339488acce5dc0eb6d48fbaa32a',
    ('tuned', 2):
        '32c5343ee0e2c5b23eda4a92e80324367a9a87dfcdc114525cbbb6a25a533c43',
    ('tuned', 3):
        '866ecd314bb64799b1110503b029138839c4ddbe86986a6961466fbbac0688f0',
    ('tuned', 4):
        '961bd629005cd8a6d867a61dcd205f9b417d37062d0f9dc5dc155e727d5f7c69',
    ('tuned', 5):
        '638668b30217751c7cb4c531a1f0490a5f9b49f47c131168e04fc8dc4f9a3b6d',
    ('tuned', 6):
        'd7ab34cff0e7cfb4e720ff1351941ac7f3950c6a110b139a2b6d1a10d8b68cb3',
    ('tuned', 7):
        'c3c4c8f2d7de7cca13decb9a9b3eb343bbb03ec9ad5b75da9bd2eb0606dd0481',
    ('tuned', 8):
        'f0b2891b04f8de53c85ba92c9049acfc957d59b7b3a60549c9a1346bca780c08',
    ('tuned', 9):
        'c3995629542c3fa45cb34c032331dbc7aea763b820aadcb84edf69c73148de5e',
    ('tuned', 10):
        '69c28ca4d32d85f65313358e6c12385a38fc5166f13d720d8360d70636afdd2d',
    ('tuned', 11):
        '6f09efbbdb1a6ab47f1be929ceee17d8e1f36e91299dea02a6ea336dc4b06767',
    ('tuned', 12):
        '544d0460dcd1d4a812c921a7c2b8e092ba4fd8ad2245aeaf56fe8c8e0fd02d12',
    ('tuned', 13):
        '85d2f0234dc9f5031a0e9dcbdb79e3acc0fc896f3d4fbc56f98d496ebabead82',
    ('tuned', 20):
        '6239032fc35273ec5b1c0ca6e00d080f5b49533ee3a68a17e35f0a52b81e44da',
    ('tuned', 34):
        'bc2d2bbc4c038d07b6e1196d2e7182eb5a21a692af216b4845f9966e9547939a',
    ('tuned', 60):
        '2c4a4c7ed20b0eb05b2c719b01cb6499d8a9952258c9321d1ad4412c27587f3b',
}

# sha256 of the repr of every parse outcome over PARSE_TEXTS texts of
# PARSE_SEED, each parsed without a size and with each of PARSE_SIZES.
PARSE_GOLDEN = 'efe2bea784332cabccb47488043e0c4efb43e817c6484fd6ac8cc4e86ef17310'
PARSE_SEED, PARSE_TEXTS, PARSE_SIZES = 1, 8000, (2, 3, 5, 8)

# sha256 of every command line _cli_document_argvs lists, each plain and
# under --json: the argv and exit code, then the output.
CLI_DOCUMENT_GOLDEN = \
    '751740d5df38c7304adf631270fa9d60fca9e7a616b17ce3bb509e492dacf00a'

# Each piece of move text is drawn from these, the wrong ones rarely.
_SPACES = ('', '', ' ', ' ', '  ', '\t', '\n', '\u3000', '\xa0')
_DEPTHS = ('',) * 30 + ('2', '3', '4', '5', '02', '10', '0', '1')
_LETTERS = 'UDLRFB' * 10 + 'MES' + "Qx',:]"
_SUFFIXES = ('', '', '', "'", '2', "2'", '3', "''", "3'")
_SEPARATORS = ',' * 8 + ':' * 8 + ' ]'
_CLOSERS = ']' * 24 + ' ,'

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


def _move_text(rng, nesting=0):
    parts = []
    for _ in range(rng.randrange(4)):
        parts.append(rng.choice(_SPACES))
        if nesting < 4 and rng.random() < 0.3:
            parts += ['[', _move_text(rng, nesting + 1),
                      rng.choice(_SEPARATORS), _move_text(rng, nesting + 1),
                      rng.choice(_CLOSERS)]
        else:
            parts += [rng.choice(_DEPTHS), rng.choice(_LETTERS)]
        parts.append(rng.choice(_SUFFIXES))
    parts.append(rng.choice(_SPACES))
    return ''.join(parts)


def _parse_outcome(text, spec):
    try:
        return parse_move_sequence(text, spec)
    except ParseError as error:
        return ('ParseError', str(error), error.position)
    except IllegalDepth as error:
        return ('IllegalDepth', str(error))


def test_parse_outcomes_match_golden_digest():
    rng = random.Random(PARSE_SEED)
    specs = [None] + [CubeSpec(n) for n in PARSE_SIZES]
    digest = hashlib.sha256()
    for _ in range(PARSE_TEXTS):
        text = _move_text(rng)
        if rng.random() < 0.1:
            text = text[:rng.randrange(len(text) + 1)]
        for spec in specs:
            digest.update(repr(_parse_outcome(text, spec)).encode())
    assert digest.hexdigest() == PARSE_GOLDEN


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


def test_named_moves_match_golden_digest():
    digest = hashlib.sha256()
    for n in range(8, 13):
        digest.update(repr([(m.name, m.sequence, m.report)
                            for m in all_named_moves(CubeSpec(n))]).encode())
    assert digest.hexdigest() == NAMED_MOVES_GOLDEN


@pytest.mark.parametrize('n', sorted(BSGS_GOLDEN))
def test_bsgs_chain_matches_golden_digest(n):
    bsgs = build_bsgs(generators(CubeSpec(n)).permutations, 6 * n * n)
    chain = (bsgs.base, bsgs.orbit_sizes, bsgs.strong_generators)
    digest = hashlib.sha256(repr(chain).encode()).hexdigest()
    assert digest == BSGS_GOLDEN[n]


@contextlib.contextmanager
def _unlimited_int_digits():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _cli_digest(argv):
    out = io.StringIO()
    with _unlimited_int_digits(), contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize('what, n', sorted(COUNT_GOLDEN))
def test_count_matches_golden_digest(what, n):
    digest = _cli_digest(['count', '--n', str(n), '--what', what, '--json'])
    assert digest == COUNT_GOLDEN[(what, n)]


@pytest.mark.parametrize('kind, n', sorted(BOUND_GOLDEN))
def test_bound_matches_golden_digest(kind, n):
    digest = _cli_digest(['bound', '--n', str(n), '--json']
                         + (['--tuned'] if kind == 'tuned' else []))
    assert digest == BOUND_GOLDEN[(kind, n)]


def _cli_document_argvs():
    '''Every command line the CLI-document digest covers, before --json.'''
    for n in map(str, range(2, 6)):
        for seed in ('1', '2'):
            for command in ('scramble', 'validate', 'solve', 'decompose',
                            'render'):
                yield [command, '--n', n, '--seed', seed]
            yield ['render', '--n', n, '--seed', seed, '--ansi']
        for what in ('s_conf', 'orbits', 'group', 's_phys', 'bound',
                     'tuned-bound'):
            yield ['count', '--n', n, '--what', what]
        yield ['bound', '--n', n]
        yield ['bound', '--n', n, '--tuned']
    for n in range(2, 10):
        yield ['order', '--n', str(n), '--method', 'formula']
    for n in (2, 3):
        yield ['order', '--n', str(n), '--method', 'both']


def test_cli_documents_match_golden_digest():
    digest = hashlib.sha256()
    for argv in _cli_document_argvs():
        for form in ([], ['--json']):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv + form)
            digest.update(repr((argv + form, code)).encode())
            digest.update(out.getvalue().encode())
    assert digest.hexdigest() == CLI_DOCUMENT_GOLDEN
