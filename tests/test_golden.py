"""Byte-identical report gate.

The sha256 digests below were recorded from the plain ``Fraction`` engine
(every sum taken over ``Interval`` objects, every order test on
``Fraction`` endpoints) before the checking engine moved to integer
arithmetic. Every fixed-seed fuzz report and the four ``ratio_scan``
reports must keep them: a faster engine may not change a single byte of
what a user sees. A change that alters a report on purpose re-records the
digests and says why.

The relaxed-fuzz digests were recorded the same way before sequences were
built from integers; they pin the mutation path, which re-reads the
generated ``Interval`` elements, and the RNG stream of every relaxed trial.
The multi-name relaxed digests were recorded while the mutation sites were
written out name by name and the mutations rewrote ``Interval`` elements;
they pin the positions several mutations share on one input.

The grid-scan digests were recorded while ``ratio_scan`` still checked
every grid point; they pin the windowed and pair-windowed statements and
the T3_10 ``second_zero`` anchor, which the four scan digests above miss.

Digest input: ``json.dumps(report.to_jsonable(), sort_keys=True)``, UTF-8.

The generator digest pins ``oracle._generate_with_rng`` itself, at lengths,
magnitudes and profiles no fuzz report reaches: each output (or error)
and the RNG's next draw, so a rewrite of a shape builder must keep every
draw. It was recorded before the builders' mirrored branches were merged,
and re-recorded when the builders learned to realize {first_zero,
second_zero}, {no_other_zero, second_zero} and {nonnegative}: the draws of
19 profiles of one or two names moved, none of them a statement's.

The unreached-JSON digest pins JSON that no report above reads: every
statement's ``TheoremSpec``, a scan with no admissible point (no witness)
and a worked-example row without a reference value, in key order
(``json.dumps`` without ``sort_keys``).

The command-line digests pin the printed text itself: the exit code and
stdout of ``main(argv)`` (``f"{code}\\n{stdout}"``, UTF-8), recorded while
``check`` and the other commands printed through ``json.dumps(payload,
indent=2)``.

The table digests pin ``--format table`` the same way, on those calls and
a few more (relaxed fuzzes that find violations, a pair scan, a strict
classify), recorded while ``cli._tableize`` wrote dicts and lists in two
branches. The 14 that hold an empty list or dict value were re-recorded
when ``_tableize`` came to print it as ``[]`` or ``{}`` on its key's line,
where it had printed the key and then a blank line.

The help texts pin argparse's help screens and two usage errors, in full
(exit code, stdout and stderr at ``COLUMNS=80``). They were recorded on
Python 3.10-3.13 while each subparser was still written out by hand.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from opialcheck import ExampleRow, FuzzConfig, fuzz, ratio_scan, registry
from opialcheck.cli import main
import opialcheck.oracle as oracle
import opialcheck.theorems as theorems

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def _digest(report):
    text = json.dumps(report.to_jsonable(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# fuzz(FuzzConfig(theorem, trials=500, seed=0))
FUZZ_DIGESTS = {
    "T2_2": "7ba7491bd0ef96bf3b59092481db866e3ff3a100eca595d1137f1c98a1f06d9c",
    "L3_1": "cd26d65e86b87156b53f9438f5f2663a2704c89afbb003d93bb87337365bfe9c",
    "L3_01": "920b8db696c44188a017a3450b7896fcfa90c7d29b3e165a72075fa60de65f7f",
    "L3_02": "e9fe47192cc1000df4f084396cdeed53ff559d2fc112f6437e0dbd09b13c0c01",
    "T3_1": "4fcb4f5cce8ce246217c79421942aa3e8658d4ee3f831d884b5da371d49dab55",
    "T3_2": "c997bda9c55129ff08293298acc8d401f40392e2d324928d254a5cbef1148c02",
    "T3_3": "6ebabd045a09a9bf74f41cf72f741120b09269ecd0cfdbcbf25291e9144f36cb",
    "T3_4": "181d52a2066eade9156a14624430589aab0be4f00bf152178b7b0d58da1f6bce",
    "T3_5": "2361d75c25f04ce912c2027fcb81e684df2adaf974211eb6e9debcfb8a41e03d",
    "T3_6": "735539a0ebd2c6b7d62693c8eab8e551f42456c8635afa83646d20b1982e5a4d",
    "T3_7": "b632cae211837260ead5b6907e2923f8919cea6fb83f0d618e6872d45fcf6614",
    "T3_8": "0ade8e3c99b1705f607774cfae0c872dfdbd8547368a13c994d0aa74fc08f953",
    "T3_9": "36140f3c6c195acc7bb512a575d10f03f61e3868f74b89a6403aca4a1e19e71c",
    "T3_10": "280bf49036fb6504749a63f53c4858c03d1b05d56ad9bae9e29a976e6b39d5ff",
    "T4_1": "413ca4ea42ddb13b439894c5cf0f2071f0fd43e2b00a00ff511b3815f5e1b5ae",
    "T4_2": "42e81a38eaa258ee8d94b61fae911f583f11246f2dfde66e019211b3b8546d0b",
    "T4_5": "29c66d94e84ae7ca8bb114842298c3267826a40c5a3aa67fe32fa29be770e986",
}

# ratio_scan(theorem, length=..., bound=...) with l1 = l2 = 1
SCAN_DIGESTS = {
    ("T3_1", 5, 3): "5301ea706a4a5a4c8ec7eaa4db00c9ff23905f99bda19c05b8739ff1f733e612",
    ("T3_5", 5, 3): "742aa788fbf39639badb0b715f7795f6df5b706be4062947767e06b503a2b1b0",
    ("T3_6", 3, 2): "27290ce438f1cadeac460bff27f49a07bb1aa6dacd8c80b43a46df63c3ba5aac",
    ("T2_2", 7, 3): "f5c24fbd0ff846801b869200c1ad4dd3a2342f4b687e54f994ecafc64e98e190",
}


# ratio_scan(theorem, l1, l2, length=..., bound=...) on every statement:
# single-sequence statements at length 4, bound 2, with exponents (1, 1)
# and (2, 3) where the statement takes them; pair statements at length 3,
# bound 2 and length 4, bound 1, and T3_10 also at length 5, bound 1.
# Recorded on the exhaustive enumeration (every grid point checked) before
# the scan walked only admissible prefixes; (T3_6, 3, 2) is pinned above.
GRID_SCAN_DIGESTS = {
    ("T2_2", 4, 2, 1, 1): "3524cb02e2a6d4b31bd24cc201b372bb20d3b318ce9f1dcfc15e4f049a5fa3ab",
    ("L3_1", 4, 2, 1, 1): "ab52b85ab2b18852967ae792423ff4b0f5ca605d636ad846997911d731699c95",
    ("L3_1", 4, 2, 2, 3): "195aec253ef25b593b5efeee99555e8b0d52c3509c45946530350b19cafbc9fe",
    ("L3_01", 4, 2, 1, 1): "4d9725d732414f2fd1579ccc5b61b7edafa7a1710ff04124f89678a82b82dde4",
    ("L3_01", 4, 2, 2, 3): "ed765d6b2d3fbb6640b83ae8ce940e011fb48f3866cd2183343611bdc0423d08",
    ("L3_02", 4, 2, 1, 1): "874bcc0e1a5174b0cc7aa1f39cc3377126efa919893dd5a5082b701b966164c3",
    ("L3_02", 4, 2, 2, 3): "56ef08f1decba38c79fdc03c5889a3eeaebac6c05e99aee8c353eba0f7f27251",
    ("T3_1", 4, 2, 1, 1): "1828797838521e275d6295a59edb449ca826bafdfef2dc97b1c0c81bf41af89d",
    ("T3_1", 4, 2, 2, 3): "c9887562a8d204a48847dc91f2ea2e7662acaad977eca37bc6d5130f60833e54",
    ("T3_2", 4, 2, 1, 1): "db02aa2bfe68a8bb3851e341546756891eb90018fdfea20493feedd77611b379",
    ("T3_2", 4, 2, 2, 3): "364695760b7cdce9fb73aede1614ae399d80eeaee4fa0384338e1ffc81e1b3d3",
    ("T3_3", 4, 2, 1, 1): "f07674c050804a5c450a9c5e5d5949444c5b221fc60e4dddaddb1141bc921506",
    ("T3_3", 4, 2, 2, 3): "eb379832531a856fc4ca0b6fb00dfc0e8a3624bc28d182af4eb8ae110651ef10",
    ("T3_4", 4, 2, 1, 1): "4157bce10c0dcda66f40c3ec01e168da0bc7bb2d579edbe1e9aa29688b5f30ac",
    ("T3_4", 4, 2, 2, 3): "ff2ba4aaa22bd3493ce1ef9b140b1f9a6c4adab4ba4fd2de025108f9f028e2e4",
    ("T3_5", 4, 2, 1, 1): "23eeda5f6d54b3fd58a31601fc8ff10572f1171184deeeb8fee4e46b5acb81c8",
    ("T3_5", 4, 2, 2, 3): "3f75804087df789139504b2c6c7648ceef8cfb73cd9f88c5727cde0e3d9973ae",
    ("T3_6", 4, 1, 1, 1): "d549703972418b22791ae762573f45b43ce382737ad5b1c5d5226ab0e86843b2",
    ("T3_7", 3, 2, 1, 1): "c0bedb324a83916b537355fff14ea63082e5c4e564b7c29257f0398b3094ac82",
    ("T3_7", 4, 1, 1, 1): "c6e1579039cd078ab446f31c9e2431ca4db0e5fbaaeff466f42b8a681eb92b57",
    ("T3_8", 3, 2, 1, 1): "c9bdb027e26559ef12cb1cfbfe997832a7b2088bf0921bb72ea2d07cb64cc042",
    ("T3_8", 4, 1, 1, 1): "37aead32207de3ae49aa92a3f747777dde395182fa2b7e390548d0229b4901f2",
    ("T3_9", 3, 2, 1, 1): "5fe6a24bf0c3334ebf269b306e299cfece4cb80bc08f9cf0f966ab29fb65ab08",
    ("T3_9", 4, 1, 1, 1): "df340497c70728915acef2f21c545afe5474a6f486d9992357cede33c4b07167",
    ("T3_10", 3, 2, 1, 1): "46df4bfc04bada7aec36b6e460e2e8469d3a69c043e8b00e3f756aef7f8015ac",
    ("T3_10", 4, 1, 1, 1): "a2b501dec1b91c8fc0b18aa634989d405de8872cfcf20d5d9815e25e4adadae7",
    ("T4_1", 4, 2, 1, 1): "ed042e54eea7f5ce8e1262e1256186bafc38a1d670ed7aaed9adf51cb5c3398e",
    ("T4_1", 4, 2, 2, 3): "fb2c8dbb33e3ec7e670d8eeec134057ecb175c61d2c00fdfbb4f262379779bc2",
    ("T4_2", 4, 2, 1, 1): "337a65b8f780c7ef6c29ce58fa486837000a986bd1b1e5aecc5a068acde775ab",
    ("T4_2", 4, 2, 2, 3): "8116239fc26d57a479728f55050cf4328bb20e49f69cc9736a3b288be0992795",
    ("T4_5", 4, 2, 1, 1): "382b9e48e844a7578f0b95cf08bcd7296f696cc50f17c2a6747bc6907ca936b8",
    ("T4_5", 4, 2, 2, 3): "9cedd6086f564177015e2f9093da33e2e4c973c2ce09949fe58c88d2d47659d9",
    ("T3_10", 5, 1, 1, 1): "6685aa89f6e193668526fe24e03df09185779936c93c718dbdbf169215a65492",
}


# fuzz(FuzzConfig(theorem, trials=100, seed=0, relax={name})), every
# precondition of every statement
RELAX_DIGESTS = {
    ("T2_2", "degenerate"): "8069618249f7fefc91bad79709952b6bfc2d9820c339af852f56b3c9d537f4e7",
    ("T2_2", "first_zero"): "99c7a4e4d43d6fecfb8d0f7cba62e1ce41bf708438e547b82ee23a3043fe768f",
    ("T2_2", "last_zero"): "111476eee10c6ac52089e51d10e97d8a9117b9a7f21f5de5b607d49d485c4400",
    ("L3_1", "degenerate"): "3829d8f30df6211be456c8e4336017fdbb763d43c0f4208787d5f6472a493fe1",
    ("L3_1", "first_zero"): "c79fc8b39aebbd8ace932e839f957d7afb32124e44f33399c0d9e9af39134cd0",
    ("L3_1", "nonnegative"): "a50967003a8a86a38820493d6fd2f875289704519d27f68005ae38858de3c6c5",
    ("L3_1", "nondecreasing"): "3f5c9b63f3efed9081a23d7e4ef118ed27d54e5b5e4e0aa8c62564e88b937cb1",
    ("L3_01", "degenerate"): "e54a5f36040b3e5db04987b5924b13f8368e9506198c37256b9cda681fe79514",
    ("L3_01", "first_zero"): "ea08697282a2b16d9bbcb1ecb126dbbe925c9d185fb4d1216b973d773b762879",
    ("L3_02", "degenerate"): "1b13c7d090d1d92511c27effd0fbe9b9c1897ed7716fd9202822d74fd03a0c2a",
    ("L3_02", "window_end_zero"): "3a24937422c9b5f76da994b859f9ecf51cdd3db7203dfa0cf648474ab17da535",
    ("T3_1", "first_zero"): "1916d81757f542e695042c1caee94818fde11008529c70b7215afa7ae0ac30bc",
    ("T3_1", "monotone"): "a82ea5007e493cba23a4849545e40c21288d9beda5748b163b01898db6ab471d",
    ("T3_1", "mu_increasing"): "44084ee1d64597adfb1aa7e62e66beae8ec40a6973966b09cf856486fd796431",
    ("T3_2", "window_end_zero"): "0808d37ed74636bacb9184a37f7cb4061fba2d59daafdff30deaa29ddd3f6e9a",
    ("T3_2", "monotone"): "1554a72c569c3d17d4058cc6c3b872560a3fb6d6757337e8c7f93f652b0343e5",
    ("T3_2", "mu_decreasing"): "76cdd11c68a33af0981c45bfedb438547ae22c4e4b733fbb3f39d69215b0b886",
    ("T3_3", "first_zero"): "ac16fe64317270d740529536c41e1f3726106b4c23f22c6004d77fcf6109027f",
    ("T3_3", "alternate"): "c0a559595c1c16c4695679dad3ec97b86ca5b712fe7ca9221dde362b6b51d801",
    ("T3_3", "no_other_zero"): "405b70d1bfe79291ef8fad94cca54f7516f9e77da3e53a32c0f40345547b9536",
    ("T3_4", "window_end_zero"): "ad1346f9df44f510f180c86164eab3bd51951630470650e3961b0991757dfc02",
    ("T3_4", "alternate"): "dc49535ec8c8c6269ca94a94d8c0dba8557f4c3659ae94325035141e2f638874",
    ("T3_4", "no_other_zero"): "7344cd1e76eebe0219b8c5fb5a2ca38df4776dfc9e6a02b88bb6fe17e0a17207",
    ("T3_5", "first_zero"): "25ea8bd5b9d5bc8bdec140df2df3ee4d504e59e4aff12a62ddd4048448e674f1",
    ("T3_5", "last_zero"): "f919843cf930f03f8623147bd6f55398b6cd6f1e930b81970c4d493a854cc75c",
    ("T3_5", "alternate"): "e0e00fe6b31be870e707305f63649c4306e12f2a6245f3657de0e383204fc98b",
    ("T3_5", "no_other_zero"): "c2914321c07541d55b89aac1be5c7d0c494246ac9a4a92ad2b08d24accfefa90",
    ("T3_6", "first_zero"): "d39f9ea28d033156b646a5a1ab8b3ed908f3524cd8b344772555052d8bde4f9e",
    ("T3_6", "synchronous"): "91481d970bf6fcf2c3c9656d9e0b2a4245892141577915044e84e3c174e2cc41",
    ("T3_6", "mu_increasing"): "04a758ce313ea665f4a3f6025b54008a713b06f04bd8dbcd57cd14506b987234",
    ("T3_7", "window_end_zero"): "990b16151bbebfbb362ea0263871da837d6ad332021ca2f92c2fc01484872da0",
    ("T3_7", "synchronous"): "43c6b80fc60d69c0191b79db88b20bfb1f838e3cce056394b9f73daef3850eca",
    ("T3_7", "mu_decreasing"): "5d62bbb3e8a5ad482281f711ff66ba77612dec1988b7e161bf95947af1b3867d",
    ("T3_8", "first_zero"): "d5c38fbcea88a8f9dcab8f1d8893de670d5084829cf55e4a9bcbe0f0e8e6c06c",
    ("T3_8", "alternate_u"): "4920180756ff80c299b2e0e07e556772c2a6133ec4618450941b3ec47c481390",
    ("T3_8", "no_other_joint_zero"): "dbf3cd0d94e2e171e2c0e2745adbb1dde8f6046490ecf74db2942674a4a81a59",
    ("T3_9", "window_end_zero"): "7aaafee5b9d30e3746de7cc584825caf3021577172e8138114eb5a1da2eddc87",
    ("T3_9", "alternate_u"): "e14f31ad9619457384330116c87dbd03a320aba2c9ff2d3cca7f4e42512bf0fd",
    ("T3_9", "no_other_joint_zero"): "f93c5be9a6d483f04b2e3c00c82e0af1b2103c100e37a70d1f28f426e4e75797",
    ("T3_10", "second_zero"): "c0ea23f46e380ade3fc5588d0b49639df3281d3f3bc1387a59694a69f67dec71",
    ("T3_10", "last_zero"): "94407637b51333b53f75058f14e1b035913a9e2bcd39a663599652d2748bcb80",
    ("T3_10", "alternate_u"): "0c3eb9fee4c772afb91d11247eb790bc948e3ced210a501eae640c2a47cbd103",
    ("T3_10", "no_other_joint_zero"): "aa0501bed22dbee3626320aa0a5e07367c924599753557fdd0a31904d50d4d96",
    ("T4_1", "first_zero"): "a419ef0b4c1ce82f771f85d81f00f71c1a79ece2c3adaf0eef8913905c3ac6b4",
    ("T4_1", "monotone"): "e749fac53f48df4ccbe1eacaf3c5784c7ae4d702122a14b230be1b66d16b196a",
    ("T4_1", "mu_increasing"): "643b7b669b797606c53b8f46330fb8ff499978c93e89060fa1ceb62bf25894da",
    ("T4_2", "window_end_zero"): "b4bca61a9407010a7b08fe9c2095c2502dd071be7ee093723c5a6a4e739b46d5",
    ("T4_2", "monotone"): "039631446d2a1b004e279f4e4ebb9643c6327ccc74674adfa7dfec5a51f62f3c",
    ("T4_2", "mu_decreasing"): "05fdf27f1780c5e029019c54bc39f63c2fa8286b6328e7aedded99919d296230",
    ("T4_5", "first_zero"): "8164784b85a4dffe2defa68f85909055f6f2634e78e3e7ea5763b1f0fa4989a0",
    ("T4_5", "last_zero"): "cb523ffa57e189b7d5b6949ab20ee00dbc7a83e2b408f8d6fdec3cf5accdf5d7",
    ("T4_5", "alternate"): "126b9bb44e51ad8bd889c43a900106ee3c95c43694f6f20a55a036944270d673",
    ("T4_5", "no_other_zero"): "fd1ca42e71a3e0ee9d7988e997efdf1442c1045e01b235a884765eb43c00c38d",
}


@pytest.mark.parametrize("theorem", sorted(FUZZ_DIGESTS))
def test_fuzz_report_is_unchanged(theorem):
    report = fuzz(FuzzConfig(theorem, trials=500, seed=0))
    assert _digest(report) == FUZZ_DIGESTS[theorem]


@pytest.mark.parametrize("theorem,length,bound", sorted(SCAN_DIGESTS))
def test_scan_report_is_unchanged(theorem, length, bound):
    report = ratio_scan(theorem, length=length, bound=bound)
    assert _digest(report) == SCAN_DIGESTS[(theorem, length, bound)]


@pytest.mark.parametrize("theorem,length,bound,l1,l2", sorted(GRID_SCAN_DIGESTS))
def test_grid_scan_report_is_unchanged(theorem, length, bound, l1, l2):
    report = ratio_scan(theorem, l1, l2, length=length, bound=bound)
    assert _digest(report) == GRID_SCAN_DIGESTS[(theorem, length, bound, l1, l2)]


@pytest.mark.parametrize("theorem,name", sorted(RELAX_DIGESTS))
def test_relaxed_fuzz_report_is_unchanged(theorem, name):
    report = fuzz(FuzzConfig(theorem, trials=100, seed=0, relax={name}))
    assert _digest(report) == RELAX_DIGESTS[(theorem, name)]


# fuzz(FuzzConfig(theorem, trials=100, seed=0, relax=set(names))) for every
# set of two or more preconditions of every statement: these pin how the
# mutations of several names share the positions of one input
MULTI_RELAX_DIGESTS = {
    ('T2_2', 'degenerate,first_zero'):
        "36d31d23297c3058c173458552483dbdcbb11eb1817cbd632421c623b72e321b",
    ('T2_2', 'degenerate,last_zero'):
        "16b0ecee6b194615d92b681efeb93f38fb10bb51d9df2a64ef8a0f6161e93fdc",
    ('T2_2', 'first_zero,last_zero'):
        "01ea83fbd47633eb3d57169a721007d0cead919f987d5f62ea66b3cc746071a5",
    ('T2_2', 'degenerate,first_zero,last_zero'):
        "91ffeeb0eb22d42096b2c13f5cfaa659c19b5ed17da5960eb3cfd101ec0d6f43",
    ('L3_1', 'degenerate,first_zero'):
        "3bac89a010378ae2d7c72215adda7b3fcba4a5dc56f1e9009b08a9c6ea9e9737",
    ('L3_1', 'degenerate,nondecreasing'):
        "470d12d3ffe3304a35a56abaec270f9e2058e0a41894700ccad0f191205422a2",
    ('L3_1', 'degenerate,nonnegative'):
        "91b7f5bc7fdd96c5a1a8febe02f22171d1df119166b3c361182ffdb125e77e75",
    ('L3_1', 'first_zero,nondecreasing'):
        "08ab7ca54b5e739b293836f444c61256d73c0ab5bf596fdd68feef48e8e5ea6b",
    ('L3_1', 'first_zero,nonnegative'):
        "4deb31f8cbc57f0ded3f08cf30581f1dcf8e2f8397dadc24bad3d6741530d6c2",
    ('L3_1', 'nondecreasing,nonnegative'):
        "83a3451374253f11155aedb7cc34f37e1f99e3fa9b60be24797721ff88466c65",
    ('L3_1', 'degenerate,first_zero,nondecreasing'):
        "bd591caa636f106bfba84b0e7b84ef11fc22661e069a1f9922b0f13c85fc4a75",
    ('L3_1', 'degenerate,first_zero,nonnegative'):
        "6f802e25501087db30f4cef194f2b801a6d93bff2f0a30082b9e478d32fff2eb",
    ('L3_1', 'degenerate,nondecreasing,nonnegative'):
        "f7b7f073243c1d9a22d5244979845ee34a67dc839a9a5af3357653ab7af5a2af",
    ('L3_1', 'first_zero,nondecreasing,nonnegative'):
        "e6a0bfbec598de2162d17ebf51c8d1e7033b0de08b3eff4044ed3f54ebafe72f",
    ('L3_1', 'degenerate,first_zero,nondecreasing,nonnegative'):
        "775029f7fe487c4797b3a592cfd096e6e63cc2269881b7ccb409a681fefc59c6",
    ('L3_01', 'degenerate,first_zero'):
        "7ae6f95197abbb2df489d4c471e1cdfde41d73c8f402877a5d41397b86362c02",
    ('L3_02', 'degenerate,window_end_zero'):
        "19b5cddd8fe921da028c317be65ddb62df3ec290ccdeb359096a4695c33fc7d1",
    ('T3_1', 'first_zero,monotone'):
        "f5aefe5d821d539b9d8bd85efb9459315075387c47b8558f482938d81e4487e2",
    ('T3_1', 'first_zero,mu_increasing'):
        "8c6537d6485c6c84ec459c54a572720bf65ff24cd93077420551a003c6cd8f65",
    ('T3_1', 'monotone,mu_increasing'):
        "1b14ac56d7eddd43567ce03b6ecf9f43b1e04fac01c071088ad350648981bd3e",
    ('T3_1', 'first_zero,monotone,mu_increasing'):
        "7c5754953e0d5b600a4faa6759d29324b42858e6f892d550f85593f6ad356f3c",
    ('T3_2', 'monotone,mu_decreasing'):
        "721c9872f329e36800d799afeac8e233a8e9e053e3ca8f429588e0f43a90b423",
    ('T3_2', 'monotone,window_end_zero'):
        "85ea508974066a50ae446f94c810080626c23ee14df30e8ebe35df2397b157c6",
    ('T3_2', 'mu_decreasing,window_end_zero'):
        "770e22ec314eb5408a47c1f1b74f8b5d7f2f5694e488fde032b2eefe33d15eb3",
    ('T3_2', 'monotone,mu_decreasing,window_end_zero'):
        "7c59dbbf42d74b0eb32b1e7657fbe70f80d5501d0fce4feec818215a2b00bc6b",
    ('T3_3', 'alternate,first_zero'):
        "a4cee74f62ada4454d8b89da8912a37d70374e17790a2cf5c85293eb0cbd85f1",
    ('T3_3', 'alternate,no_other_zero'):
        "ff53a53a909df0fe080dd459a61dff922d86ba117e2cb45f1ecefac1779a6007",
    ('T3_3', 'first_zero,no_other_zero'):
        "88527f7fdca9b910d3a04605e911ba3b3f3521c9ce4aa757b86ca24aec498feb",
    ('T3_3', 'alternate,first_zero,no_other_zero'):
        "a879691ee81986db780afd952a6ae9d202462db6aedf0f83406e05afbcc27a49",
    ('T3_4', 'alternate,no_other_zero'):
        "bd44e9fd8b2e21daa320e10c61f380c517e70b635a0741059ed4459db7f3fac7",
    ('T3_4', 'alternate,window_end_zero'):
        "a4e3fe78a182cd7b46cfd45f49f73e418debae6c7bbe4cee55d9d906decf68ba",
    ('T3_4', 'no_other_zero,window_end_zero'):
        "3fb16351108f4751915219781cf9bf7cc961f04ae8859a1f512830ac81440b0c",
    ('T3_4', 'alternate,no_other_zero,window_end_zero'):
        "6b183360e68365e12219f674e986b9c6fcfb95f351d265b4f357894dd7492f66",
    ('T3_5', 'alternate,first_zero'):
        "787c9d070586cb1a62d4ec874fb9b6e7091e8eda118d7a3ad7dbfd268b276a3a",
    ('T3_5', 'alternate,last_zero'):
        "515471c5aea40356ab3e26b3d402dc9961ac19c29563cbea00cbaf3e66c88b34",
    ('T3_5', 'alternate,no_other_zero'):
        "377c629bc265411d6f1ed5ed5188111d14854656c35ae33ea927f4135c2deab1",
    ('T3_5', 'first_zero,last_zero'):
        "3cfd12c263ceb2a5ccb184fe147b9092de8d0de6d55a20dc0e46f2d5b97d05a3",
    ('T3_5', 'first_zero,no_other_zero'):
        "bf85e9e3c3862897a3b9d85bc636ff273dd108422b9ff04c7933eb6f88ef7563",
    ('T3_5', 'last_zero,no_other_zero'):
        "31211f4c4aca72c51c4f7ad6e5e70acc67f5eb9431b3a55469fb2e111d5fec90",
    ('T3_5', 'alternate,first_zero,last_zero'):
        "b145d3268bf654fc749602403c354ef10dce21ee92f8c9638c1c4efdef471da9",
    ('T3_5', 'alternate,first_zero,no_other_zero'):
        "cf785a3f66cd8b83213a85b4c8b57ffad5642a0fd9fa9e0f39c9803165502865",
    ('T3_5', 'alternate,last_zero,no_other_zero'):
        "a9e8a78175efb4be0d23045862aeeb5bbc39fed134b0e190d9d29523bb863fe5",
    ('T3_5', 'first_zero,last_zero,no_other_zero'):
        "6dd09b4f8dd260daf0b8e6d3300acb9ee3df1beeb4c0afba31c93455a83dd010",
    ('T3_5', 'alternate,first_zero,last_zero,no_other_zero'):
        "0be72057fb28aeb6b135f6937d2d16b3587c4d9de75f89fd756dc79a49f920e5",
    ('T3_6', 'first_zero,mu_increasing'):
        "ffaae25eb75fbe5d4ab6ad349cd93930116707f7cb20a10868b34d74d78712a4",
    ('T3_6', 'first_zero,synchronous'):
        "a10f8f5bade38af46ffc36fc092b9cea6dde890e4ee17a1f7e67be707b3e1c1b",
    ('T3_6', 'mu_increasing,synchronous'):
        "edfe9cf396475e248591e7d0f24c48991506d1f159d4187f84974adfb6f22452",
    ('T3_6', 'first_zero,mu_increasing,synchronous'):
        "b7104740baefe0ca61f0a29588282cb6ded87fc8e2c9a7daa15d23e335a126cb",
    ('T3_7', 'mu_decreasing,synchronous'):
        "d13b051b2389f397bc1a8362321b54fef2a663e27901f5a241d234d5ec45ed8c",
    ('T3_7', 'mu_decreasing,window_end_zero'):
        "fb199cd068b2da813e522a0b322002def3942faa4c056023076f9c212579383f",
    ('T3_7', 'synchronous,window_end_zero'):
        "ecb6db3c92f1198eb8806f93f1a641452328407177fa63d13a028e1ad5d57db7",
    ('T3_7', 'mu_decreasing,synchronous,window_end_zero'):
        "c4c4c7aaf2ea6fdd7a6e28d2875126ebe99bd004485b4d209baa589fb560519e",
    ('T3_8', 'alternate_u,first_zero'):
        "70fdac6d98bb64e3ab048308820051e5dd1ee89001863ab7b6d7d5498b064203",
    ('T3_8', 'alternate_u,no_other_joint_zero'):
        "04b1a9c4a147a0b288669941ede1ea78c18368c9103290af1c163d18e30d47ec",
    ('T3_8', 'first_zero,no_other_joint_zero'):
        "4c9e3f222660abb3f89899de53218d86e43c6d0ea77a2322b2dbee825f9a0527",
    ('T3_8', 'alternate_u,first_zero,no_other_joint_zero'):
        "16b06f0a23f71c7b2d26933aba18f433328798d17c570f50aebca9e08d3f0ba4",
    ('T3_9', 'alternate_u,no_other_joint_zero'):
        "47ce59c1a2600e4e402974bd8da41f89fb6b067c8addc6b978461ea129ffbb3b",
    ('T3_9', 'alternate_u,window_end_zero'):
        "dd9537056b303e3dbab2f1c092beabb025c7c4427f50e9fbb3f9e4984e18a9eb",
    ('T3_9', 'no_other_joint_zero,window_end_zero'):
        "bf2afa667c5a2c417837db3dd5a7f660194e4f5de0444640b86b684f30934628",
    ('T3_9', 'alternate_u,no_other_joint_zero,window_end_zero'):
        "26e6196d852263e217209e27d73d1ea99b566fb56b8def7a141eee0e8dfd7715",
    ('T3_10', 'alternate_u,last_zero'):
        "659f7d3146a22268538b138f6a2b6853e192721237bdaf1348f624b7d10bbdf7",
    ('T3_10', 'alternate_u,no_other_joint_zero'):
        "742b7ea3b2c43dfdf75332679bd17d4ea20fc812fa72751419bb1abcf2cb9839",
    ('T3_10', 'alternate_u,second_zero'):
        "14b9c3cc34519452e5b13da750282172ea0b9397216ef00b5d97f96d86b0e6ef",
    ('T3_10', 'last_zero,no_other_joint_zero'):
        "c1a142dc3277660bb69544eaa34044c90de4ccba287827248811975c919742a3",
    ('T3_10', 'last_zero,second_zero'):
        "cebddd131ac5df54fd0bc3df63dbc1e3801e65c8fb39329a2f3dd7b3426c3e6d",
    ('T3_10', 'no_other_joint_zero,second_zero'):
        "cc827fe662d7c31ff349cb00b6d9f415dab95316fef9f19a1870227fb9461cf6",
    ('T3_10', 'alternate_u,last_zero,no_other_joint_zero'):
        "38e9bdea2d2c68272e8802814bd10d2d3c26533706880a2c9821a6c296076cd3",
    ('T3_10', 'alternate_u,last_zero,second_zero'):
        "f69dbb2252dadd3dfeb35a397a5e3637d139bf2dfea5999f4b1935c166bc01ef",
    ('T3_10', 'alternate_u,no_other_joint_zero,second_zero'):
        "145d69484fe71969b2fa91033977af76aa60b1a97b79bfdf9b5b0ba51c23d903",
    ('T3_10', 'last_zero,no_other_joint_zero,second_zero'):
        "141ee911a83865cd6fd0ef117e1aa909507ed9ed5710296b035beb69477a7171",
    ('T3_10', 'alternate_u,last_zero,no_other_joint_zero,second_zero'):
        "2ae29ded56dea1a6e314ab425f0c9aa5959c3357153b135c8dea2e142681c9c6",
    ('T4_1', 'first_zero,monotone'):
        "4fa535f26968fc334e5fd21e6b96c0ec2ded5d0968d36eae73f5876c88b4df54",
    ('T4_1', 'first_zero,mu_increasing'):
        "c116b6e67d7ae87aafeef93c0d2c8f34edb7e897c5bf2ef22fc5053b6bd082ad",
    ('T4_1', 'monotone,mu_increasing'):
        "45465d50aa6ceb65e6c2092bd8073812a9f2c76558d50b5afcab0158a7a096e6",
    ('T4_1', 'first_zero,monotone,mu_increasing'):
        "0e5fa9be4ab35ff60228365a7b9f25b831714f9180bab35f51b73d6c246b2a6d",
    ('T4_2', 'monotone,mu_decreasing'):
        "55b629a5ac8dfdf00f7d0e99b2408fb91abaf6c94bd4c86cd57d988ec4a36410",
    ('T4_2', 'monotone,window_end_zero'):
        "d7c9ae20a160abab8920f598bb90f37cb59a4543adb750b7f76318dac4a9d941",
    ('T4_2', 'mu_decreasing,window_end_zero'):
        "fb6aba7f7fa35fbbd7a2073b9a7392535e0b40ac67485e65a29fe079ec476ad4",
    ('T4_2', 'monotone,mu_decreasing,window_end_zero'):
        "da74c34443c7fb090c7ba7ce8abdd8a2e2b08d2facabfe935b18210aa08ae94e",
    ('T4_5', 'alternate,first_zero'):
        "531726ffa4db276aeef29c0dbd07147cb72192b4e4c7df839c8b712385219cb6",
    ('T4_5', 'alternate,last_zero'):
        "8ac7f618921b3b1bc57c67b3afd8b6d67157551557ec5693f38aeb48cc76f4a5",
    ('T4_5', 'alternate,no_other_zero'):
        "2f2f5d1ac7088a8a71a50587a650c39cd46e4031aec1a93fd6540d1f4fa2fe5d",
    ('T4_5', 'first_zero,last_zero'):
        "d87e8d060c3e2e4b13acbffdcc2f2ade057024927adc6707a62d03c52c09c24a",
    ('T4_5', 'first_zero,no_other_zero'):
        "1ec48a458d97d4a6f729cd1895f51eb14088d3b622fc1b006326b97bf638fd04",
    ('T4_5', 'last_zero,no_other_zero'):
        "bc1448ac44272f4825df4180d78dc0b1fc6e74863ec9836c7d366895c7a5db78",
    ('T4_5', 'alternate,first_zero,last_zero'):
        "6b439fa9f7976c9871dbd70cff97bac7087ad8d5b4ad8d15e6094bbffcabbdaf",
    ('T4_5', 'alternate,first_zero,no_other_zero'):
        "3807e35ef51c7b19c641005ab5913b0c688c37d48ec735941b35306a7b0c7be2",
    ('T4_5', 'alternate,last_zero,no_other_zero'):
        "6a1bae220448a75e765ea2466cf9bdc73a007f3b07db02f8d9b1f48740848509",
    ('T4_5', 'first_zero,last_zero,no_other_zero'):
        "b92998b706b7b251d34fef07c47f8e1c854de35e6f88de5d09a1da33b58c2901",
    ('T4_5', 'alternate,first_zero,last_zero,no_other_zero'):
        "ec3019f488e240dded79fa83af7bda1930dbc0203c4db40db2255277d2720c04",
}


@pytest.mark.parametrize("theorem,names", sorted(MULTI_RELAX_DIGESTS))
def test_multi_relaxed_fuzz_report_is_unchanged(theorem, names):
    report = fuzz(FuzzConfig(theorem, trials=100, seed=0, relax=set(names.split(","))))
    assert _digest(report) == MULTI_RELAX_DIGESTS[(theorem, names)]


# main(argv) with each *.json argument read from samples/: exit code and stdout
CLI_DIGESTS = {
    "check --in ex31_n5.json":
        "60211da2878df914caaec9fd66049abb0ccbdeb84172ea1f4a0742c5a20494c1",
    "check --in ex32_n5.json":
        "e757705a1ebc96fd0e249bbce1746458cd959ab5a1b06e40ae2742afee020636",
    "check --in ex33.json":
        "6e73f08f4c71cf0c3808af1d70cfc6952b300c390e6001435d80f4eeaedc9790",
    "check --in pair_t36.json":
        "bfe781f00fbc21aa26fc5e99f3da15d43fa1824841b79b98a97cd728e52e2da5",
    "check --in tent_classical.json":
        "53a211e7c73105d151613b9203a84df7e4fa0760a791397425b2f76a18391c68",
    "check --in ex31_n5.json --theorem T3_1":
        "6e601ad5688daf23929519d15342b84c5c4cb9034c1678dc0333c17d1f86b059",
    "check --in ex32_n5.json --theorem T3_2 --l2 2 --window 2,5":
        "5fcfca41bf7b3e839cb004c14b7fe110df85b684ff505f9688842db950d061ea",
    "check --in ex33.json --theorem T3_5 --l1 2 --l2 3":
        "30ece2850ba494ed8d695b4e3bd84d290060a6ce6ace28cd060fa6db7ad9b94d",
    "check --in pair_t36.json --theorem T3_6":
        "ed70611f8b670451202379063597a9fcc032e85f0cfb0b76786a321c947dce64",
    "check --in tent_classical.json --theorem T2_2":
        "f6e2ff901bad1f8e295623434ca2127efe4fa44c43f0320b12e85de069595e0d",
    "classify --in ex31_n5.json":
        "5c77f998004608dd81791bf95b27420e1f81930dc6a6a13ec7e92ebdb8f550e3",
    "classify --in ex32_n5.json":
        "622379aaac5385124ec0e33833e602e70fc2afde9c2bc1d8da43d23b1b156983",
    "classify --in ex33.json":
        "91b02e475ac3a5ae39711282e1358484e11fc1afc8b72db8ee5a51bdf4e83cb0",
    "classify --in pair_t36.json":
        "b9156162312dca49c60685d5b6b290be14d2d218d674611111a56cb7fe54f140",
    "classify --in tent_classical.json":
        "ed38a5b441ca62dce937a8b49fd70a81303301be8961132a87900f91a324e766",
    "examples":
        "b9bc9d7d8f18ffd067fa6c5f286a1784416d1317fa77d792ca94bd5173c66eec",
    "fuzz --theorem T3_5 --seed 0":
        "2c218282198de096eb6ebc9a0128374de446552322eb9c27aaf9c0dbbb72adc8",
    "fuzz --theorem T3_6 --seed 0":
        "f508b340aa7ad94a46334dd6e319cbf5e6318f17fb91b8db50755ad10d432282",
    "scan --theorem T2_2 --length 5 --bound 2":
        "06f430146860033b11a9e18dec3ed4547d48fa6b7b27d4a21dfff50ea2b968b2",
}


@pytest.mark.parametrize("call", list(CLI_DIGESTS))
def test_printed_output_is_unchanged(call):
    argv = [str(SAMPLES / a) if a.endswith(".json") else a for a in call.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = f"{code}\n{out.getvalue()}"
    assert hashlib.sha256(text.encode()).hexdigest() == CLI_DIGESTS[call]


# main(argv + ["--format", "table"]), digested as CLI_DIGESTS are, on every
# call there, on a relaxed fuzz of each arity that finds violations, a pair
# scan and a strict classify; recorded while cli._tableize wrote dicts and
# lists in separate branches, and re-recorded where an empty value came to
# print as [] or {} on its key's line
TABLE_DIGESTS = {
    "check --in ex31_n5.json":
        "61c8a102b3f2daf7817a17c9e9547e289d8fc63aa9f38f30073c9b520f1f7b4e",
    "check --in ex32_n5.json":
        "069bc0d5ef1d9bfaac2d33f348b56e4ffc68b7eec6547563904adc9005e31ad1",
    "check --in ex33.json":
        "1d5bfaa829412ddbef226e8ffcfddd53d8dfda5f6cfda73b2ea65055f884db59",
    "check --in pair_t36.json":
        "1fa4f9820b41fe2fe6787ac283edba575fc58440a91992cf9325fef360ba1a78",
    "check --in tent_classical.json":
        "adeec606889021da997b61e50ce2c092f4f1e7ae6c92f537a973fb9190a5fb14",
    "check --in ex31_n5.json --theorem T3_1":
        "e682e34377ff1f858fcb70c7e83c5a43bf502242019bedd936e5840118718881",
    "check --in ex32_n5.json --theorem T3_2 --l2 2 --window 2,5":
        "eef8bd1b72a047b608a6099d534ff83fbb04ee3cebf7dc27e2c77b15469d98aa",
    "check --in ex33.json --theorem T3_5 --l1 2 --l2 3":
        "d7b6fc5c15424a31f0514647cf8d227c84cc1c3762b043fdb362ced9912d4d84",
    "check --in pair_t36.json --theorem T3_6":
        "2b74a6871af3429589e4f9b5c47378c2e78f519840febed6aa6f4b2b4a948625",
    "check --in tent_classical.json --theorem T2_2":
        "1d02e64af81d5cd61a4fae470f2b15ff6b4c5c7b2e103890e24fef815ecef715",
    "classify --in ex31_n5.json":
        "d4c08c3625b9c041855c39a719fbc7c13594d042b376561911f0c0b9bda95b1f",
    "classify --in ex32_n5.json":
        "6214d89904b8cad815a5b9767e2e5880c827580cea8a636892ca91e2e27584d4",
    "classify --in ex33.json":
        "7cb97e61372284efc5b6d653ac06e3a354be1516383fdce5579a3d2a7ab39ee4",
    "classify --in pair_t36.json":
        "64263e23c01adcbd6e715991f1ab4a062c2cbbd657fd5125354cd33702d04b77",
    "classify --in tent_classical.json":
        "0d14c80d60cbdb7aab44a86b7270baef7065c0aba9d9f60583fbc3939ef5b280",
    "examples":
        "e7f4499abc925ad423f6286e99037078c7e8771214b0353c7bb21df9b23ef0d4",
    "fuzz --theorem T3_5 --seed 0":
        "4050a7a0ed83580532af26b97ae9f7cec1bad51fc594416ef3e1254597fb284e",
    "fuzz --theorem T3_6 --seed 0":
        "e4c7a07f08c666c41c841c25b1b7eb31df2c328a0da62af57d5b2e7a468cdf80",
    "scan --theorem T2_2 --length 5 --bound 2":
        "51b4ba697ffb214455431d26caaea5ada48551abc9f0961dde1da7e1eef1b8b0",
    "fuzz --theorem T3_6 --trials 40 --seed 0 --relax first_zero":
        "845b78d81e2d4c3638025dc91a91071442082cc7c2affc23bca64c1db0fd165b",
    "fuzz --theorem L3_1 --trials 40 --seed 0 --relax nondecreasing":
        "8e5f53fda6c01e91a74f74c77ae8275349ca81a15e74c63466a202cfbf72df7e",
    "scan --theorem T3_6 --length 3 --bound 2":
        "3f0d3daed90ef3ebc4ae44132c4ddd0880fda39d4b28ed8159dd386871622168",
    "classify --in ex33.json --strict":
        "6fd668800806a24332912c66bcc6201b141b079a0b80f133bc0674a8be63d9bb",
}


@pytest.mark.parametrize("call", list(TABLE_DIGESTS))
def test_table_output_is_unchanged(call):
    argv = [str(SAMPLES / a) if a.endswith(".json") else a for a in call.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "table"])
    text = f"{code}\n{out.getvalue()}"
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[call]


# oracle._generate_with_rng on every registry profile and every profile of
# one or two hypothesis names, at lengths 1-8, magnitudes 1, 2 and 100 and
# four seeds, base index -2..2 by length and seed: each draw's output (or
# error) and the RNG's next 32 bits, one line per draw
GENERATOR_DIGEST = "0936a114af708ef5a268cae883641f66a6c5202a880a1f6dfa5d2285aa12873a"


def _generator_draws():
    names = sorted(theorems._HYPOTHESES)
    profiles = {frozenset(spec.preconditions) for spec in registry()}
    profiles |= {frozenset(c) for r in (1, 2) for c in itertools.combinations(names, r)}
    for profile in sorted(profiles, key=sorted):
        label = ",".join(sorted(profile))
        for length, magnitude, seed in itertools.product(range(1, 9), (1, 2, 100), range(4)):
            rng = random.Random(f"{label}:{length}:{magnitude}:{seed}")
            try:
                built = oracle._generate_with_rng(profile, length, rng, magnitude,
                                                  (length + seed) % 5 - 2)
                got = [(s.D, s.lows, s.highs, s.base_index)
                       for s in (built if isinstance(built, tuple) else (built,))]
            except ValueError as exc:
                got = f"{type(exc).__name__}: {exc}"
            yield f"{label} {length} {magnitude} {seed} {got} {rng.getrandbits(32)}\n"


def test_generator_draws_are_unchanged():
    text = "".join(_generator_draws())
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGEST


UNREACHED_JSON_DIGEST = "ecffed781640b1298060b8eb9713c3836bd568e477189bcef2b33a50b514fb00"


def test_unreached_json_is_unchanged():
    scan = ratio_scan("T3_3", length=3, bound=0)
    assert scan.admissible == 0 and scan.witness is None and scan.witness_window is None
    row = ExampleRow("no reference", Fraction(7, 2), Fraction(4), None, Fraction(-1, 3),
                     False, "reference not stated")
    text = json.dumps({"specs": [spec.to_jsonable() for spec in registry()],
                       "scan": scan.to_jsonable(), "row": row.to_jsonable()})
    assert hashlib.sha256(text.encode()).hexdigest() == UNREACHED_JSON_DIGEST


# argparse's help and usage-error texts at COLUMNS=80: (exit code, stdout,
# stderr) of main(argv). Python 3.13 wraps the scan usage line one option
# earlier; the texts are otherwise the same on 3.10-3.13
_USAGE_CHECK = """\
usage: opialcheck check [-h] --in PATH [--theorem THEOREM] [--l1 L1] [--l2 L2]
                        [--window WINDOW] [--alt-boundary]
                        [--format {json,table}]
"""
_USAGE_SCAN = """\
usage: opialcheck scan [-h] --theorem THEOREM [--l1 L1] [--l2 L2] --length
                       LENGTH --bound BOUND [--budget BUDGET]
                       [--format {json,table}]
""" if sys.version_info < (3, 13) else """\
usage: opialcheck scan [-h] --theorem THEOREM [--l1 L1] [--l2 L2]
                       --length LENGTH --bound BOUND [--budget BUDGET]
                       [--format {json,table}]
"""
_HELP_LINE = "  -h, --help            show this help message and exit\n"
_FORMAT_LINES = """\
  --format {json,table}
                        output rendering (default json)
"""

HELP_TEXTS = {
    "--help": (0, """\
usage: opialcheck [-h] {check,classify,fuzz,scan,examples} ...

Exact checking of Opial-type inequalities on interval sequences.

positional arguments:
  {check,classify,fuzz,scan,examples}
    check               evaluate one statement, or every applicable one
    classify            monotonicity profile and segmentation
    fuzz                seeded random trials of one statement
    scan                exhaustive small-grid worst-ratio search
    examples            re-run the bundled worked examples

options:
""" + _HELP_LINE, ""),
    "check --help": (0, _USAGE_CHECK + "\noptions:\n" + _HELP_LINE + """\
  --in PATH             JSON file with u (and optionally v)
  --theorem THEOREM     statement id such as T3_5; omit to discover
  --l1 L1               first exponent (default 1)
  --l2 L2               second exponent (default 1)
  --window WINDOW       window as n,m for the windowed statements
  --alt-boundary        T3_10 variant anchored at the first element
""" + _FORMAT_LINES, ""),
    "classify --help": (0, """\
usage: opialcheck classify [-h] --in PATH [--strict] [--format {json,table}]

options:
""" + _HELP_LINE + """\
  --in PATH
  --strict              use strict orders instead of the default non-strict
                        ones
""" + _FORMAT_LINES, ""),
    "fuzz --help": (0, """\
usage: opialcheck fuzz [-h] --theorem THEOREM [--trials TRIALS] [--seed SEED]
                       [--relax RELAX] [--format {json,table}]

options:
""" + _HELP_LINE + """\
  --theorem THEOREM
  --trials TRIALS
  --seed SEED
  --relax RELAX         comma-separated precondition names to violate on
                        purpose
""" + _FORMAT_LINES, ""),
    "scan --help": (0, _USAGE_SCAN + "\noptions:\n" + _HELP_LINE + """\
  --theorem THEOREM
  --l1 L1
  --l2 L2
  --length LENGTH       element count
  --bound BOUND         endpoints range over integers 0..bound
  --budget BUDGET       refuse scans needing more checks than this
""" + _FORMAT_LINES, ""),
    "examples --help": (0, """\
usage: opialcheck examples [-h] [--format {json,table}]

options:
""" + _HELP_LINE + _FORMAT_LINES, ""),
    "check": (3, "", _USAGE_CHECK
              + "opialcheck check: error: the following arguments are required: --in\n"),
    "scan --theorem T3_1": (3, "", _USAGE_SCAN + "opialcheck scan: error: the following"
                            " arguments are required: --length, --bound\n"),
}


@pytest.mark.parametrize("call", list(HELP_TEXTS))
def test_help_and_usage_texts_are_unchanged(call, monkeypatch):
    # argparse wraps its texts to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(call.split())
    assert (code, out.getvalue(), err.getvalue()) == HELP_TEXTS[call]
