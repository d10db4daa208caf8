"""Byte-identical report gate.

The sha256 digests below were recorded from the plain ``Fraction`` engine
(every sum taken over ``Interval`` objects, every order test on
``Fraction`` endpoints) before the checking engine moved to integer
arithmetic. Every fixed-seed fuzz report and the four ``ratio_scan``
reports must keep them: a faster engine may not change a single byte of
what a user sees. A change that alters a report on purpose re-records the
digests and says why.

Digest input: ``json.dumps(report.to_jsonable(), sort_keys=True)``, UTF-8.
"""

import hashlib
import json

import pytest

from opialcheck import FuzzConfig, fuzz, ratio_scan


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


@pytest.mark.parametrize("theorem", sorted(FUZZ_DIGESTS))
def test_fuzz_report_is_unchanged(theorem):
    report = fuzz(FuzzConfig(theorem, trials=500, seed=0))
    assert _digest(report) == FUZZ_DIGESTS[theorem]


@pytest.mark.parametrize("theorem,length,bound", sorted(SCAN_DIGESTS))
def test_scan_report_is_unchanged(theorem, length, bound):
    report = ratio_scan(theorem, length=length, bound=bound)
    assert _digest(report) == SCAN_DIGESTS[(theorem, length, bound)]
