"""Golden digests: every sweep's CSV and JSON records, byte for byte.

A refactor of the sweeps or the serializer has to leave these digests
unchanged.  The records are pinned in GOLDEN; the JSON summaries, keys in
order, in SUMMARY_GOLDEN, without their "approx" entries, which are libm
floats.

The JSON sections are hashed as the program writes them: the "sections"
block of render_result(result, "json"), dedented to the top level.  On
every row with n <= ORACLE_MAX_N the standard library's
json.dumps(result_json(result)["sections"], indent=2) is the oracle, and
both texts must agree; result_json reads the record fields itself, so it
shares no layout code with the emitter.  The summaries are hashed from
the summary alone, with result_json(result)["summary"] as the oracle on
the same rows.  Each GOLDEN row's sweep runs once: _golden_digests keeps
the three digests of a row, and both pins read them.
"""

import hashlib
import json
from fractions import Fraction
from functools import cache
from unittest import mock

import pytest

from hookchar import harness, output
from hookchar.output import _jsonable, render_result
from oracles import result_json

SWEEP_FUNCTIONS = {
    name: getattr(harness, sweep.function) for name, sweep in harness.SWEEPS.items()
}

# (sweep, n, balanced, sha256 of the CSV rendering, sha256 of the JSON sections)
GOLDEN = [
    ("orthogonality", 6, None,
     "5184747fc56a3f118a9ddedf29943404a18bbbd76f220ceda5a6f0e7f8f342f3",
     "8e9fe41817625d19b133ee4d54c8143e4d429dbd9c2b7dd5be13118df7d5f289"),
    ("thm-main", 8, None,
     "e6905fc80a7903c58f9ae7780be1277ea6c746a5a3d4605bf7ffad13411f526d",
     "b0e78bd1236d2b0074968019b5eb01f14e4ce3be9164b1929ec32ab27a14d514"),
    ("thm-main", 8, 2,
     "fe7c20bd469fb257fb91ff6cd87975c122991cf5df550460c1f51081555c4ec0",
     "67c979c3975d3f839c546e50878cb10932584e41e0b41caea31df643450bc69e"),
    ("thm-diag", 7, None,
     "164b890c80684f0a44082220b7f1f36f5e3d09f34631117445e3300cfafecc79",
     "0726df22d0e60f815d7d8d32ef01cecf57fc0058378c4da3a9b07c5f89888642"),
    ("skew-bound", 7, None,
     "9434ff285167cd0eecff666b85493636672e203ca9dbc810662563041fb362f9",
     "b944bf7d0f01fa398510f715f4ae71ad9144734a0203c2964991bdd515e16519"),
    ("excited-bounds", 8, None,
     "c61be10d34dc75a93ae35b0cd3ca2275a4cae852ee06cd989f410f73d7cbf7e0",
     "2356d2008b1a8c89c4e31e62ccd910e7f89be5cb40de95fb61de889a8cc5abda"),
    ("sharpness", 20, None,
     "e7587de3d669d1f8f11ac3b36a5e3d0f0092f26d903b9349a8b953f9e7200074",
     "c3fa68fb498d9b8d6826562020464751cb6ac26c1fab5bb04080c10d51e99cfb"),
    ("compression", 7, None,
     "5391c3f0f78b1122e3c288fe4beb7e0d35ace3b0b9a8868e534ae88e5f648fa2",
     "dfc9bafa58d7d9b9287c84aaf9c014bb87170844f9395e280a9880f04d31e427"),
    # each sweep at its earlier default budget, harness.SWEEPS[name].budget
    ("orthogonality", 8, None,
     "ba56ea5acf956aba0d94cc2629b115fe24592832a85f75bfa45391123ed2077d",
     "d2594996ba36bedc4216d9c5a1ba18131e7f4eb8f60fd727f16cd4274a04bb6d"),
    ("thm-main", 10, None,
     "dc39200280b273f8006a48d448a3fdaba767b06ec8382ae77fb4b2c31365b6e5",
     "882803e7b9190b34e033676c162120d3d514e143a30c97c4da6c336bf2aeb1ad"),
    ("thm-diag", 9, None,
     "ccb1ab8147a0c2e5fa79fd27d8210d4479ab491e22ded0bc8f98dc6c2af383e3",
     "9ea646e1fef0f39d33638a3997db3fcbec7450a05000a4241dbfeadcfb1499ec"),
    ("skew-bound", 9, None,
     "6277bb151af0a1d47a494b9bf5e1a92f313eba64b01879f1bb7ab37daf255cd5",
     "7fba36574cb9638ee7e1edfb1e8f7de13af6f65a93e4b8e53908a16b48cdb631"),
    ("excited-bounds", 12, None,
     "d4a2dbf3fd1d0dc04f340553e0608d462ce59bccb6df6d0fe6a503435a4fae1e",
     "85a72500ecd3c191eef5712f725e9e245aa2b542ead9da372f3354af065ad13e"),
    ("sharpness", 30, None,
     "47342bde7e1f765128d08851c974e439d78e78f4e647b56ccb6bb7c18f7d6882",
     "b2d302bc418332b45cb9d09181cf8ed730b851424468c058abc75047b82e442f"),
    ("compression", 10, None,
     "f2947aa24ff3ba3df0dfa1b00e66194da11a52962204cc804d9bdee241c34b01",
     "942271ed84b108d178a0a008296feb941bae569ec3b9760928a163ef6a3e82f2"),
    # the raised default budgets of the three sweeps that read dimensions.skew_dims,
    # pinned from the determinant and excited-family routes those sweeps used before
    ("skew-bound", 15, None,
     "ac5b71f350f22024d7c5b68a6b7c64d5e3f8ff56970142bdda273ded6a861387",
     "3ed1490b154d6840dfa9848af170aa1eebc1b6f0c2b3d8f4bc852fdc6ce4ee17"),
    ("excited-bounds", 15, None,
     "fc3ec32000a1652cf68d51a45eaf957e764bc3fb64d1ed9017c01d8abdc5a815",
     "4fe4259bf18dd70a8f4662809b780ef6381ac0700422a00f76464995b65dd1fa"),
    ("compression", 12, None,
     "e1f74d20f5bcb65435b01199156c1be142a1dc9f2ed75947478d0d616ed631fe",
     "d1e1958b8493ebfc6fac1e81eb435a5aec0e84189ea6be5f7e9a277cc92a5f75"),
    # the raised default budgets of the three sweeps that read characters.character_table,
    # pinned from the per-entry character_mn route those sweeps used before
    ("orthogonality", 15, None,
     "402e65258cbdbb33040d5238ab9c5a201a0a716964c42b4876854691a7bd8e7e",
     "e945af55318dffa23cad2c8d1441a587e7c99f0eb3d5fc72a952f42d52c26c41"),
    ("thm-main", 15, None,
     "4d4aaf85bef657945470a58092ca0eeb951601d5e9762d9faaf712d4650224b6",
     "5cc1e4a85703322e14cef59fceb98a15f7c5f9c4a56ca8032f87f1aa09b19766"),
    ("thm-diag", 15, None,
     "798c567ca086eb3c677c2c3e96bb6c777ecca5edf9af18dd91bf34b02c86351d",
     "f41898886d2ebcfa7b47b34aa254fc42dda943190d54ad893e1bbf11558f0315"),
    # the default budgets raised once the two sweeps read the Young lattice's
    # node ids, pinned from the tuple-keyed skew_dims route they used before
    ("skew-bound", 18, None,
     "3967a5f675ba155b128e27441c97119b7aa5be37500034726ca15d6f24b3f49a",
     "8fe284fc7bceb297b34429c3031a0dfec59b86026cfaec3b5b9421f037bb4ca8"),
    ("excited-bounds", 17, None,
     "9689ae3eb9e258f387db839c3cf5724ac5d67e9c12db89a833ffa860f2d8f4ce",
     "64ff8f354115176e3a0a2963627d1ea37e47e3b5f2e154dd95422e8b5274b3d6"),
]

# Sections with no records still carry their record type's header.
# (sweep, n, empty section, sha256 of the CSV rendering, sha256 of the JSON sections)
EMPTY_SECTIONS = [
    ("thm-main", 1, "records",
     "c30586cc9e6ac1b9572751b89ee933868e4e206bd36aa5ced407e6b1db4f0832",
     "a4e17ae4dae862aae9f36cf63d5e892e9bfb67264b917b1febd1c786ddedef7b"),
    ("excited-bounds", 1, "rows_edge",
     "0975f6d03c8bfe0354b79aa482ef707fd29064ec43eea2b635ac35b57866d82d",
     "e74d619fc5f5fd4cf9742771f16e714b9567cabece0f19512854614a2072539a"),
    ("sharpness", 3, "case2",
     "62b85c2ac59bb6451ac0d75cb58e5bd467ddfca96fbdad59ba33b63a60f1ef27",
     "9e0710ddebd09b2bd9ecb8fb07642edddaac62ea3e8179d3bf1ffcc8daa4e9b7"),
]


# (sweep, n, balanced, sha256 of the compact JSON summary without "approx"), one per GOLDEN row
SUMMARY_GOLDEN = [
    ("orthogonality", 6, None,
     "0faa79eb8063653499f330b19bb5cf83a2eb02d58535c673d4c3b99ec6c8daed"),
    ("thm-main", 8, None,
     "2b2bf58dc9e6ba2b05b2387e43511db5c60c85f66bfc8b00622ebf6120307d6a"),
    ("thm-main", 8, 2,
     "3a45354d523b6719c50f6b391c3bc185d4acf8888d0d59836d4fb2dbf2175ac4"),
    ("thm-diag", 7, None,
     "d7a7ae4921b077461cdad15cb990ab2e7b28ee8acae9727ef9db8b1b4f4e674d"),
    ("skew-bound", 7, None,
     "a8a720c408cc7dfc54968694e5aaafdcebdd7347250d098061d81935d57dc8c4"),
    ("excited-bounds", 8, None,
     "d38666f874b55c4cac3ed15645accf1d1dea4e0bc1561257b24caa4007496a18"),
    ("sharpness", 20, None,
     "933d262bf0ed7d37e3529298b356521c088fa283fc1d39313d80b73c7ca6096c"),
    ("compression", 7, None,
     "cb59c1b45086d9b579fea9601b528659aec106f7633b0018530552b94ab8105b"),
    ("orthogonality", 8, None,
     "2ef6478e49d8e6e3a403c4646e08a5282043c1d9039ff83db1591546f31d4db4"),
    ("thm-main", 10, None,
     "7ae7b8f60241925cbff135ff8d9d51039fd8cc3bd03d886dbdfaece9889a14a9"),
    ("thm-diag", 9, None,
     "46971908606d888949aa7dad6a6274f622c4004c24ba61df3e62a8ec4d03a499"),
    ("skew-bound", 9, None,
     "53517aa65a724862b9661339f95d88bba22c268a6931b27c161b87db52da2307"),
    ("excited-bounds", 12, None,
     "15f3981db5de3d1679da2d15ce010a7c76d97a232f62920169d3b5d65486d6ae"),
    ("sharpness", 30, None,
     "76e5a2ddd0f652750eb2c2261a312e8bb2cd3d5d1b1215de470a1a932b20a679"),
    ("compression", 10, None,
     "0b5d02a68f06c7731b501c5b5ba4d3de4bff43ff030df5f6be8b2fc0cff9fb0e"),
    ("skew-bound", 15, None,
     "ab25fed28c8ae39290c0f02f93295455a7b11d2ae669f1035d3b2f9c3431cddb"),
    ("excited-bounds", 15, None,
     "06aebc19fc70bc237a95bc6c0db57b5e7332a866ea9eff07abd4f8117b908e2a"),
    ("compression", 12, None,
     "54be8cd97694369eae95633f2a715083d14f7498d9e509a6fc22a07a6b81981a"),
    ("orthogonality", 15, None,
     "f30cef8ad658dfde088ccbd35654a6afd7383bacc5862e7eaef8d8742e45304b"),
    ("thm-main", 15, None,
     "efed5de23e4ff9c337241dc19e72150312373dbaf0ede7134f1252eb546f1491"),
    ("thm-diag", 15, None,
     "d863a77f9e4ee6ede2800aaed488e0f4c961ce2e9577a956b170513baf312afc"),
    ("skew-bound", 18, None,
     "1ea91880e42ba688678dcc3c7ddc7e67bf0e0d14c5b58d68d180a7809a7bf94f"),
    ("excited-bounds", 17, None,
     "b60484a3bc49e968adf09f560255ba5f2d28d839fe96dc1e8ee34f548c461bcb"),
]


def _run(name, n, balanced):
    sweep = SWEEP_FUNCTIONS[name]
    return sweep(n) if balanced is None else sweep(n, balanced=Fraction(balanced))


def _without_approx(value):
    if isinstance(value, dict):
        return {key: _without_approx(item) for key, item in value.items() if key != "approx"}
    return value


ORACLE_MAX_N = 8

_SECTIONS_OPEN = '\n  "sections": '
_SECTIONS_CLOSE = ',\n  "summary": '


def _sections_text(result) -> str:
    """The "sections" value of the JSON document, indented as a top-level document."""
    return sections_of(render_result(result, "json"))


def sections_of(text: str) -> str:
    """The "sections" value of a JSON document's text, indented as a top-level document."""
    start = text.index(_SECTIONS_OPEN) + len(_SECTIONS_OPEN)
    end = text.rindex(_SECTIONS_CLOSE)
    return text[start:end].replace("\n  ", "\n")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sized(batches, sizes: list[int]):
    """The batches as given, each one's length appended to sizes."""
    for section, records in batches:
        sizes.append(len(records))
        yield section, records


def _digests(result) -> tuple[str, str]:
    """The CSV and JSON-sections digests; no batch the writer is handed holds more than harness._SLICE records."""
    sizes: list[int] = []
    fill = output._fill
    with mock.patch.object(output, "_fill", lambda batches, *rest: fill(_sized(batches, sizes), *rest)):
        csv_text = render_result(result, "csv")
        json_text = _sections_text(result)
    assert max(sizes, default=0) <= harness._SLICE
    assert sum(sizes) == 2 * sum(map(len, result.sections.values()))
    if result.n <= ORACLE_MAX_N:
        assert json_text == json.dumps(result_json(result)["sections"], indent=2)
    return _sha(csv_text), _sha(json_text)


@cache
def _golden_digests(name, n, balanced) -> tuple[str, str, str]:
    """The CSV, JSON-sections and summary digests of one run, each text checked by its oracle at n <= ORACLE_MAX_N.

    Only the hex digests are kept, never the records.
    """
    result = _run(name, n, balanced)
    summary = _without_approx(_jsonable(result.summary))
    if n <= ORACLE_MAX_N:
        assert summary == _without_approx(result_json(result)["summary"])
    return *_digests(result), _sha(json.dumps(summary))


def test_every_small_row_is_checked_against_the_oracle():
    small = [row for row in GOLDEN + EMPTY_SECTIONS if row[1] <= ORACLE_MAX_N]
    assert {row[0] for row in small} == set(SWEEP_FUNCTIONS)


@pytest.mark.parametrize("name,n,balanced,csv_sha,json_sha", GOLDEN)
def test_sweep_records_match_golden(name, n, balanced, csv_sha, json_sha):
    assert _golden_digests(name, n, balanced)[:2] == (csv_sha, json_sha)


def test_every_golden_row_has_a_summary_pin():
    assert [row[:3] for row in SUMMARY_GOLDEN] == [row[:3] for row in GOLDEN]


@pytest.mark.parametrize("name,n,balanced,sha", SUMMARY_GOLDEN)
def test_sweep_summary_matches_golden(name, n, balanced, sha):
    assert _golden_digests(name, n, balanced)[2] == sha


@pytest.mark.parametrize("name,n,section,csv_sha,json_sha", EMPTY_SECTIONS)
def test_empty_section_records_match_golden(name, n, section, csv_sha, json_sha):
    result = SWEEP_FUNCTIONS[name](n)
    assert result.sections[section] == []
    assert _digests(result) == (csv_sha, json_sha)
