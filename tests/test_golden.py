"""Golden digests: every sweep's CSV and JSON records, byte for byte.

A refactor of the sweeps or the serializer has to leave these digests
unchanged.  The JSON summary is left out because its "approx" entries
are libm floats; the exact records are what is pinned.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from hookchar import harness
from hookchar.output import render_result, result_json

SWEEP_FUNCTIONS = {
    "orthogonality": harness.verify_orthogonality,
    "thm-main": harness.sweep_thm_main,
    "thm-diag": harness.sweep_thm_diag,
    "skew-bound": harness.sweep_skew_bound,
    "excited-bounds": harness.sweep_excited_bounds,
    "sharpness": harness.sweep_sharpness,
    "compression": harness.sweep_compression,
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


def _digests(result) -> tuple[str, str]:
    csv_text = render_result(result, "csv")
    json_text = json.dumps(result_json(result)["sections"], indent=2)
    return (
        hashlib.sha256(csv_text.encode()).hexdigest(),
        hashlib.sha256(json_text.encode()).hexdigest(),
    )


@pytest.mark.parametrize("name,n,balanced,csv_sha,json_sha", GOLDEN)
def test_sweep_records_match_golden(name, n, balanced, csv_sha, json_sha):
    sweep = SWEEP_FUNCTIONS[name]
    if balanced is None:
        result = sweep(n)
    else:
        result = sweep(n, balanced=Fraction(balanced))
    assert _digests(result) == (csv_sha, json_sha)


@pytest.mark.parametrize("name,n,section,csv_sha,json_sha", EMPTY_SECTIONS)
def test_empty_section_records_match_golden(name, n, section, csv_sha, json_sha):
    result = SWEEP_FUNCTIONS[name](n)
    assert result.sections[section] == []
    assert _digests(result) == (csv_sha, json_sha)
