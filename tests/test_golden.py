"""Golden outputs: SHA-256 digests of the report JSON, the atlas and
extremal CSVs, the CLI JSON, the reference fixtures and the DOT text on
fixed inputs.

The digests were taken once and are never regenerated: a refactor that
changes any byte of these outputs fails here.
"""

import hashlib
import json

import pytest

from germval import germ, valuation
from germval.cli import main, satellite_chain

# each enumeration's arguments, the files it writes and how they are read
# back: the sweep digests were taken through universal newlines, which turn
# the CSVs' \r\n into \n, the atlas-only ones (newline="") over the bytes
# written.  Without --report the atlas is computed on its own, without the
# sweep; smooth-7 is the largest enumeration pinned.
SWEEP = ["--extension-depth", "1"], ("atlas", "extremal", "report"), None
ATLAS = [], ("atlas", "extremal"), ""
ENUMERATIONS = {
    "smooth-4": (["--max-steps", "4", "--bases", "smooth"], SWEEP),
    "A2-D4-E6-2": (["--max-steps", "2", "--bases", "A2,D4,E6"], SWEEP),
    "smooth-7": (["--max-steps", "7", "--bases", "smooth"], ATLAS),
    "A3-D4-4": (["--max-steps", "4", "--bases", "A3,D4"], ATLAS),
}

CLUSTERS = {
    "satellite-chain-5": satellite_chain(5),
    # a satellite at the meeting point of two minimal-resolution curves,
    # a free point on its curve, then the satellite of those two; at curve
    # 3 the non-ancestors 4 and 6 tie the ancestors' threshold
    "D4-satellite": germ.build(
        germ.du_val("D4"), (germ.Satellite((1, 3)), germ.Free(4), germ.Satellite((3, 4)))
    ),
}

# du Val bases beyond the enumerated ranks, queried at the last curve and a
# few others: a long A chain cut by a satellite, and E8 blown up at the
# branch point
LARGE_BASES = {
    "A40-3": (
        germ.build(germ.du_val("A40"), (germ.Free(0), germ.Satellite((0, 40)), germ.Free(41))),
        (0, 13, 39, 40, 41),
    ),
    "E8-2": (
        germ.build(germ.du_val("E8"), (germ.Satellite((2, 7)), germ.Free(8))),
        (0, 2, 6, 7, 8),
    ),
}

GOLDEN = {
    "A40-3/analyze": "af45a3573ac14683730a56f0efcf7a0f9fb0dfa027ba2766b63d6acf7e5d188e",
    "A40-3/fingen": "3c60deaed4bcfe686fc1559e9c8d0bdc7869abfcb1c111adadae9fc152f75407",
    "A40-3/ideal": "1c2e525549133050acd5af23384f1356d9feffc6e6e502730a7b72dae4793a08",
    "A3-D4-4/atlas": "f26751962a82bbcfa998d341fca2184f35e254b9eee3a6195c2d6d485bac6b62",
    "A3-D4-4/extremal": "dce6b0f56154fce1c9c9acb5d02530b2e80748ca48928a9d79dc43276f9db609",
    "A3-D4-4/stdout": "b323cda06784cf30d04d5fb2f20236c28458e6ff0dd74ff93c584a8c1196d3fc",
    "A2-D4-E6-2/atlas": "1781bb27fcd9f5b66bcac85893a1e2e3cabcbbb9f4106d0a154ac9b73c74bf29",
    "A2-D4-E6-2/extremal": "9ebaf34589e20fd025ced048209a2b434d80489ebf05eb89449885b5caefca29",
    "A2-D4-E6-2/report": "afb91e145ef9936b05efbbf77e04864ceab0dc94566154be8f04994b83b712c0",
    "A2-D4-E6-2/stdout": "3a8ec701e53a9f9c9157cf75719d009dbde0d9089837a2be82b381e2484f274e",
    "D4-satellite/analyze": "54627604ebc30a7b6b42a9c2ad4912f04bcdb761c731e2223e167bf87b50adc4",
    "D4-satellite/classify": "3fdcb2116961cb44cfd6f8de4b125c0dcb6f7bbc068df2231c588d5fbc6e2e88",
    "D4-satellite/dot": "b64305f713bfc8afa55ee2d4f5c54d0be1a4fc128ff4c8d9693996a9baa84240",
    "D4-satellite/fingen": "771416545d0c478ca4a8f8404fb76cd022ea9c9732df65a7e08a6372864bfa55",
    "D4-satellite/ideal": "d4368076a881118f4f48c598d943dc2c1a5487506c66eb0dec65728397a29494",
    "E8-2/analyze": "2b0b55724402d147e0c4b967b6e6c7cc4ef416d79090ffa2ae3529399e83a5fa",
    "E8-2/fingen": "6ccbf78cd4de4432ed8829a77771e9d10de0379e7b86497838e0547cb445cc5a",
    "E8-2/ideal": "0bc8221bbd5f2ad88488e2d8a5f87b454acc6bfa53b6084eef542959e0c248ae",
    "paper-examples/stdout": "d7465c2f7ceedf897fb61ad5817f90933315d43437a0eb3647a3dffdecdd8907",
    "satellite-chain-5/analyze": "8da85eee908958838fe30fb9dce640df20a172f16dc4ec1da6baf569605a1b44",
    "satellite-chain-5/classify": "02062d463925201fd467bdc031aad650b04599c314e3cb9f97aab0f38964e851",
    "satellite-chain-5/dot": "78b498ac14082ec8cdf0d99443fd9758542cfea3efb89f80c8371fbe9828d16f",
    "satellite-chain-5/fingen": "4da641fceefc5f5ae7f0b6aeeba8565e729ecf1e568cc515830e47fafe3d7a11",
    "satellite-chain-5/ideal": "8b62d46d90a736c2ecc5adf14cac9ba2e92dc71049a73d8f76f6a686bd1926a2",
    "smooth-7/atlas": "639f3e56a523225d70157a964bcb6d3f56587b9e2875919c50a2cd8664ca112b",
    "smooth-7/extremal": "d45ec388e359dc249154b800d65ba345b27fc0c7939c2d291b043651d7e924e7",
    "smooth-7/stdout": "d9e62a52904d26aa7739b0db1f559c5b56ff51a50c1abc262238c6aa03329179",
    "smooth-4/atlas": "fdbdd5871104da0763f7eb5a678584bfaa773d6052fa969ede7ffd8ec223cb9d",
    "smooth-4/extremal": "44f4e1d9d18464934d7b0da450fbce53d7c7da50068330d1e0313aabfea48e8b",
    "smooth-4/report": "9194d4ef61cda8fadfcc372ba2bbf0081e9eb3f45e280aadc2394f097a0328da",
    "smooth-4/stdout": "738d6195a93607083091bf3280d18ec5fe396bc2a9bb705144e15a579f17bd38",
}


def _golden(name: str) -> dict:
    return {key: v for key, v in GOLDEN.items() if key.startswith(f"{name}/")}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(capsys, argv) -> str:
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return out.out


def _read(path, newline) -> str:
    with path.open(encoding="utf-8", newline=newline) as fh:
        return fh.read()


def enumerate_outputs(capsys, tmp_path, name):
    args, (extra, parts, newline) = ENUMERATIONS[name]
    paths = {part: tmp_path / f"{name}.{part}" for part in parts}
    argv = ["enumerate", *args, *extra, "-f", "json"]
    for part, path in paths.items():
        argv += [f"--{part}", str(path)]
    stdout = _run(capsys, argv)
    outputs = {part: _read(path, newline) for part, path in paths.items()}
    return {"stdout": stdout, **outputs}


def _write_cluster(tmp_path, name, c):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(germ.cluster_to_json(c)))
    return path


def query_outputs(capsys, path, commands, curves):
    """Each command's JSON on --last and then on each of the given curves,
    concatenated per command."""
    selections = [["--last"]] + [["--divisor", str(e)] for e in curves]
    return {
        command: "".join(_run(capsys, [command, str(path), *sel, *extra, "-f", "json"]) for sel in selections)
        for command, extra in commands
    }


def cluster_outputs(capsys, tmp_path, name):
    c = CLUSTERS[name]
    path = _write_cluster(tmp_path, name, c)
    commands = (("analyze", []), ("classify", []), ("fingen", []), ("ideal", ["--degree", "7"]))
    return {"dot": _run(capsys, ["dot", str(path)]), **query_outputs(capsys, path, commands, range(c.curve_count()))}


def large_base_outputs(capsys, tmp_path, name):
    c, curves = LARGE_BASES[name]
    path = _write_cluster(tmp_path, name, c)
    return query_outputs(capsys, path, (("analyze", []), ("fingen", []), ("ideal", ["--degree", "7"])), curves)


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_enumerate_outputs_match_golden_digests(capsys, tmp_path, name):
    got = {f"{name}/{part}": _sha(text) for part, text in enumerate_outputs(capsys, tmp_path, name).items()}
    assert got == _golden(name)


@pytest.mark.parametrize("name", sorted(CLUSTERS))
def test_cluster_outputs_match_golden_digests(capsys, tmp_path, name):
    got = {f"{name}/{part}": _sha(text) for part, text in cluster_outputs(capsys, tmp_path, name).items()}
    assert got == _golden(name)


@pytest.mark.parametrize("name", sorted(LARGE_BASES))
def test_large_base_outputs_match_golden_digests(capsys, tmp_path, name):
    got = {f"{name}/{part}": _sha(text) for part, text in large_base_outputs(capsys, tmp_path, name).items()}
    assert got == _golden(name)


def test_columns_solved_for_the_large_queries_are_dual_to_their_curve(monkeypatch, capsys, tmp_path):
    # valuation._column takes no product with M: every column solved for the
    # large-base queries and for analyze --last on a 10,000-blowup chain
    # meets its curve negatively and every other curve in 0
    column, solved = valuation._column, []

    def recorded(c, e):
        w = column(c, e)
        solved.append((c, e, w))
        return w

    monkeypatch.setattr(valuation, "_column", recorded)
    for name in sorted(LARGE_BASES):
        large_base_outputs(capsys, tmp_path, name)
    _run(capsys, ["analyze", str(_write_cluster(tmp_path, "chain", satellite_chain(10_000))), "--last", "-f", "json"])
    assert {c.curve_count() for c, _, _ in solved} == {43, 10, 10_000}
    for c, e, w in solved:
        prod = germ.intersect(c, w)
        assert prod[e] < 0 and not any(prod[:e] + prod[e + 1 :]), (c.base.label, e)


def test_paper_examples_match_golden_digest(capsys):
    got = _sha(_run(capsys, ["paper-examples", "-f", "json"]))
    assert {"paper-examples/stdout": got} == _golden("paper-examples")
