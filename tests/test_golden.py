"""Golden CLI outputs: the sha256 of stdout and the exit code per command.

Machine-readable outputs carry no timing, so a refactor that keeps the
library's behaviour keeps every one of these hashes. A change that means to
alter an output updates its hash here and says why.
"""

import hashlib
import json

import pytest

from metadice.hierarchy import family_to_json, generate
from metadice.loshu import preset_stack

#: A depth-5 stack whose four deeper levels are all rotated.
ROTATED_STACK = """\
2,4,9;1,6,8;3,5,7
2,8,5;9,6,3;4,1,7 rot=w1
2,9,4;1,8,6;3,7,5 rot=w2
2,4,9;1,6,8;3,5,7 rot=w1
2,8,5;9,6,3;4,1,7 rot=w3
"""

#: Entry index -> (rank, new face) in the stackless uniform-4 document.
#: Together they break pairs that first differ at every level, and entry
#: 13 takes entry 14's rank-0 face, so that pair ties.
TAMPERING = {
    0: (2, "9919"),
    13: (0, "2113"),
    26: (2, "4797"),
    40: (1, "6166"),
    79: (0, "3353"),
}


def tampered_document() -> dict:
    doc = family_to_json(generate(preset_stack("uniform", 4)))
    del doc["stack"]
    for entry, (rank, face) in TAMPERING.items():
        doc["dice"][entry]["faces"][rank] = face
    return doc


def out_of_order_document() -> dict:
    doc = family_to_json(generate(preset_stack("paper-2")))
    doc["dice"][0], doc["dice"][1] = doc["dice"][1], doc["dice"][0]
    return doc


FAMILIES = [f"paper-{k}" for k in (1, 2, 3)] + [f"uniform-{k}" for k in range(1, 6)]


def _source(name):
    preset, _, depth = name.partition("-")
    if preset == "uniform":
        return ["--preset", "uniform", "--depth", depth]
    return ["--preset", name]


def _cases():
    cases = {}
    for name in FAMILIES:
        src = _source(name)
        cases[f"generate-json {name}"] = ["generate", *src, "--format", "json"]
        cases[f"normalize-csv {name}"] = ["normalize", *src, "--format", "csv"]
        cases[f"normalize-json {name}"] = ["normalize", *src, "--format", "json"]
        cases[f"verify-json {name}"] = ["verify", *src, "--format", "json"]
    for name in FAMILIES[:3]:
        src = _source(name)
        cases[f"graph-level1 {name}"] = ["graph", *src, "--level", "1"]
        cases[f"graph-full {name}"] = ["graph", *src, "--full-graph", "--format", "json"]
    rotated = ["--stack", "{rotated}"]
    cases["generate-json rotated-5"] = ["generate", *rotated]
    cases["normalize-csv rotated-5"] = ["normalize", *rotated]
    cases["normalize-json rotated-5"] = ["normalize", *rotated, "--format", "json"]
    cases["verify-json rotated-5"] = ["verify", *rotated, "--format", "json"]
    cases["graph-full rotated-5"] = ["graph", *rotated, "--full-graph"]
    for level in range(2, 6):
        cases[f"graph-level{level} rotated-5"] = ["graph", *rotated, "--level", str(level)]
    cases["graph-level2-json rotated-5"] = [
        "graph", *rotated, "--level", "2", "--format", "json"
    ]
    # the JSON producers that read no family; simulate's estimate is a float
    cases["prob-json"] = ["prob", "2,4,9", "1,4,8", "--format", "json"]
    cases["roundrobin-json"] = ["roundrobin", "4,9,2", "3,5,7", "--format", "json"]
    cases["simulate-json"] = [
        "simulate", "2,4,9", "1,6,8", "--trials", "1000", "--seed", "3",
        "--format", "json",
    ]
    tampered = ["--family", "{tampered}"]
    cases["verify-json tampered-4"] = ["verify", *tampered, "--format", "json"]
    cases["generate-json tampered-4"] = ["generate", *tampered]
    cases["normalize-csv tampered-4"] = ["normalize", *tampered]
    # a failing family: sibling labels 4/9 and 2/3, full-graph labels 2/3 and
    # 7/9, and one pair that ties
    for level in range(1, 5):
        cases[f"graph-level{level} tampered-4"] = ["graph", *tampered, "--level", str(level)]
    cases["graph-full tampered-4"] = ["graph", *tampered, "--full-graph", "--format", "json"]
    cases["generate out-of-order"] = ["generate", "--family", "{out_of_order}"]
    return cases


CASES = _cases()

#: case -> (exit code, sha256 of stdout)
GOLDEN = {
    "generate-json paper-1": (0, "f83abbe92e10b59a9da518dba00d3c6a68427231369af3456670d040ffaea1df"),
    "normalize-csv paper-1": (0, "93112e6e4cbd689fbffce687640a5ef89693ee600f8ed86fa29a617781152f39"),
    "normalize-json paper-1": (0, "c446e1ca7094ca48b8197fee5cfee58e55aeba202d437f16e46666a686a240fa"),
    "verify-json paper-1": (0, "a8359238fe48f91c66b3685b326992b88d0cde560280634f3e0d7e60bb4cce10"),
    "generate-json paper-2": (0, "48d42e35d7e152192a92855ede9ee5868fca6f4172746509115982e08a3f1927"),
    "normalize-csv paper-2": (0, "6b9e0a2c44cc9afbcb53e2fc9d7a3ad8af8dd8fb4fd8e6a533c2d23a5112412c"),
    "normalize-json paper-2": (0, "da38ea3f0a0a3cd677a36afc303049791b75b0f427ee6e5d9d80dbe912ec6d41"),
    "verify-json paper-2": (0, "14269c60c0cd7bf40a24b5d895ef0ad71210efadc56a7e92bfe43cebf4610a43"),
    "generate-json paper-3": (0, "5e112eb3d452d5522df005e635a75ecf804e3866961e3d5257d00d10103ebafe"),
    "normalize-csv paper-3": (0, "b1cb56be38456441737c80f563a006ecf8c66252ce83df9d39179494fd4e5b32"),
    "normalize-json paper-3": (0, "eeb14b4ef2472d952d4d2974492d3ed647d9b3458d483eacf66cffaae29eb4a8"),
    "verify-json paper-3": (0, "d71cbd30eb3deed776a050e4a7a36757de1de350d3117e0d3d44a46eba2abbfc"),
    "generate-json uniform-1": (0, "f83abbe92e10b59a9da518dba00d3c6a68427231369af3456670d040ffaea1df"),
    "normalize-csv uniform-1": (0, "93112e6e4cbd689fbffce687640a5ef89693ee600f8ed86fa29a617781152f39"),
    "normalize-json uniform-1": (0, "c446e1ca7094ca48b8197fee5cfee58e55aeba202d437f16e46666a686a240fa"),
    "verify-json uniform-1": (0, "a8359238fe48f91c66b3685b326992b88d0cde560280634f3e0d7e60bb4cce10"),
    "generate-json uniform-2": (0, "48d42e35d7e152192a92855ede9ee5868fca6f4172746509115982e08a3f1927"),
    "normalize-csv uniform-2": (0, "6b9e0a2c44cc9afbcb53e2fc9d7a3ad8af8dd8fb4fd8e6a533c2d23a5112412c"),
    "normalize-json uniform-2": (0, "da38ea3f0a0a3cd677a36afc303049791b75b0f427ee6e5d9d80dbe912ec6d41"),
    "verify-json uniform-2": (0, "14269c60c0cd7bf40a24b5d895ef0ad71210efadc56a7e92bfe43cebf4610a43"),
    "generate-json uniform-3": (0, "87b03c63970bfea12041c5e74711f9851c536635e5090b620b9c419976e38d92"),
    "normalize-csv uniform-3": (0, "f88538fb8750ff8385d2919216448fb735449197b554ce4f8c1696795516ae16"),
    "normalize-json uniform-3": (0, "22d8bb29cc6fc236ed5cb58c6f80008fcd1f0ab2d50c89abbfcb3c6e86d13d7f"),
    "verify-json uniform-3": (0, "d71cbd30eb3deed776a050e4a7a36757de1de350d3117e0d3d44a46eba2abbfc"),
    "generate-json uniform-4": (0, "f9a14ffe1b1628267082c1ea6c4127691905a77e484a8ecc6d6150dbd50700fe"),
    "normalize-csv uniform-4": (0, "2af238677aa05cc7009fe7fcf0a35c69f9838d1908ed0b02599afc9be35a522c"),
    "normalize-json uniform-4": (0, "a3dcc7f83a62fd414e068dd1356e3510816f0dd73042697026074fdc8eb3f330"),
    "verify-json uniform-4": (0, "4c7864b9153427c60efa299d4b7ae0379acb87d0cbc32371dab97d034caf9558"),
    "generate-json uniform-5": (0, "77c107ebe18ed5ebd3dacb2ea7daf6449651ff3f6fc8e354fc0066405da6ac4f"),
    "normalize-csv uniform-5": (0, "6fe8fa70202c0d1b425aa8997733bb30807b22c2652923bca316fc4dc9a550b8"),
    "normalize-json uniform-5": (0, "0abb5e5799654f18290419b3f5540f3e0d485f383ca98581dea2613f7c77453b"),
    "verify-json uniform-5": (0, "f02ff64447c8a518941f54b03ffb1707d49b064eddc0e812ef955f23264f4748"),
    "graph-level1 paper-1": (0, "03a2a892b56093948056acbcf71a989f4608b486407f02858cfef8a00cb9ac45"),
    "graph-full paper-1": (0, "de5eaeda9cff44a3d8b72a4036a6c30cfdbcd98388409e763347374029269c24"),
    "graph-level1 paper-2": (0, "1a9f133bad1cf949987135ae1cb300f9b1dff8e1653f1af2d79a32746245a529"),
    "graph-full paper-2": (0, "9595290412b919f0a0f8b7badfda72ebf9011f95992bf7fdf52b460f58f74d4f"),
    "graph-level1 paper-3": (0, "1a9f133bad1cf949987135ae1cb300f9b1dff8e1653f1af2d79a32746245a529"),
    "graph-full paper-3": (0, "f762f5ecd64da79f419ec70bfe19fc92404ecebae4308e402f0fc6dd4573e748"),
    "generate-json rotated-5": (0, "6c58e9cd50a1f6eae407094679b738164a69e698f456f9be1ce2a131bfe2f052"),
    "normalize-csv rotated-5": (0, "59f9ece7706e801b9600297e1bbdb63a068b8984d0384c37e4c607f95be27719"),
    "normalize-json rotated-5": (0, "8ada6611387a22ff0dfa3c9b2d1e25a2fac4486183df15c3c7e2bbe72ba07967"),
    "verify-json rotated-5": (0, "f02ff64447c8a518941f54b03ffb1707d49b064eddc0e812ef955f23264f4748"),
    "graph-full rotated-5": (0, "7835bbfddef7f38b82b03beae6ded44d5e67707c99ffb060144317e086315f33"),
    "graph-level2 rotated-5": (0, "383e90da3ab10b7f2c27ab18a5a30191a6fd9b57da01cb538c1266975caee480"),
    "graph-level3 rotated-5": (0, "a629258dca406ab845aaf1187971b8d5164356b0ec3e45d30be88cd5bde9c10b"),
    "graph-level4 rotated-5": (0, "119a38c9abe24431d8308ce07571efe9fb7f5ca05bab6495a64f8146db3c9849"),
    "graph-level5 rotated-5": (0, "34961c171aa7adf42746026329662440d45091f8230a5d9f5def04dd10ad1d8e"),
    "graph-level2-json rotated-5": (0, "c1f2e8b7c4027e78cf3c22d66015cb16b7477a99be48d96b3ce795739354b479"),
    "prob-json": (0, "c90c0bc4bf31958f9e92e7de9e8eb9fdaf1516257ceb4b6b2becab950774d90c"),
    "roundrobin-json": (0, "9d224baa6efa316adcab3ec60b3e7811ff9a28519f8a5f2fe37462f5de71f67f"),
    "simulate-json": (0, "0fb5a6e35a66344037b0bbaed98d69e291cbf0998a5b98c5c7428d6b4b29a09f"),
    "verify-json tampered-4": (1, "69cd15de1d85bf9a2363d506d968c5d4751bd320f2c2b1649dd6ad58cd267888"),
    "generate-json tampered-4": (0, "af58903265cae9f757bba14aaef75d81031969d644f69c8fd1f702318f68df7f"),
    "normalize-csv tampered-4": (0, "3a8592ec2bd1f9ebefa4b6dd7681eeba21af16c259b7c9a14e22795b3241f5ed"),
    "graph-level1 tampered-4": (0, "1a9f133bad1cf949987135ae1cb300f9b1dff8e1653f1af2d79a32746245a529"),
    "graph-level2 tampered-4": (0, "383e90da3ab10b7f2c27ab18a5a30191a6fd9b57da01cb538c1266975caee480"),
    "graph-level3 tampered-4": (0, "bb8d946d168af1fa1dc79b84c124a9805934f6a18997fa52088451f377336278"),
    "graph-level4 tampered-4": (0, "de90cc71397ba7126dd934d9e76ec3fc665b95229431d7a2686a6424d301a141"),
    "graph-full tampered-4": (0, "acf93a6b41d797b80bb33975d4f2750cb298bd3c6678fb87e2a1fa5d5a325303"),
    "generate out-of-order": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {
        "rotated": root / "rotated.txt",
        "tampered": root / "tampered.json",
        "out_of_order": root / "out_of_order.json",
    }
    paths["rotated"].write_text(ROTATED_STACK)
    paths["tampered"].write_text(json.dumps(tampered_document()))
    paths["out_of_order"].write_text(json.dumps(out_of_order_document()))
    return {key: str(path) for key, path in paths.items()}


def run_case(run, argv, inputs):
    code, out, _ = run([arg.format(**inputs) for arg in argv])
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(run_cli, inputs, case):
    assert run_case(run_cli, CASES[case], inputs) == GOLDEN[case]
