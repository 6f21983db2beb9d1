"""Frozen result bytes of a fixed set of CLI runs.

Each case runs `cli.main` in-process with `--out` and compares the sha256
of every file the run wrote against digests recorded before the L1-L2
refactor that merged the bracket-deepening loops, the timing law and the
numeric helpers; the kernel-path `estimate-kernel` case was recorded
before the optional compiled counting engine was retired, and
`grid-exact-abort` before the grid sweep summed its simulated time in
closed form, and `bisection-arbitrary-interrupt` before the probed
decision, the clock reading and the mass draw went to integers.  Any change to a transcript, report, estimate, advice
payload or manifest byte shows up here.  The runs are relative to a
temporary working directory so no absolute path reaches a result file.
"""

import hashlib
import os

import pytest

from collidersim.cli import main

PATTERN_BISECTION = ["measure", "--mass", "pattern:3,2,4", "--digits", "120",
                     "--schedule", "exp:k=6", "--seed", "7"]

CASES = {
    "bisection-interrupt": PATTERN_BISECTION,
    "bisection-kinematic": PATTERN_BISECTION + ["--timing", "kinematic",
                                                "--N", "1/16"],
    "bisection-arbitrary-full": PATTERN_BISECTION + ["--mode", "arbitrary",
                                                     "--wait", "full"],
    # drawn masses, jitter and kinematic clock readings of answered queries
    "bisection-arbitrary-interrupt": PATTERN_BISECTION + [
        "--mode", "arbitrary", "--timing", "kinematic", "--N", "1/16",
        "--K", "3/2"],
    # an exactly-known target takes the closed-form arrival path
    "bisection-rational-kinematic": ["measure", "--mass", "rational:5/7",
                                     "--digits", "30", "--schedule", "exp:k=3",
                                     "--timing", "kinematic", "--seed", "1"],
    "grid": ["measure", "--mass", "pattern:3,2,4", "--procedure", "grid",
             "--level", "5", "--wait", "full", "--seed", "0"],
    # an exact-target sweep with non-default K and c_setup under abort:
    # the grid point 1/16 times out and the sweep reads on past it
    "grid-exact-abort": ["measure", "--mass", "dyadic:8193/131072",
                         "--procedure", "grid", "--level", "4", "--wait", "full",
                         "--K", "3/2", "--c-setup", "2/3",
                         "--on-timeout", "abort", "--seed", "0"],
    # an embedded pattern parameter has no exact value, so the estimator
    # runs the per-trial engine
    "estimate": ["estimate", "--mass", "pattern:2,1,3", "--k", "1",
                 "--delta", "3/4", "--epsilon", "1/8", "--seed", "3"],
    # an exactly-known rational target runs the lane-packed counting kernel
    "estimate-kernel": ["estimate", "--mass", "rational:443/896", "--k", "2",
                        "--epsilon", "1/64", "--seed", "5"],
    "advice": ["advice", "--table", "table.tsv", "--digits", "200",
               "--word-length", "3"],
}

GOLDEN = {
    "advice": {
        "advice.json":
            "693eca3717f9ce0ead45318f0a68a5527040ec736237cd2e98cee5202f894196",
        "manifest.json":
            "4bf4fa6b5f39cc201e96762028e27c051b087590af0eece012c9d27607279441",
    },
    "bisection-arbitrary-full": {
        "manifest.json":
            "5d1f4ff7476cd1a80577dc7fb59ef13e7dc7bd3bcf3fba519db727e5199eceec",
        "report.json":
            "5e8ab4e1c153e1765866938ff2d4477ceb84209d5406d5da01215277100c2704",
        "transcript.jsonl":
            "0db06510d4559444a57e4ce3bf095cd1175736a03fb115eb789318f42ffa36b2",
    },
    "bisection-arbitrary-interrupt": {
        "manifest.json":
            "b7c8e35b7d21fa482ea405c5205807f6cf961da9e0029e612d0160a3c6bc535d",
        "report.json":
            "7464176b7a011b625f8ff22a24e0b06a63b748b81589b3e9a10163eaa601715d",
        "transcript.jsonl":
            "55ff003caea4f27e13db56000fe7c2fd0c40c66f47d608b35fe312814d574529",
    },
    "bisection-interrupt": {
        "manifest.json":
            "06de3c8d7b39a56537f1ab6f4f687abc4d6d4e8637b5802ba3552d1afca9d1cb",
        "report.json":
            "432619db0afc1fbec2564e0dc2426edd8ce461de78e8870bd14aacb2b1fec970",
        "transcript.jsonl":
            "297836d7b87a1c67b0ce5f1221038735fbac1981dbe0f39bf33a579c7708ee1f",
    },
    "bisection-kinematic": {
        "manifest.json":
            "deb25d0883a2f554b1c3f6cf326680721173b36c57b32d85432b2a3de09be42e",
        "report.json":
            "22bd9ce616f72f73ab0c307eb95adb642a975ad62c34887452991dc5f390474e",
        "transcript.jsonl":
            "6aa921992f81ed06f6436d12f34ce360b801014a3a6c0f0359da6056565e2ffd",
    },
    "bisection-rational-kinematic": {
        "manifest.json":
            "b5853621bf806522b54b67731060811d07f78b76daaa319e3c04a691b96a39be",
        "report.json":
            "663dedd246269f143b0ed21c09581cbff810f1317616d0b176b7e09c2a4b103b",
        "transcript.jsonl":
            "4ffb637a47e437abac49b235af466dfd3106cc907d51d9e7c993ba8240e6ec7c",
    },
    "estimate": {
        "estimate.json":
            "866d48578a0f59441e585944780addca2f25549f6596e57cd6739c114438825a",
        "manifest.json":
            "809dd32149ae2305551e90a98b615c99b6df2225b662ea62c9687ddf156c4743",
        "transcript.jsonl":
            "2c21f92912e9126fc6277434f8267571bf64de689b8e84e5baaad0e9889db0de",
    },
    "estimate-kernel": {
        "estimate.json":
            "a84dfd1f505f2101c840aca6a7e2ebfc065e9212493ee2c5a676ff97b47b09d3",
        "manifest.json":
            "906704ecd038b62b45e671365d499fa6974e2577dc57321154bd4dbf3cd213f0",
        "transcript.jsonl":
            "c5e4f27c6bfe2167569318bdec3ad85ee061b9d98e2e875dacb10fcf7e70eb96",
    },
    "grid": {
        "manifest.json":
            "dbd9cda532c179b30997369d79dc4be29adf80951e706e73f84bd45f30cd645d",
        "report.json":
            "5269bafefa07111efa96c281877d8932a5ca959ccce635e3799a41a955867e31",
        "transcript.jsonl":
            "642e98abf45cf66bb8248b6b34ae8671bbac0a9fb8a0639c07e02177f6bc96db",
    },
    "grid-exact-abort": {
        "manifest.json":
            "92090f9aa12529c3b4bbc5a81a3095541707b8fd53421b5b70edcea7271fc886",
        "report.json":
            "e78bb6ac278d7592c4d4f5a00b8f0ec0e03b10b68a5f2367a7f39b489687c24d",
        "transcript.jsonl":
            "a524ff6e6e6d9c425a9829e0ee5dc275b226830e6fea2e69f4fcb2ce2221b31c",
    },
}


def _run(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.tsv").write_text(
        "# alphabet=binary\n0\t\n1\t1\n2\t10\n4\t101\n", encoding="utf-8")
    main(CASES[name] + ["--out", "out"])
    capsys.readouterr()
    digests = {}
    for fname in sorted(os.listdir(tmp_path / "out")):
        data = (tmp_path / "out" / fname).read_bytes()
        digests[fname] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_bytes(name, tmp_path, monkeypatch, capsys):
    assert _run(name, tmp_path, monkeypatch, capsys) == GOLDEN[name]
