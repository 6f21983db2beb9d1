"""Frozen result bytes of a fixed set of CLI runs.

Each case runs `cli.main` in-process with `--out` and compares the sha256
of every file the run wrote against recorded digests.  The transcripts
were recorded before the L1-L2 refactor that merged the bracket-deepening
loops, the timing law and the numeric helpers; the kernel-path
`estimate-kernel` case before the optional compiled counting engine was
retired, `grid-exact-timeout` before the grid sweep summed its simulated
time in closed form, and `bisection-arbitrary-interrupt` before the
probed decision, the clock reading and the mass draw went to integers.
The report, estimate and manifest digests were recorded again when the
config block lost the key that chose what a timeout does, the one line
by which those files moved.  Any change to a transcript, report, estimate, advice
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
    # an exact-target sweep with non-default K and c_setup:
    # the grid point 1/16 times out and the sweep reads on past it
    "grid-exact-timeout": ["measure", "--mass", "dyadic:8193/131072",
                           "--procedure", "grid", "--level", "4", "--wait", "full",
                           "--K", "3/2", "--c-setup", "2/3", "--seed", "0"],
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
            "d467b4ded9584d1d16c5e2587f3a7bc89c40308619b401024bfd50bec01a3e55",
        "report.json":
            "a81383a96e5e40cedcc8c5ea20fd70ad62409ad2f6941e1285224c38acf3dc89",
        "transcript.jsonl":
            "0db06510d4559444a57e4ce3bf095cd1175736a03fb115eb789318f42ffa36b2",
    },
    "bisection-arbitrary-interrupt": {
        "manifest.json":
            "6d86ee449bc81e574ebcda11e2a7f41f4417ba059a41f4b3bfda2bc41c661356",
        "report.json":
            "47779678498b92294339b18ecfe2880bff0a1c7efcc1213a050419ace239f841",
        "transcript.jsonl":
            "55ff003caea4f27e13db56000fe7c2fd0c40c66f47d608b35fe312814d574529",
    },
    "bisection-interrupt": {
        "manifest.json":
            "706e5f211d4c35c3e567cceb2aff633ac5fb661103a01f37e1f3646dd9b8f65a",
        "report.json":
            "3f35e49b5a717b4ea02a1772da4ab2c7f9fcb2b3e0058cec695e4c8b17bf8843",
        "transcript.jsonl":
            "297836d7b87a1c67b0ce5f1221038735fbac1981dbe0f39bf33a579c7708ee1f",
    },
    "bisection-kinematic": {
        "manifest.json":
            "96721d0f9c7d9f8f83254045c5bce67dcd1f472f3e5f48b33331a047be6101eb",
        "report.json":
            "c61bd18bd92ffffecf5b5fb8ab4981bea3ac665edcc9eef9261b0eff206e3142",
        "transcript.jsonl":
            "6aa921992f81ed06f6436d12f34ce360b801014a3a6c0f0359da6056565e2ffd",
    },
    "bisection-rational-kinematic": {
        "manifest.json":
            "1577bb867cd484d38ed5d94a8a230e49d9c9400b072834cb77412d7b4b794807",
        "report.json":
            "9ae3f788da35ec9407a4046c08e69d26f899ffe454fe1bd9f1481acdf9827784",
        "transcript.jsonl":
            "4ffb637a47e437abac49b235af466dfd3106cc907d51d9e7c993ba8240e6ec7c",
    },
    "estimate": {
        "estimate.json":
            "946be45624f7f6a08f208c4d909f1656e756acbc10ad1490ce0a3ee563fc4ed6",
        "manifest.json":
            "e1afc51de3b65f4a3052ea169f2120b3b3d1c6493202243c3f4d81e076ec194e",
        "transcript.jsonl":
            "2c21f92912e9126fc6277434f8267571bf64de689b8e84e5baaad0e9889db0de",
    },
    "estimate-kernel": {
        "estimate.json":
            "d84a40369f614166dd315aa004fc6d59f3bc8813b80598b2f1c7c52f423f412f",
        "manifest.json":
            "c2ab4b7f0681dfc0ef799c917121ca4d43424839272cf069410b1136fc95717e",
        "transcript.jsonl":
            "c5e4f27c6bfe2167569318bdec3ad85ee061b9d98e2e875dacb10fcf7e70eb96",
    },
    "grid": {
        "manifest.json":
            "77d8fc88585060738feb069faa5c5fa452c0e238b07875c208e147783c950ad2",
        "report.json":
            "394e5d9f08695bba1bac55addee13eca87786877ee50cc7c66294761f1b85627",
        "transcript.jsonl":
            "642e98abf45cf66bb8248b6b34ae8671bbac0a9fb8a0639c07e02177f6bc96db",
    },
    "grid-exact-timeout": {
        "manifest.json":
            "40e7c97d2486822fd97b55dacb68f4173db182540166ada2d4d5f65b298b8962",
        "report.json":
            "ae515c3c1ed80357a09a9e73b8c50cd1e7e79704f30592bbb9a18fc76ea56349",
        "transcript.jsonl":
            "a524ff6e6e6d9c425a9829e0ee5dc275b226830e6fea2e69f4fcb2ce2221b31c",
    },
}


def _digests(name):
    """The sha256 of each file that case `name` writes, run in the current
    directory."""
    with open("table.tsv", "w", encoding="utf-8") as fh:
        fh.write("# alphabet=binary\n0\t\n1\t1\n2\t10\n4\t101\n")
    main(CASES[name] + ["--out", "out"])
    digests = {}
    for fname in sorted(os.listdir("out")):
        with open(os.path.join("out", fname), "rb") as fh:
            digests[fname] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digests(name) == GOLDEN[name]


if __name__ == "__main__":
    # `PYTHONPATH=src python tests/test_golden_outputs.py` prints the current
    # digests in GOLDEN's layout, to paste over GOLDEN after a deliberate
    # byte move; the test itself compares against the committed dict
    import contextlib
    import io
    import tempfile

    home = os.getcwd()
    print("GOLDEN = {")
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            os.chdir(tmp)
            found = _digests(case)
            os.chdir(home)
        print(f'    "{case}": {{')
        for fname, digest in found.items():
            print(f'        "{fname}":\n            "{digest}",')
        print("    },")
    print("}")
