"""The four benchmark workloads: inputs from a seed, one op, exact checks.

Each workload builds a pool of inputs from the seed (that is its set-up),
runs op i on pool entry i % POOL through a public entry point of the
package, and checks the op's output with code that does not reuse the
package's own logic for the quantity being checked.

The mix of op shapes is fixed and does not depend on the seed, so that
the quantiles of op time are steady from seed to seed; the seed changes
only the values (parameters, targets, patterns, tables, per-op seeds).
Where a workload has a cheap and a dear op shape, they are mixed 3:1 and
not 1:1: the median of an even two-mode mix falls in the gap between the
modes and swings from run to run with the last few ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
from fractions import Fraction

from collidersim import cli, harness, kernels, procedures, rng, sources
from collidersim.dyadic import Dyadic
from collidersim.oracle import (CollisionOracle, OracleConfig, PrecisionMode,
                                WaitPolicy)

POOL = 64          # distinct inputs per run; op i uses entry i % POOL
PREFIX_TRIALS = 2000  # estimator trials recounted by direct Fraction arithmetic
M64 = (1 << 64) - 1


def _fmt(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _pick(d: dict, *keys) -> dict:
    return {key: d.get(key) for key in keys}


class Workload:
    """Base: subclasses set `name` and implement the hooks below."""

    name = "abstract"

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.rand = random.Random(f"{self.name}:{seed}")
        self.pool = [self.make_input(i) for i in range(POOL)]

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, i: int):
        """Op i: one procedure call or one CLI invocation. Timed."""
        raise NotImplementedError

    def check(self, i: int, result) -> list:
        """Error strings; empty when the output is correct."""
        raise NotImplementedError

    def digits(self, i: int, result) -> int:
        """Verified output digits of a correct op."""
        raise NotImplementedError

    def semantic(self, i: int, result):
        """JSON-able result fields that name the result, not the build."""
        raise NotImplementedError

    def transcript_bytes(self, result) -> bytes:
        """Bytes a replay of the same op must reproduce exactly."""
        raise NotImplementedError

    def bytes_written(self, result) -> int:
        return 0


# -- library-driven workloads ---------------------------------------------


class EstimateExact(Workload):
    """harness.estimate_digits on an exactly-known rational parameter.

    The only workload that reaches the counting kernel: more than 95% of
    an op is kernels.count_outcomes.
    """

    name = "estimate-exact"
    EPSILON = Fraction(1, 64)
    DELTA = Fraction(1, 4)

    def make_input(self, i):
        q = self.rand.randrange(3, 256, 2)   # odd q: s is never dyadic
        s = Fraction(self.rand.randrange(1, q), q)
        small, large = (1, 2) if self.smoke else (2, 3)
        k = large if i % 4 == 3 else small
        cfg = OracleConfig(mode=PrecisionMode.FIXED, epsilon=self.EPSILON,
                           wait_policy=WaitPolicy.FULL_BUDGET,
                           seed=rng.derive_seed(self.seed, i))
        source = harness.embed_parameter(
            sources.from_rational(s.numerator, s.denominator), self.EPSILON)
        return k, s, cfg, source

    def run(self, i):
        k, _, cfg, source = self.pool[i % POOL]
        oracle = CollisionOracle(source, cfg)
        return harness.estimate_digits(oracle, k, self.DELTA), oracle

    def check(self, i, result):
        est, oracle = result
        k, s, cfg, _ = self.pool[i % POOL]
        eps, K = self.EPSILON, cfg.K
        errors = []
        zeta = math.floor(3 * (1 << (2 * k + 10)) / (4 * self.DELTA)) + 1
        budget = 4 * K / eps
        counts = (est.n_lesser, est.n_greater, est.n_timeout)
        if est.zeta != zeta or sum(counts) != zeta:
            errors.append(f"zeta {est.zeta}, counts {counts}, expected {zeta}")
        x = 2 * est.n_lesser + est.n_timeout
        s_hat = Fraction(x, zeta) - Fraction(1, 2)
        val = min(math.floor(min(max(s_hat, 0), 1) * (1 << k)), (1 << k) - 1)
        if (est.statistic, est.s_hat, est.digits) != (x, s_hat, format(val, f"0{k}b")):
            errors.append("statistic, s_hat or digits do not follow from the counts")
        batch = oracle.transcript[0]
        if (len(oracle.transcript) != 1 or batch.elapsed_total != budget * zeta
                or (batch.n_lesser, batch.n_greater, batch.n_timeout) != counts):
            errors.append("batch record disagrees with the estimate")
        # ten standard deviations of the mean of X, whose variance is <= 3/4
        if (s_hat - s) ** 2 * zeta > 75:
            errors.append(f"s_hat {s_hat} is far from s {s}")

        # Recount a prefix of the batch draw by draw, in Fractions, and
        # require every counting engine to agree with it on that prefix.
        mu = Fraction(1, 2) - eps / 2 + s * eps
        eta = K / budget
        z = Fraction(1, 2)
        n = min(PREFIX_TRIALS, zeta)
        less = great = 0
        for t in range(n):
            m_star = z - eps + 2 * eps * Fraction(rng.raw64(cfg.seed, 0, 2 * t), 1 << 64)
            if m_star < mu - eta:
                less += 1
            elif m_star > mu + eta:
                great += 1
        r_lo, r_hi = kernels.thresholds(z, eps, mu, eta)
        for name, count in sorted(kernels.engines().items()):
            got = count(cfg.seed & M64, 0, n, r_lo, r_hi - 1)
            if got != (less, great):
                errors.append(f"{name} counts {got} on the first {n} trials, "
                              f"direct recount {(less, great)}")
            # every other engine recounts the whole batch on the first op
            if i == 0 and name != est.engine:
                full = count(cfg.seed & M64, 0, zeta, r_lo, r_hi - 1)
                if full != (est.n_lesser, est.n_greater):
                    errors.append(f"{name} counts {full}, {est.engine} "
                                  f"{(est.n_lesser, est.n_greater)}")
        return errors

    def digits(self, i, result):
        return result[0].k

    def semantic(self, i, result):
        est, oracle = result
        # the engine name says which build counted, not what was counted
        return {"estimate": _pick(est.to_dict(), "k", "delta", "zeta", "counts",
                                  "statistic", "s_hat", "digits"),
                "batch": _pick(oracle.transcript[0].to_dict(), "z", "budget", "zeta",
                               "answer", "elapsed", "setup", "epsilon")}

    def transcript_bytes(self, result):
        est, oracle = result
        recs = [r.to_dict() for r in oracle.transcript] + [est.to_dict()]
        return json.dumps(recs, sort_keys=True).encode()


class GridExact(Workload):
    """procedures.grid_sweep at level r on 64-bit dyadic targets.

    Every query takes the closed-form path of oracle.query; no digit is
    materialised and no kernel runs.
    """

    name = "grid-exact"

    def make_input(self, i):
        num = self.rand.getrandbits(64) | 1
        r = 4 if self.smoke else 8
        return r, num, sources.from_dyadic(Dyadic(num, 64))

    def run(self, i):
        r, _, source = self.pool[i % POOL]
        oracle = CollisionOracle(source, OracleConfig(wait_policy=WaitPolicy.FULL_BUDGET))
        return procedures.grid_sweep(oracle, r), oracle

    def check(self, i, result):
        rep, oracle = result
        r, num, _ = self.pool[i % POOL]
        target = Fraction(num, 1 << 64)
        budget = Fraction(1 << (2 * r + 1))      # K = 1
        window = 1 / budget
        close = [p for p in range((1 << r) + 1)
                 if abs(Fraction(p, 1 << r) - target) <= window]
        errors = []
        if rep.complete == bool(close):
            errors.append(f"complete={rep.complete} but grid points within "
                          f"K/budget: {close}")
        expected = format(num >> (64 - r), f"0{r}b") if not close else ""
        if rep.digits != expected:
            errors.append(f"digits {rep.digits!r}, expected {expected!r}")
        if close and rep.details.get("grid_timeouts") != close:
            errors.append(f"timeouts {rep.details.get('grid_timeouts')}, expected {close}")
        if rep.total_time != ((1 << r) + 1) * budget:
            errors.append(f"total_time {rep.total_time}")
        if len(oracle.transcript) != (1 << r) + 1:
            errors.append(f"{len(oracle.transcript)} queries")
        return errors

    def digits(self, i, result):
        return len(result[0].digits)

    def semantic(self, i, result):
        rep, oracle = result
        queries = [[q.word, _fmt(q.budget), str(q.outcome), _fmt(q.elapsed),
                    _fmt(q.setup)] for q in oracle.transcript]
        return {"report": _pick(rep.to_dict(), "status", "digits", "total_time",
                                "total_setup", "stage_elapsed", "details"),
                "queries": queries}

    def transcript_bytes(self, result):
        rep, oracle = result
        recs = [q.to_dict() for q in oracle.transcript] + [rep.to_dict()]
        return json.dumps(recs, sort_keys=True).encode()


# -- CLI-driven workloads ---------------------------------------------------


class CliResult:
    """Exit code, captured stdout and the bytes of every file in --out."""

    def __init__(self, code: int, stdout: str, files: dict):
        self.code = code
        self.stdout = stdout
        self.files = files

    def json(self, name: str):
        return json.loads(self.files[name])


class CliWorkload(Workload):
    def __init__(self, seed, workdir, smoke=False):
        self.out = os.path.join(workdir, "out")
        super().__init__(seed, workdir, smoke)

    def argv(self, i) -> list:
        raise NotImplementedError

    def run(self, i):
        shutil.rmtree(self.out, ignore_errors=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv(i) + ["--out", self.out])
        files = {}
        if os.path.isdir(self.out):
            for name in sorted(os.listdir(self.out)):
                with open(os.path.join(self.out, name), "rb") as fh:
                    files[name] = fh.read()
        return CliResult(code, buf.getvalue(), files)

    def check_files(self, result) -> list:
        """Exit code 0 and a manifest whose sha256 values match the files."""
        if result.code != 0:
            return [f"exit code {result.code}"]
        if "manifest.json" not in result.files:
            return ["no manifest.json"]
        hashes = result.json("manifest.json")["files"]
        errors = []
        if set(hashes) != set(result.files) - {"manifest.json"}:
            errors.append(f"manifest lists {sorted(hashes)}, wrote {sorted(result.files)}")
        for name, digest in hashes.items():
            if hashlib.sha256(result.files.get(name, b"")).hexdigest() != digest:
                errors.append(f"sha256 of {name} does not match the manifest")
        return errors

    def transcript_bytes(self, result):
        return b"".join(name.encode() + b"\0" + data + b"\0"
                        for name, data in sorted(result.files.items()))

    def bytes_written(self, result):
        return sum(len(data) for data in result.files.values())


def pattern_digits(runs: list, n: int) -> str:
    """First n digits of 0.1^u1 0^u2 1^u3 ... with the run list cycled."""
    out = []
    k = 0
    while len(out) < n:
        out.append(("1" if k % 2 == 0 else "0") * runs[k % len(runs)])
        k += 1
    return "".join(out)[:n]


class BisectStream(CliWorkload):
    """`collidersim measure` by bisection of run-length pattern masses.

    Pattern masses have no exact value, so every query certifies its
    answer from a digit bracket; interrupt billing adds clock
    certification, arbitrary precision adds rng draws. Runs of at most 4
    keep the mass more than 2**-(n+5) from every stage-n dyadic, so the
    default per-stage tolerance cannot flip a comparison and exp:k=6
    outwaits every arrival: every op completes.
    """

    name = "bisect-stream"
    # errorfree/arbitrary alternate; full-budget and interrupt billing 3:1
    MODES = [("errorfree", "full"), ("arbitrary", "full")] * 3 + \
            [("errorfree", "interrupt"), ("arbitrary", "interrupt")]

    def make_input(self, i):
        runs = [self.rand.randint(1, 4) for _ in range(self.rand.randint(4, 12))]
        return runs, (60 if self.smoke else 400)

    def argv(self, i):
        runs, n = self.pool[i % POOL]
        mode, wait = self.MODES[i % len(self.MODES)]
        return ["measure", "--mass", f"pattern:{','.join(map(str, runs))};tail=cycle",
                "--digits", str(n), "--schedule", "exp:k=6", "--mode", mode,
                "--wait", wait, "--seed", str(rng.derive_seed(self.seed, i))]

    def check(self, i, result):
        errors = self.check_files(result)
        if errors:
            return errors
        runs, n = self.pool[i % POOL]
        report = result.json("report.json")["result"]
        expected = pattern_digits(runs, n)
        if report["status"] != f"complete:{n}":
            errors.append(f"status {report['status']}")
        if report["digits"] != expected:
            errors.append("digits differ from the pattern's expansion")
        if result.files["transcript.jsonl"].count(b"\n") != n:
            errors.append("transcript does not hold one query per digit")
        return errors

    def digits(self, i, result):
        return len(result.json("report.json")["result"]["digits"])

    def semantic(self, i, result):
        report = _pick(result.json("report.json")["result"], "status", "digits",
                       "total_time", "total_setup", "stage_elapsed")
        queries = [_pick(json.loads(line), "z", "budget", "answer", "elapsed",
                         "setup", "epsilon")
                   for line in result.files["transcript.jsonl"].splitlines()]
        return {"report": report, "queries": queries}


def advice_value(table: list, n: int) -> str:
    """f(n) of a step table: the value at the largest key <= n."""
    value = ""
    for key, bits in table:
        if key <= n:
            value = bits
    return value


def advice_encoding(table: list, n_digits: int) -> str:
    """Triple code (0 -> 100, 1 -> 010) with a 001 after each power of two."""
    code = {"0": "100", "1": "010"}
    prev = advice_value(table, 0)
    out = ["".join(code[b] for b in prev)]
    length = len(out[0])
    j = 0
    while length < n_digits:
        cur = advice_value(table, 1 << j)
        chunk = "".join(code[b] for b in cur[len(prev):]) + "001"
        out.append(chunk)
        length += len(chunk)
        prev = cur
        j += 1
    return "".join(out)[:n_digits]


class AdviceDigits(CliWorkload):
    """`collidersim advice` materialising 20k-40k digits of an encoded table.

    Deep MassSource materialisation plus the advice codec, with no oracle
    queries. The depth of op i steps through 15 evenly spaced values in a
    fixed order, so every run holds each depth equally often (give or
    take one op) and, with an odd number of depths, the median and p90
    fall in the middle of a depth, not between two.
    """

    name = "advice-digits"
    DEPTHS = 15

    def depth(self, i: int) -> int:
        lo, hi = (2000, 4000) if self.smoke else (20000, 40000)
        return lo + (hi - lo) * ((7 * i) % self.DEPTHS) // (self.DEPTHS - 1)

    def make_input(self, i):
        keys = sorted(self.rand.sample(range(1, 200), self.rand.randint(2, 6)))
        bits = ""
        table = []
        for key in keys:
            bits += "".join(self.rand.choice("01") for _ in range(self.rand.randint(1, 4)))
            table.append((key, bits))
        word_length = self.rand.randint(1, 1024)
        path = os.path.join(self.workdir, f"table-{i}.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key}\t{value}\n" for key, value in table)
        return table, word_length, path

    def argv(self, i):
        _, word_length, path = self.pool[i % POOL]
        return ["advice", "--table", path, "--digits", str(self.depth(i)),
                "--word-length", str(word_length)]

    def check(self, i, result):
        errors = self.check_files(result)
        if errors:
            return errors
        table, word_length, _ = self.pool[i % POOL]
        payload = result.json("advice.json")
        if payload.get("digits") != advice_encoding(table, self.depth(i)):
            errors.append("digits differ from the triple-code encoding")
        m = (word_length - 1).bit_length()
        b = len(table[-1][1])          # growth pair inferred from the table: a=0
        bound = 3 * b + 3 * (m + 1)
        decoded = payload.get("decoded", {})
        if decoded.get("advice") != advice_value(table, 1 << m):
            errors.append(f"decoded advice {decoded.get('advice')!r}, "
                          f"expected f(2**{m}) = {advice_value(table, 1 << m)!r}")
        if decoded.get("read_bound") != bound or decoded.get("digits_consumed", bound + 1) > bound:
            errors.append(f"digits_consumed {decoded.get('digits_consumed')} "
                          f"or read_bound {decoded.get('read_bound')}, bound {bound}")
        return errors

    def digits(self, i, result):
        return len(result.json("advice.json")["digits"])

    def semantic(self, i, result):
        payload = result.json("advice.json")
        mass = dict(payload["mass"])
        mass.pop("advice", None)       # names the table's path
        return {"digits": payload["digits"], "decoded": payload["decoded"],
                "growth": payload["growth"], "mass": mass}


WORKLOADS = {w.name: w for w in (EstimateExact, GridExact, BisectStream, AdviceDigits)}
