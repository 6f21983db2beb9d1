"""Time the trial-counting engines against each other.

The batched estimator spends nearly all of its time counting threshold
comparisons over the raw 64-bit draw sequence, so this is the one loop
worth making fast.  Run as a script:

    python benchmarks/bench_kernels.py --trials 1000000 --repeats 5

Every engine consumes the same draw sequence, so their counts must
agree exactly; the benchmark asserts that before reporting timings.
"""

import argparse
import time
from fractions import Fraction

from collidersim.kernels import engine_name, engines, thresholds


def time_engine(fn, seed: int, stream: int, zeta: int,
                r_lo: int, r_hi1: int, repeats: int) -> tuple[float, tuple]:
    best = float("inf")
    counts = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        counts = fn(seed, stream, zeta, r_lo, r_hi1)
        best = min(best, time.perf_counter() - t0)
    return best, counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1_000_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args()

    # a representative mid-digit configuration; the loop cost does not
    # depend on where the cutoffs fall, only on the trial count
    r_lo, r_hi = thresholds(Fraction(1, 2), Fraction(1, 64),
                            Fraction(151, 300), Fraction(1, 256))

    print(f"active engine: {engine_name()}")
    print(f"trials={args.trials} repeats={args.repeats} "
          f"cutoffs=({r_lo}, {r_hi})")

    results = {}
    for name, fn in sorted(engines().items()):
        best, counts = time_engine(fn, args.seed, 0, args.trials,
                                   r_lo, r_hi - 1, args.repeats)
        results[name] = (best, counts)
        rate = args.trials / best / 1e6
        print(f"{name:14s} {best * 1e3:9.2f} ms   {rate:8.2f} Mtrials/s   "
              f"counts={counts}")

    counts = {c for _, c in results.values()}
    assert len(counts) == 1, f"engines disagree: {results}"
    if len(results) == 2:
        py = results["thresholds-py"][0]
        c = results["thresholds-c"][0]
        print(f"speedup: {py / c:.1f}x")


if __name__ == "__main__":
    main()
