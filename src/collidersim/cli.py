"""Command-line front end.

Three subcommands cover the package's workflows:

  measure    read digits of a hidden mass by bisection or a grid sweep
  estimate   read digits of an embedded parameter under fixed tolerance
  advice     inspect the encoding of an advice table as a mass

Every run is deterministic given its parameters and seed; with --out,
results land in a directory as JSON plus a JSONL query transcript and a
manifest of content hashes, so reruns can be compared byte for byte.

Exit codes: 0 on a complete result, 2 on configuration or usage errors,
3 when the requested measurement timed out.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .advice import PrefixFunction, decode_advice, encoded_mass, read_bound
from .dyadic import fraction_text
from .harness import embed_parameter, estimate_digits, require_fixed_mode
from .oracle import (CollisionOracle, ConfigError, OracleConfig, PrecisionMode,
                     QueryRecord, WaitPolicy)
from .procedures import bisection, grid_sweep, parse_schedule
from .sources import parse_mass_spec, read_input

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TIMEOUT = 3

SEED_ENV = "CME_SEED"

_MODES = {
    "errorfree": PrecisionMode.ERROR_FREE,
    "arbitrary": PrecisionMode.ARBITRARY,
    "fixed": PrecisionMode.FIXED,
}
_WAITS = {"interrupt": WaitPolicy.INTERRUPT, "full": WaitPolicy.FULL_BUDGET}
_JSONL = json.JSONEncoder(sort_keys=True)    # json.dumps would build one per line
# Each key of a run's config block, once: the flag that sets it (None: the
# file alone), its OracleConfig field, and an enum field's choice table.
# seed leads, so a bad seed is reported before a bad choice.
_KEYS = {
    "seed": ("seed", "seed", None),
    "K": ("K", "K", None),
    "N": ("N", "N", None),
    "u": (None, "launch_speed", None),
    "r": (None, "flag_distance", None),
    "mode": ("mode", "mode", _MODES),
    "epsilon": ("epsilon", "epsilon", None),
    "wait_policy": ("wait", "wait_policy", _WAITS),
    "c_setup": ("c_setup", "c_setup", None),
    "timing": ("timing", "timing", None),
}


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(read_input(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(data) - set(_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown config keys {', '.join(map(repr, unknown))}")
    return data


def _choice(table: dict, text: str):
    """A flag name ("full"), or the value a config block records ("full-budget")."""
    choices = {**{e.value: e for e in table.values()}, **table}
    if text not in choices:
        raise ValueError(f"unknown choice {text!r}: expected one of "
                         f"{', '.join(sorted(choices))}")
    return choices[text]


def _resolve_config(args) -> OracleConfig:
    """Each setting from its flag, else the --config file, else the command's
    --mode/--wait default or $CME_SEED; OracleConfig defaults the rest.  A
    file's value is refused under the file's path and its key."""
    file_cfg = _load_config_file(args.config) if args.config else {}
    fallback = {"mode": args.default_mode, "wait_policy": args.default_wait,
                "seed": os.environ.get(SEED_ENV)}
    given = {}
    for key, (flag, field, choices) in _KEYS.items():
        flagged = flag and getattr(args, flag)
        value = next((str(v) for v in (flagged, file_cfg.get(key), fallback.get(key))
                      if v is not None), None)
        if value is None:
            continue
        filed = flagged is None and file_cfg.get(key) is not None
        if key == "seed":
            try:
                value = int(value)
            except ValueError:
                where = f"{args.config}: seed" if filed else f"${SEED_ENV}"
                raise ValueError(f"{where} must be an integer, got {value!r}") from None
        try:
            given[field] = _choice(choices, value) if choices else value
            if filed and not choices:
                OracleConfig(**{field: value})    # alone, so a refusal is this key's
        except ValueError as exc:    # a ConfigError too
            if not filed:
                raise
            # "<field> must be ..." reads "<key> must be ..."; any other text follows "<key>: "
            text = str(exc)
            head, _, rule = text.partition(" ")
            raise ConfigError(f"{args.config}: {key} {rule}" if head == field
                              else f"{args.config}: {key}: {text}") from None
    return OracleConfig(**given)


def _config_dict(cfg: OracleConfig) -> dict:
    """The config block: rationals as text and choices by recorded value, so
    it reads back through --config."""
    block = {}
    for key, (_, field, choices) in _KEYS.items():
        value = getattr(cfg, field)
        block[key] = (value.value if choices else
                      fraction_text(value) if isinstance(value, Fraction) else value)
    return block


def _write_file(outdir: str, name: str, content) -> bytes:
    """Write a text, or a dict or list as JSON, as UTF-8 bytes with no
    newline translation, and return the bytes written."""
    if isinstance(content, (dict, list)):
        content = json.dumps(content, indent=2, sort_keys=True) + "\n"
    data = content.encode("utf-8")
    with open(os.path.join(outdir, name), "wb") as fh:
        fh.write(data)
    return data


def _write_outputs(outdir: str, files: dict, parameters: dict) -> None:
    os.makedirs(outdir, exist_ok=True)
    hashes = {name: hashlib.sha256(_write_file(outdir, name, content)).hexdigest()
              for name, content in files.items()}
    _write_file(outdir, "manifest.json", {"parameters": parameters, "files": hashes})


def _transcript_jsonl(oracle: CollisionOracle) -> str:
    # a query record writes its own line; a batch record goes through the encoder
    return "".join((rec.json_line() if type(rec) is QueryRecord
                    else _JSONL.encode(rec.to_dict())) + "\n" for rec in oracle.transcript)


def cmd_measure(args) -> int:
    cfg = _resolve_config(args)
    schedule = parse_schedule(args.schedule, cfg.K) if args.schedule else None
    src = parse_mass_spec(args.mass, schedule_budget=schedule, K=cfg.K)
    oracle = CollisionOracle(src, cfg)
    if args.procedure == "bisection":
        if args.digits is None or schedule is None:
            raise ValueError("bisection needs --digits and --schedule")
        report = bisection(oracle, args.digits, schedule)
    else:
        if args.level is None:
            raise ValueError("the grid procedure needs --level")
        report = grid_sweep(oracle, args.level)
    payload = {
        "mass": src.describe(),
        "config": _config_dict(cfg),
        "result": report.to_dict(),
    }
    parameters = {"command": "measure", "mass": args.mass,
                  "procedure": args.procedure, "digits": args.digits,
                  "level": args.level, "schedule": args.schedule,
                  "config": _config_dict(cfg)}
    if args.out:
        _write_outputs(args.out, {"report.json": payload,
                                  "transcript.jsonl": _transcript_jsonl(oracle)},
                       parameters)
    print(f"status: {report.status()}")
    if report.digits:
        print(f"digits: {report.digits}")
    print(f"waiting time: {fraction_text(report.total_time)}")
    print(f"setup time: {fraction_text(report.total_setup)}")
    return EXIT_OK if report.complete else EXIT_TIMEOUT


def cmd_estimate(args) -> int:
    cfg = _resolve_config(args)
    require_fixed_mode(cfg)   # embedding the parameter needs FIXED mode's epsilon
    s_source = parse_mass_spec(args.mass)
    oracle = CollisionOracle(embed_parameter(s_source, cfg.epsilon), cfg)
    est = estimate_digits(oracle, args.k, args.delta)
    payload = {
        "parameter": s_source.describe(),
        "config": _config_dict(cfg),
        "estimate": est.to_dict(),
    }
    parameters = {"command": "estimate", "mass": args.mass, "k": args.k,
                  "delta": args.delta, "config": _config_dict(cfg)}
    if args.out:
        _write_outputs(args.out, {"estimate.json": payload,
                                  "transcript.jsonl": _transcript_jsonl(oracle)},
                       parameters)
    print(f"digits: {est.digits}")
    print(f"s_hat: {fraction_text(est.s_hat)}")
    print(f"counts: lesser={est.n_lesser} greater={est.n_greater} "
          f"timeout={est.n_timeout} (zeta={est.zeta}, engine={est.engine})")
    return EXIT_OK


def cmd_advice(args) -> int:
    f = PrefixFunction.from_table_file(args.table)
    src = encoded_mass(f)
    payload = {
        "table": args.table,
        "growth": {"a": str(f.a), "b": str(f.b)},
        "mass": src.describe(),
    }
    if args.digits:
        payload["digits"] = format(src.prefix_int(args.digits), f"0{args.digits}b")
    if args.word_length is not None:
        bound = read_bound(args.word_length, f.a, f.b)   # the decoder reads no further
        bits, consumed = decode_advice(format(src.prefix_int(bound), f"0{bound}b"),
                                       args.word_length, f.a, f.b)
        payload["decoded"] = {
            "word_length": args.word_length,
            "advice": bits,
            "digits_consumed": consumed,
            "read_bound": bound,
        }
    parameters = {"command": "advice", "table": args.table,
                  "digits": args.digits, "word_length": args.word_length}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_outputs(args.out, {"advice.json": text}, parameters)
    sys.stdout.write(text)
    return EXIT_OK


def _add_oracle_args(sp, mode: str, wait: str) -> None:
    """The oracle flags, with the command's own --mode and --wait defaults."""
    sp.set_defaults(default_mode=mode, default_wait=wait)
    sp.add_argument("--config", help="JSON file with oracle parameters")
    sp.add_argument("--K", help="timing-law constant (rational, default 1)")
    sp.add_argument("--N", help="launch latency (rational, default 0)")
    sp.add_argument("--mode", choices=sorted(_MODES),
                    help=f"mass manufacturing precision (default {mode})")
    sp.add_argument("--epsilon", help="tolerance for fixed mode (rational)")
    sp.add_argument("--seed", type=int,
                    help=f"RNG seed (default ${SEED_ENV} or 0)")
    sp.add_argument("--wait", choices=sorted(_WAITS),
                    help="billing: interrupt at the flag or wait out the budget "
                         f"(default {wait})")
    sp.add_argument("--timing", choices=["protocol", "kinematic"],
                    help="arrival law: protocol K/gap or kinematic traversal")
    sp.add_argument("--c-setup", dest="c_setup",
                    help="setup cost per word digit (rational, default 1)")
    sp.add_argument("--out", help="directory for JSON results and transcript")


@functools.cache    # parsing keeps no state; $CME_SEED and --config are read per run
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collidersim",
        description="Mass measurement through timed elastic collisions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="read digits of a hidden mass")
    m.add_argument("--mass", required=True,
                   help="mass spec, e.g. rational:1/3, pattern:3,2,4, "
                        "advice:TABLE, adversarial:u1=4, file:PATH")
    m.add_argument("--procedure", choices=["bisection", "grid"],
                   default="bisection")
    m.add_argument("--digits", type=int, help="digits to read (bisection)")
    m.add_argument("--schedule",
                   help="budget law, e.g. exp:k=0, alg:k=2,alpha=1, const:96")
    m.add_argument("--level", type=int, help="grid resolution (grid)")
    _add_oracle_args(m, mode="errorfree", wait="interrupt")
    m.set_defaults(func=cmd_measure)

    e = sub.add_parser("estimate", help="estimate digits under fixed tolerance")
    e.add_argument("--mass", required=True,
                   help="spec of the embedded parameter s")
    e.add_argument("--k", type=int, required=True, help="digits to estimate")
    e.add_argument("--delta", default="1/4", help="error probability bound")
    _add_oracle_args(e, mode="fixed", wait="full")
    e.set_defaults(func=cmd_estimate)

    a = sub.add_parser("advice", help="inspect an encoded advice table")
    a.add_argument("--table", required=True, help="tab-separated advice table")
    a.add_argument("--digits", type=int, help="print this many encoded digits")
    a.add_argument("--word-length", dest="word_length", type=int,
                   help="decode the advice for this input length")
    a.add_argument("--out", help="directory for JSON results")
    a.set_defaults(func=cmd_advice)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
