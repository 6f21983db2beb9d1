import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collidersim.cli import EXIT_CONFIG, EXIT_OK, EXIT_TIMEOUT, build_parser, main
from collidersim.cli import _KEYS, _config_dict, _resolve_config
from collidersim.oracle import OracleConfig, PrecisionMode, WaitPolicy


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class TestMeasure:
    def test_bisection_happy_path(self, capsys):
        code = main(["measure", "--mass", "rational:1/3", "--digits", "10",
                     "--schedule", "exp:k=2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "status: complete:10" in out
        assert "digits: 0101010101" in out

    def test_slow_schedule_exits_timeout(self, capsys):
        code = main(["measure", "--mass", "rational:1/3", "--digits", "10",
                     "--schedule", "exp:k=0"])
        out = capsys.readouterr().out
        assert code == EXIT_TIMEOUT
        assert "timed-out-at-digit:1" in out

    def test_grid_procedure(self, capsys):
        code = main(["measure", "--mass", "rational:1/3", "--procedure",
                     "grid", "--level", "2", "--wait", "full"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "digits: 01" in out
        assert "waiting time: 160" in out

    @pytest.mark.parametrize("flags, named", [
        (["--level", "3"], "--wait full"),
        (["--level", "3", "--wait", "full", "--mode", "arbitrary"], "--mode errorfree"),
        (["--wait", "full"], "the grid procedure needs --level"),
    ], ids=["interrupt", "arbitrary", "no-level"])
    def test_grid_config_error_names_the_flag(self, flags, named, capsys):
        code = main(["measure", "--mass", "rational:1/3", "--procedure", "grid", *flags])
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err

    def test_bisection_requires_schedule(self, capsys):
        code = main(["measure", "--mass", "rational:1/3", "--digits", "4"])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_unknown_mass_kind(self, capsys):
        code = main(["measure", "--mass", "psychic:1/3", "--digits", "4",
                     "--schedule", "exp:k=2"])
        assert code == EXIT_CONFIG

    def test_non_dyadic_value_of_dyadic_kind(self, capsys):
        code = main(["measure", "--mass", "dyadic:1/3", "--digits", "4"])
        assert code == EXIT_CONFIG
        assert "not dyadic" in capsys.readouterr().err

    def test_pattern_repeating_an_empty_run_is_config_error(self, capsys):
        # the cycle repeats the empty leading run as run 3, after two digits
        code = main(["measure", "--mass", "pattern:0,2;tail=cycle", "--digits", "6",
                     "--schedule", "exp:k=6"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: u_3 must be >= 1, got 0\n"

    def test_adversarial_mass_needs_schedule_context(self, capsys):
        code = main(["measure", "--mass", "adversarial:u1=4",
                     "--procedure", "grid", "--level", "2", "--wait", "full"])
        assert code == EXIT_CONFIG

    # a zero denominator is a bad argument (exit 2), not a crash
    @pytest.mark.parametrize("spec", ["const:1/0", "alg:k=1,alpha=1/0",
                                      "table:4,1/0"])
    def test_zero_denominator_schedule_is_config_error(self, spec, capsys):
        code = main(["measure", "--mass", "rational:1/3", "--digits", "4",
                     "--schedule", spec])
        assert code == EXIT_CONFIG
        assert "cannot parse rational '1/0'" in capsys.readouterr().err

    def test_const_schedule_needs_a_budget(self, capsys):
        code = main(["measure", "--mass", "rational:1/3", "--digits", "4",
                     "--schedule", "const:"])
        assert code == EXIT_CONFIG
        assert "needs a budget" in capsys.readouterr().err

    def test_timeout_flag_is_a_usage_error(self, capsys):
        # a timeout is an answer that the measurement reads, never a choice
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--mass", "rational:1/3", "--digits", "10",
                  "--schedule", "exp:k=0", "--on-timeout", "abort"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --on-timeout abort" in capsys.readouterr().err


class TestOutputs:
    def run_measure(self, outdir):
        return main(["measure", "--mass", "rational:1/3", "--digits", "6",
                     "--schedule", "exp:k=2", "--out", str(outdir)])

    def test_output_files_written(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        assert self.run_measure(outdir) == EXIT_OK
        capsys.readouterr()
        names = sorted(os.listdir(outdir))
        assert names == ["manifest.json", "report.json", "transcript.jsonl"]
        report = json.loads(read(outdir / "report.json"))
        assert report["result"]["digits"] == "010101"
        lines = [json.loads(line)
                 for line in read(outdir / "transcript.jsonl").splitlines()]
        assert len(lines) == 6
        assert lines[0]["z"] == "01"
        assert lines[0]["answer"] == "greater"

    def test_manifest_hashes_match_contents(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        self.run_measure(outdir)
        capsys.readouterr()
        manifest = json.loads(read(outdir / "manifest.json"))
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest
        assert manifest["parameters"]["command"] == "measure"

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        self.run_measure(a)
        self.run_measure(b)
        capsys.readouterr()
        for name in os.listdir(a):
            assert read(a / name) == read(b / name)


class TestEstimate:
    def test_first_digit(self, capsys):
        code = main(["estimate", "--mass", "rational:1/7", "--k", "1",
                     "--epsilon", "1/64", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "digits: 0" in out
        assert "zeta=12289" in out

    def test_kinematic_exact_target_counts_on_the_kernel(self, capsys):
        code = main(["estimate", "--mass", "rational:1/3", "--k", "1",
                     "--epsilon", "1/8", "--timing", "kinematic"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "engine=thresholds-py" in out

    def test_requires_epsilon(self, capsys):
        code = main(["estimate", "--mass", "rational:1/7", "--k", "1"])
        assert code == EXIT_CONFIG
        assert "epsilon" in capsys.readouterr().err

    # a non-fixed mode gets the estimator's own refusal, with or without
    # an epsilon, rather than a request for the epsilon it already has; it
    # names the flags, as the grid procedure's refusals do
    FIXED_ONLY = ("digit estimation is the fixed-tolerance procedure; "
                  "use --mode fixed with --epsilon (PrecisionMode.FIXED)\n")

    @pytest.mark.parametrize("flags, message", [
        (["--mode", "errorfree"], FIXED_ONLY),
        (["--mode", "errorfree", "--epsilon", "1/64"], FIXED_ONLY),
        (["--mode", "arbitrary"], FIXED_ONLY),
        (["--mode", "arbitrary", "--epsilon", "1/64"], FIXED_ONLY),
        (["--epsilon", "1/64", "--N", "1"], "digit estimation needs zero launch latency"),
        (["--epsilon", "1/64", "--delta", "1"], "delta must lie in (0, 1)"),
    ], ids=["errorfree", "errorfree-epsilon", "arbitrary", "arbitrary-epsilon",
            "launch-latency", "delta"])
    def test_refusal_names_what_the_estimator_needs(self, flags, message, capsys):
        code = main(["estimate", "--mass", "rational:1/3", "--k", "1", *flags])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_out_directory(self, tmp_path, capsys):
        outdir = tmp_path / "est"
        code = main(["estimate", "--mass", "rational:1/7", "--k", "1",
                     "--epsilon", "1/64", "--seed", "5",
                     "--out", str(outdir)])
        capsys.readouterr()
        assert code == EXIT_OK
        payload = json.loads(read(outdir / "estimate.json"))
        assert payload["estimate"]["digits"] == "0"
        assert payload["config"]["mode"] == "fixed"
        assert payload["config"]["wait_policy"] == "full-budget"

    def test_seed_env_fallback(self, capsys, monkeypatch):
        argv = ["estimate", "--mass", "rational:1/7", "--k", "1",
                "--epsilon", "1/64"]
        monkeypatch.setenv("CME_SEED", "5")
        main(argv)
        with_env = capsys.readouterr().out
        monkeypatch.delenv("CME_SEED")
        main(argv + ["--seed", "5"])
        with_flag = capsys.readouterr().out
        assert with_env == with_flag


class TestAdviceCommand:
    def write_table(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("# alphabet=binary\n0\t\n1\t1\n", encoding="utf-8")
        return str(path)

    def test_digit_listing(self, tmp_path, capsys):
        code = main(["advice", "--table", self.write_table(tmp_path),
                     "--digits", "12"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["digits"] == "010001001001"
        assert payload["mass"]["value"] == "15/56"

    def test_decoding_for_word_length(self, tmp_path, capsys):
        code = main(["advice", "--table", self.write_table(tmp_path),
                     "--word-length", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload["decoded"]["advice"] == "1"
        assert payload["decoded"]["digits_consumed"] <= \
            payload["decoded"]["read_bound"]

    @pytest.mark.parametrize("length", ["0", "-1"])
    def test_word_length_below_one_is_config_error(self, length, tmp_path, capsys):
        code = main(["advice", "--table", self.write_table(tmp_path),
                     "--word-length", length])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == "error: word_length must be >= 1\n"

    @pytest.mark.parametrize("directive", ["a=1/0", "b=1/0"])
    def test_zero_denominator_directive_is_config_error(self, directive,
                                                         tmp_path, capsys):
        path = tmp_path / "table.tsv"
        path.write_text(f"# {directive}\n0\t\n1\t1\n", encoding="utf-8")
        code = main(["advice", "--table", str(path), "--digits", "12"])
        assert code == EXIT_CONFIG
        assert "cannot parse rational '1/0'" in capsys.readouterr().err

    def test_missing_table_file(self, tmp_path, capsys):
        code = main(["advice", "--table", str(tmp_path / "nope.tsv")])
        assert code == EXIT_CONFIG


class TestConfigFile:
    def test_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wait_policy": "full"}), encoding="utf-8")
        code = main(["measure", "--mass", "rational:1/3", "--procedure",
                     "grid", "--level", "2", "--config", str(cfg)])
        assert code == EXIT_OK
        assert "digits: 01" in capsys.readouterr().out

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": "2"}), encoding="utf-8")
        base = ["measure", "--mass", "rational:1/3", "--digits", "1",
                "--schedule", "exp:k=2", "--config", str(cfg)]
        main(base)
        assert "waiting time: 12" in capsys.readouterr().out  # K = 2 from file
        main(base + ["--K", "1"])
        assert "waiting time: 6" in capsys.readouterr().out   # flag wins

    # timeout_reaction: a key of old run directories' config blocks, refused
    @pytest.mark.parametrize("entry", [{"wait": "full"}, {"seeed": 5},
                                       {"timeout_reaction": "return"}],
                             ids=["wait", "seeed", "timeout_reaction"])
    def test_unknown_key_is_config_error(self, entry, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry), encoding="utf-8")
        code = main(["measure", "--mass", "rational:1/3", "--procedure",
                     "grid", "--level", "2", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert repr(next(iter(entry))) in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ({"u": "0"}, "u must be positive"),
        ({"r": "0"}, "r must be positive"),
        ({"K": "0"}, "K must be positive"),
        ({"c_setup": "-1"}, "c_setup must be >= 0"),
    ], ids=["u", "r", "K", "c_setup"])
    def test_out_of_range_value_is_config_error(self, entry, message, tmp_path, capsys):
        # refused under the key the file gives, after the file's path
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry), encoding="utf-8")
        code = main(["measure", "--mass", "rational:1/3", "--digits", "1",
                     "--schedule", "exp:k=2", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    def test_out_of_range_flag_names_no_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c_setup": "2"}), encoding="utf-8")
        code = main(["measure", "--mass", "rational:1/3", "--digits", "1",
                     "--schedule", "exp:k=2", "--config", str(cfg), "--c-setup", "-1"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: c_setup must be >= 0\n"

    @pytest.mark.parametrize("entry", [{"mode": "arbitrary"},
                                       {"wait_policy": "interrupt"}],
                             ids=["mode", "wait_policy"])
    def test_estimate_keeps_file_mode_and_wait(self, entry, tmp_path, capsys):
        # the estimator's own defaults (fixed, full) must not override a
        # file that asks for something else; the estimator then refuses it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry), encoding="utf-8")
        code = main(["estimate", "--mass", "rational:1/3", "--k", "1",
                     "--epsilon", "1/8", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert "digit estimation" in capsys.readouterr().err

    def test_run_config_block_reads_back(self, tmp_path, capsys):
        # a run's own config block ("error-free", "full-budget", a null
        # epsilon), fed back as a file, repeats the run
        run = ["measure", "--mass", "rational:1/3", "--procedure", "grid",
               "--level", "2"]
        first = ["--K", "2", "--seed", "7", "--wait", "full", "--out", str(tmp_path / "a")]
        assert main(run + first) == EXIT_OK
        report = read(tmp_path / "a" / "report.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(json.loads(report)["config"]), encoding="utf-8")
        assert main(run + ["--config", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_OK
        assert read(tmp_path / "b" / "report.json") == report

    BISECT = ["measure", "--mass", "rational:1/3", "--digits", "4", "--schedule", "exp:k=2"]
    # each config key: a run, and two values of the key that it reads apart
    SETTINGS = {
        "seed": (BISECT + ["--mode", "arbitrary"], 0, 1),
        "K": (BISECT, "1", "2"),
        "N": (BISECT, "0", "1/16"),
        "u": (BISECT + ["--timing", "kinematic"], "1", "2"),
        "r": (BISECT + ["--timing", "kinematic"], "1", "2"),
        "mode": (BISECT, "errorfree", "arbitrary"),
        "epsilon": (["estimate", "--mass", "rational:1/3", "--k", "1"], "1/8", "1/16"),
        "wait_policy": (BISECT, "interrupt", "full"),
        "c_setup": (BISECT, "1", "2"),
        "timing": (BISECT, "protocol", "kinematic"),
    }

    def test_every_setting_changes_a_run(self, tmp_path, capsys):
        """Each key of the config block moves what its run reports: stdout,
        the transcript, or the result or estimate of the payload.  The
        config block itself does not count: a key that moves nothing else
        is a setting that does nothing."""
        assert sorted(self.SETTINGS) == sorted(_KEYS)
        inert = []
        for key, (argv, *values) in self.SETTINGS.items():
            name, part = (("report.json", "result") if argv[0] == "measure"
                          else ("estimate.json", "estimate"))
            runs = []
            for n, value in enumerate(values):
                cfg, out = tmp_path / f"{key}{n}.json", tmp_path / f"{key}{n}"
                cfg.write_text(json.dumps({key: value}), encoding="utf-8")
                code = main(argv + ["--config", str(cfg), "--out", str(out)])
                assert code in (EXIT_OK, EXIT_TIMEOUT), key
                runs.append((capsys.readouterr().out, read(out / "transcript.jsonl"),
                             json.loads(read(out / name))[part]))
            if runs[0] == runs[1]:
                inert.append(key)
        assert inert == []

    @given(st.data())
    def test_config_block_round_trips(self, data):
        # every setting a run records reads back through --config as itself,
        # whichever command's --mode/--wait defaults it would otherwise take
        ratio = st.fractions(min_value=0, max_value=64, max_denominator=1 << 20)
        positive = ratio.filter(lambda f: f > 0)
        mode = data.draw(st.sampled_from(PrecisionMode))
        eps = data.draw(positive if mode is PrecisionMode.FIXED else st.none() | positive)
        cfg = OracleConfig(
            K=data.draw(positive), N=data.draw(ratio), mode=mode, epsilon=eps,
            wait_policy=data.draw(st.sampled_from(WaitPolicy)),
            c_setup=data.draw(ratio), timing=data.draw(st.sampled_from(["protocol", "kinematic"])),
            launch_speed=data.draw(positive), flag_distance=data.draw(positive),
            seed=data.draw(st.integers(-(1 << 70), 1 << 70)))
        command = data.draw(st.sampled_from([["measure", "--mass", "rational:1/3"],
                                             ["estimate", "--mass", "rational:1/3", "--k", "1"]]))
        block = _config_dict(cfg)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(block, fh)
            resolved = _resolve_config(build_parser().parse_args(command + ["--config", path]))
        assert _config_dict(resolved) == block
        assert resolved == cfg

    @pytest.mark.parametrize("key, choices", [
        ("mode", "arbitrary, error-free, errorfree, fixed"),
        ("wait_policy", "full, full-budget, interrupt"),
    ])
    def test_unknown_choice_names_value_and_choices(self, key, choices, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "bogus"}), encoding="utf-8")
        code = main(["measure", "--mass", "rational:1/3", "--digits", "1",
                     "--schedule", "exp:k=2", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'bogus'" in err and choices in err

    @pytest.mark.parametrize("entry, message", [
        ({"mode": "bogus"}, "mode: unknown choice 'bogus': expected one of "
                            "arbitrary, error-free, errorfree, fixed"),
        ({"K": "abc"}, "K: cannot parse rational 'abc': "
                       "invalid literal for int() with base 10: 'abc'"),
        ({"timing": "x"}, "timing: unknown timing 'x'"),
    ], ids=["mode", "K", "timing"])
    def test_unreadable_value_names_path_and_key(self, entry, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry), encoding="utf-8")
        code = main(["measure", "--mass", "rational:1/3", "--digits", "1",
                     "--schedule", "exp:k=2", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_non_integer_seed_is_config_error(self, seed, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}), encoding="utf-8")
        code = main(["measure", "--mass", "rational:1/3", "--digits", "1",
                     "--schedule", "exp:k=2", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: {cfg}: seed must be an integer, got '{seed}'\n"

    def test_non_integer_seed_in_environment_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CME_SEED", "abc")
        code = main(["measure", "--mass", "rational:1/3", "--digits", "1",
                     "--schedule", "exp:k=2"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: $CME_SEED must be an integer, got 'abc'\n"
        # a seed from the flag or the file wins, so the variable is not read
        assert main(["measure", "--mass", "rational:1/3", "--digits", "1",
                     "--schedule", "exp:k=2", "--seed", "3"]) == EXIT_OK

    def test_seed_order_is_flag_file_environment(self, tmp_path, capsys, monkeypatch):
        run = ["measure", "--mass", "rational:1/3", "--procedure", "grid",
               "--level", "2", "--wait", "full"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 6}), encoding="utf-8")
        monkeypatch.setenv("CME_SEED", "5")
        for n, extra in enumerate([[], ["--config", str(cfg)],
                                   ["--config", str(cfg), "--seed", "7"]]):
            assert main(run + extra + ["--out", str(tmp_path / str(n))]) == EXIT_OK
            report = json.loads(read(tmp_path / str(n) / "report.json"))
            assert report["config"]["seed"] == 5 + n

    def test_config_that_is_not_json_names_its_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"K": "2",}', encoding="utf-8")
        code = main(["measure", "--mass", "rational:1/3", "--digits", "1",
                     "--schedule", "exp:k=2", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {cfg}: Expecting property name")

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        code = main(["measure", "--mass", "rational:1/3", "--digits", "1",
                     "--schedule", "exp:k=2", "--config", str(cfg)])
        assert code == EXIT_CONFIG


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("command, mode, wait", [
        ("measure", "errorfree", "interrupt"), ("estimate", "fixed", "full")])
    def test_help_names_each_command_default(self, command, mode, wait, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"mass manufacturing precision (default {mode})" in text
        assert f"wait out the budget (default {wait})" in text

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestSharedParser:
    """`main` builds its parser once per process; no run may depend on the
    runs before it."""

    RUNS = [
        ({}, ["measure", "--mass", "pattern:3,2,4", "--digits", "12",
              "--schedule", "exp:k=6"]),
        ({}, ["advice", "--table", "TABLE", "--digits", "40", "--word-length", "2"]),
        ({}, ["estimate", "--mass", "rational:1/7", "--k", "1", "--epsilon", "1/64"]),
        ({"CME_SEED": "9"}, ["measure", "--mass", "pattern:3,2,4", "--digits", "12",
                             "--schedule", "exp:k=6", "--mode", "arbitrary",
                             "--config", "CONFIG"]),
    ]

    @pytest.fixture
    def run(self, tmp_path, capsys, monkeypatch):
        table, cfg = tmp_path / "table.tsv", tmp_path / "cfg.json"
        table.write_text("# alphabet=binary\n0\t\n1\t1\n", encoding="utf-8")
        cfg.write_text(json.dumps({"K": "3/2", "N": "1/16"}), encoding="utf-8")
        names = {"TABLE": str(table), "CONFIG": str(cfg)}

        def run(n: int, out: str):
            env, argv = self.RUNS[n]
            monkeypatch.delenv("CME_SEED", raising=False)
            for key, value in env.items():
                monkeypatch.setenv(key, value)
            outdir = tmp_path / out
            code = main([names.get(a, a) for a in argv] + ["--out", str(outdir)])
            files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
            return code, capsys.readouterr().out, files
        return run

    def test_runs_match_a_fresh_parser(self, run):
        build_parser.cache_clear()
        shared = [run(n, f"shared{n}") for n in range(len(self.RUNS))]
        assert build_parser.cache_info().misses == 1
        assert [code for code, _, _ in shared] == [EXIT_OK] * 4
        # the last run read $CME_SEED and the config file at call time
        config = json.loads(shared[3][2]["report.json"])["config"]
        assert (config["seed"], config["K"], config["N"]) == (9, "3/2", "1/16")
        assert shared[3][2]["transcript.jsonl"] != shared[0][2]["transcript.jsonl"]
        for n in range(len(self.RUNS)):
            build_parser.cache_clear()
            assert run(n, f"fresh{n}") == shared[n]

    def test_usage_error_leaves_the_parser_usable(self, run, capsys):
        first = run(0, "before")
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--digits", "many"])
        assert exc.value.code == EXIT_CONFIG
        assert "invalid int value" in capsys.readouterr().err
        assert run(0, "after") == first

    def test_advice_prints_the_bytes_of_its_file(self, run):
        code, out, files = run(1, "advice")
        assert code == EXIT_OK
        assert out.encode("utf-8") == files["advice.json"]
