"""CLI: every artifact subcommand renders its paper counterpart."""

import pytest

from repro.cli import build_parser, main
from repro.serve.regions import MSG_REGIONS_UNSUPPORTED


class TestParser:
    def test_known_artifacts(self):
        parser = build_parser()
        args = parser.parse_args(["table2"])
        assert args.artifact == "table2"
        assert not args.quick

    def test_quick_and_seed_flags(self):
        args = build_parser().parse_args(["fig6d", "--quick", "--seed", "7"])
        assert args.quick and args.seed == 7

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--model", "resnet18", "--model", "vit",
                "--chips", "8", "--rps", "500", "--trace", "bursty",
                "--mode", "pipelined", "--placement", "partitioned",
            ]
        )
        assert args.artifact == "serve"
        assert args.model == ["resnet18", "vit"]
        assert args.chips == 8 and args.rps == 500.0
        assert args.trace == "bursty" and args.mode == "pipelined"
        assert args.placement == "partitioned"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.model is None
        # --chips parses to None so an explicit value is distinguishable
        # from the default (which _serve applies only without --fleet).
        assert args.chips is None and args.rps == 2000.0
        assert args.max_batch == 8 and args.slo_ms is None
        assert args.fleet is None and args.routing == "fastest"

    def test_bad_trace_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--trace", "sawtooth"])

    def test_seqlen_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--model", "gpt_large", "--seqlen-dist", "lognormal",
                "--seqlen-mean", "768", "--seqlen-buckets", "256,512,1024",
            ]
        )
        assert args.seqlen_dist == "lognormal"
        assert args.seqlen_mean == 768
        assert args.seqlen_buckets == "256,512,1024"

    def test_seqlen_defaults_off(self):
        args = build_parser().parse_args(["serve"])
        assert args.seqlen_dist is None
        assert args.seqlen_mean is None
        assert args.seqlen_buckets is None

    def test_bad_seqlen_dist_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--seqlen-dist", "zipf"])

    def test_bad_seqlen_buckets_rejected(self):
        for bad in ("banana", ",", "512,256", "0,128", "-256"):
            with pytest.raises(SystemExit):
                main(["serve", "--model", "gpt_large", "--seqlen-dist",
                      "fixed", "--seqlen-buckets", bad])

    def test_non_finite_duration_or_rate_rejected(self):
        # float() parses "inf" and "nan"; the trace generators used to
        # loop forever on an infinite horizon.
        for flag in ("--duration", "--rps"):
            for bad in ("inf", "nan"):
                with pytest.raises(SystemExit, match="finite"):
                    main(["serve", "--model", "resnet18", flag, bad])


class TestFastArtifacts:
    @pytest.mark.parametrize(
        "artifact,token",
        [
            ("table1", "Hybrid"),
            ("table2", "123.8"),
            ("fig1c", "This work"),
            ("fig7", "ranges"),
            ("fig9", "98.4"),
            ("fig10", "geomean"),
        ],
    )
    def test_renders_expected_content(self, capsys, artifact, token):
        assert main([artifact]) == 0
        out = capsys.readouterr().out
        assert token in out

    def test_fig8_renders_ten_models(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        for model in ("alexnet", "vgg16", "llama3_7b", "gpt_large"):
            assert model in out

    def test_fig6a_renders_linearity(self, capsys):
        assert main(["fig6a"]) == 0
        assert "INL" in capsys.readouterr().out

    def test_fig6d_quick(self, capsys):
        assert main(["fig6d", "--quick"]) == 0
        assert "Monte-Carlo" in capsys.readouterr().out


class TestServeCommand:
    def test_acceptance_scenario_renders(self, capsys):
        argv = ["serve", "--model", "resnet18", "--chips", "4",
                "--rps", "2000", "--seed", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for token in ("Serving simulation", "4 x yoco", "p99 ms", "goodput",
                      "energy/request", "chip utilization", "resnet18"):
            assert token in out

    def test_acceptance_scenario_deterministic(self, capsys):
        argv = ["serve", "--model", "resnet18", "--chips", "4",
                "--rps", "2000", "--seed", "0"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_progress_streams_and_matches_retained_report(self, capsys):
        """--progress switches to streaming metrics: a rolling p99 lands
        on stderr and the rendered report is identical to retained mode
        (percentiles are bit-identical by the streaming contract)."""
        argv = ["serve", "--model", "resnet18", "--chips", "4",
                "--rps", "2000", "--seed", "0"]
        assert main(argv) == 0
        retained = capsys.readouterr().out
        assert main(argv + ["--progress", "50"]) == 0
        captured = capsys.readouterr()
        assert captured.out == retained
        assert "rolling p99" in captured.err

    def test_progress_zero_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--progress", "0"])

    def test_defaults_match_explicit_acceptance_flags(self, capsys):
        assert main(["serve"]) == 0
        default = capsys.readouterr().out
        assert main(["serve", "--model", "resnet18", "--chips", "4",
                     "--rps", "2000", "--seed", "0"]) == 0
        assert capsys.readouterr().out == default

    def test_seqlen_run_reports_token_metrics(self, capsys):
        """The PR acceptance scenario: a seqlen-varying LLM run reports
        tokens/s, per-token energy and padding overhead."""
        argv = ["serve", "--model", "gpt_large", "--chips", "2",
                "--rps", "40", "--seed", "0", "--seqlen-dist", "lognormal"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for token in ("sequence lengths  : lognormal", "token goodput",
                      "energy/token", "padding overhead", "tok/s", "pad%"):
            assert token in out

    def test_no_seqlen_dist_reproduces_legacy_report(self, capsys):
        """Without --seqlen-dist the report is byte-identical to the
        pre-seqlen output: no token lines, no token columns."""
        argv = ["serve", "--model", "gpt_large", "--chips", "2",
                "--rps", "40", "--seed", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "token goodput" not in out
        assert "sequence lengths" not in out
        assert "pad%" not in out


class TestServeRegions:
    _ARGV = ["serve", "--regions", "2", "--duration", "0.02",
             "--rps", "50000"]

    @pytest.mark.parametrize(
        "extra, knob",
        [
            (["--trace", "bursty"], "trace_kind"),
            (["--tenants", "a:interactive:poisson@500"], "tenants"),
            (["--clients", "4"], "clients"),
            (["--seqlen-dist", "lognormal"], "seqlen_dist"),
            (["--model", "mobilebert", "--decode-dist", "fixed"], "decode"),
            (["--progress", "10"], "stream_metrics"),
            (["--trace-out", "unused.jsonl"], "trace_file"),
            (["--metrics-out", "unused.csv"], "metrics_file"),
        ],
    )
    def test_unsupported_flag_is_rejected(self, extra, knob):
        with pytest.raises(SystemExit) as excinfo:
            main([*self._ARGV, *extra])
        assert str(excinfo.value) == (
            f"serve: {MSG_REGIONS_UNSUPPORTED}{knob}"
        )

    @pytest.mark.parametrize(
        "base, extra",
        [
            ([], ["--fleet", "yoco:2"]),
            ([], ["--mode", "pipelined"]),
            (["--model", "resnet18", "--model", "alexnet"],
             ["--placement", "partitioned"]),
            (["--fleet", "yoco:2,isaac:2", "--rps", "20000"],
             ["--routing", "round-robin"]),
            ([], ["--admission", "queue-cap:4"]),
            ([], ["--power-cap", "0.5"]),
        ],
    )
    def test_flag_takes_effect(self, capsys, base, extra):
        assert main([*self._ARGV, *base]) == 0
        default = capsys.readouterr().out
        assert main([*self._ARGV, *base, *extra]) == 0
        assert capsys.readouterr().out != default

    def test_seqlen_buckets_are_accepted(self, capsys):
        # Buckets only pad sampled lengths, so on native-length traffic
        # they change nothing — in a regions run as in a single fleet.
        assert main(self._ARGV) == 0
        default = capsys.readouterr().out
        assert main([*self._ARGV, "--seqlen-buckets", "64,128"]) == 0
        assert capsys.readouterr().out == default

    def test_profile_engine_prints_every_region(self, capsys):
        assert main([*self._ARGV, "--profile-engine"]) == 0
        out = capsys.readouterr().out
        assert "region-0 engine profile:" in out
        assert "region-1 engine profile:" in out

    def test_smoke_with_region_wide_knobs(self, capsys):
        argv = ["serve", "--regions", "2", "--chips", "4", "--rps", "50000",
                "--duration", "0.05", "--routing", "round-robin",
                "--admission", "queue-cap:64", "--power-cap", "0.5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "regions           : 2 (8 chips total)" in out

    def test_diurnal_trace_is_accepted(self, capsys):
        argv = ["serve", "--regions", "2", "--duration", "0.02"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--trace", "diurnal"]) == 0
        assert capsys.readouterr().out == default


class TestServeDecode:
    def test_decode_run_reports_ttft_and_itl(self, capsys):
        argv = ["serve", "--model", "mobilebert", "--chips", "2",
                "--rps", "2000", "--duration", "0.02", "--seed", "0",
                "--decode-dist", "lognormal"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for token in ("decode            : lognormal (mean 32 tokens, "
                      "unified serving)", "tok/s generated", "KV overflow",
                      "ttft p50", "ttft p99", "itl p99", "dec tok",
                      "kv_overflow"):
            assert token in out

    def test_prefill_decode_fleet_run_renders(self, capsys):
        argv = ["serve", "--model", "mobilebert",
                "--fleet", "yoco:2,isaac:2",
                "--placement", "prefill-decode",
                "--decode-dist", "uniform", "--decode-mean", "16",
                "--rps", "2000", "--duration", "0.02", "--seed", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "prefill-decode serving" in out
        assert "mean 16 tokens" in out
        assert "iterations" in out

    def test_no_decode_dist_reproduces_legacy_report(self, capsys):
        """Without --decode-dist the report is byte-identical to the
        pre-decode output: no decode line, no TTFT/ITL columns."""
        argv = ["serve", "--model", "mobilebert", "--chips", "2",
                "--rps", "2000", "--seed", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "decode " not in out
        assert "ttft" not in out
        assert "kv_overflow" not in out

    def test_prefill_decode_needs_decode_dist(self):
        with pytest.raises(SystemExit):
            main(["serve", "--fleet", "yoco:2,isaac:2",
                  "--placement", "prefill-decode"])

    def test_decode_max_caps_the_flag_grammar(self, capsys):
        argv = ["serve", "--model", "mobilebert", "--chips", "2",
                "--rps", "2000", "--duration", "0.02", "--seed", "0",
                "--decode-dist", "longtail", "--decode-max", "64"]
        assert main(argv) == 0
        assert "cap 64" in capsys.readouterr().out

    def test_bad_decode_dist_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--decode-dist", "zipf"])
