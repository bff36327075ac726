"""Flat key=value configuration parsing and initial-data descriptors."""

import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

from shearwave import SpectralGrid, integrate
from shearwave.config import (
    DEFAULTS,
    ConfigError,
    RunConfig,
    apply_overrides,
    build_config,
    build_initial_field,
    config_echo,
    load_config,
    parse_config_text,
    parse_descriptor,
    safe_number,
)


class TestParsing:
    def test_empty_text_gives_no_entries(self):
        assert parse_config_text("") == {}

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\nparams.a = 2.5\n  # indented comment\nrun.T = 0.5\n"
        assert parse_config_text(text) == {"params.a": "2.5", "run.T": "0.5"}

    def test_inline_comment_stripped(self):
        assert parse_config_text("grid.n = 128  # coarse\n") == {"grid.n": "128"}

    def test_unknown_key_is_an_error_with_location(self):
        with pytest.raises(ConfigError, match=r"<config>:2.*grid\.m"):
            parse_config_text("grid.n = 64\ngrid.m = 3\n")

    def test_unparseable_line_reports_line_number(self):
        with pytest.raises(ConfigError, match="3"):
            parse_config_text("params.a = 2\nrun.T = 1\nwhat is this\n")

    def test_readme_key_table_matches_defaults(self):
        # the ini block in README.md is the documented key set with defaults
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config_text(block, source="README.md") == DEFAULTS

    def test_overrides_replace_and_validate(self):
        merged = apply_overrides({"params.a": "2"}, ["params.a=3", "run.T=0.25"])
        assert merged["params.a"] == "3"
        assert merged["run.T"] == "0.25"
        with pytest.raises(ConfigError):
            apply_overrides({}, ["nonsense"])
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no.such.key=1"])


class TestBuildConfig:
    def test_defaults_build(self):
        cfg = build_config(dict(DEFAULTS))
        assert cfg.params.a == 2.0
        assert cfg.grid.n == 256
        assert cfg.T == 1.0
        assert cfg.stepper == "rk4"
        assert cfg.control.dt == 1e-3

    def test_typed_fields(self):
        mapping = dict(DEFAULTS)
        mapping.update(
            {
                "params.a": "3",
                "params.kappa": "2.5",
                "grid.n": "128",
                "run.track_flowmap": "true",
                "control.max_ux": "50",
            }
        )
        cfg = build_config(mapping)
        assert cfg.params.a == 3.0
        assert cfg.params.kappa == 2.5
        assert cfg.grid.n == 128
        assert cfg.track_flowmap is True
        assert cfg.control.max_ux == 50.0

    def test_bad_values_are_config_errors(self):
        for key, value in [
            ("grid.n", "65"),
            ("grid.n", "four"),
            ("params.a", "1"),
            ("params.kappa", "0"),
            ("run.stepper", "euler"),
            ("run.track_flowmap", "perhaps"),
            ("control.abs_tol", "1e309-1e309"),
            ("params.a", "1e309-1e309"),
            ("params.alpha", "1e309"),
            ("params.kappa", "1e309"),
            ("grid.n", "1e309"),
            ("grid.n", "1e309-1e309"),
            ("run.T", "-1"),
            ("run.T", "1e309-1e309"),
            ("run.snapshot_every", "0"),
            ("run.formulation", "hybrid"),
        ]:
            mapping = dict(DEFAULTS)
            mapping[key] = value
            with pytest.raises(ConfigError):
                build_config(mapping)
        with pytest.raises(ConfigError, match="run.bogus"):
            build_config({"run.bogus": "1"})
        with pytest.raises(ConfigError, match="track_flowmap"):
            build_config({"run.formulation": "lagrangian", "run.track_flowmap": "true"})

    def test_run_options_are_integrates_keywords(self):
        cfg = build_config(dict(DEFAULTS))
        options = cfg.run_options()
        keywords = list(inspect.signature(integrate).parameters)
        assert list(options) == [k for k in keywords if k not in ("initial", "params")]
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        for name, value in options.items():
            assert name in fields
            assert value is getattr(cfg, name)

    def test_unallocatable_grid_is_config_error(self):
        # 2**56 nodes take 512 PiB, which no 64-bit host can allocate
        with pytest.raises(ConfigError, match="key 'grid.n': cannot build"):
            load_config(None, ["grid.n=2**56"])

    def test_echo_roundtrips(self):
        mapping = dict(DEFAULTS)
        mapping["params.alpha"] = "0.75"
        cfg = build_config(mapping)
        echo = config_echo(cfg)
        again = build_config(dict(echo))
        assert again.params.alpha == 0.75
        assert config_echo(again) == echo

    def test_load_config_reads_files_and_overrides(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text("params.a = 2.5\nrun.T = 0.125\n")
        cfg = load_config(str(path), overrides=["run.T=0.25"])
        assert cfg.params.a == 2.5
        assert cfg.T == 0.25

    def test_load_config_without_file_uses_defaults(self):
        cfg = load_config(None)
        assert cfg.params.a == 2.0
        assert cfg.output_dir == "out"


class TestNumbers:
    def test_plain_and_scientific(self):
        assert safe_number("2.5") == 2.5
        assert safe_number("1e-3") == 1e-3
        assert safe_number("-4") == -4.0

    def test_pi_arithmetic(self):
        assert safe_number("pi") == pytest.approx(np.pi)
        assert safe_number("2*pi") == pytest.approx(2 * np.pi)
        assert safe_number("pi/2") == pytest.approx(np.pi / 2)
        assert safe_number("pi**2/6") == pytest.approx(np.pi**2 / 6)

    @pytest.mark.parametrize(
        "text, value",
        [("1+2", 3.0), ("5-3", 2.0), ("2*3", 6.0), ("1/4", 0.25), ("2**3", 8.0), ("+-4", -4.0)],
    )
    def test_each_operator(self, text, value):
        assert safe_number(text) == value

    @pytest.mark.parametrize(
        "text",
        [
            "import os",
            "pi()",
            "x",
            "1;2",
            "__debug__",
            # results that are not finite reals
            "1e309",
            "-1e309",
            "1e309-1e309",
            "1/0",
            "10**400",
            "(-1)**0.5",
        ],
    )
    def test_rejects_anything_else(self, text):
        with pytest.raises(ConfigError):
            safe_number(text)


class TestDescriptors:
    def test_kinds_parse(self):
        # argument values stay textual until a grid is at hand
        assert parse_descriptor("zero") == ("zero", {})
        kind, kw = parse_descriptor("cosine(mode=2, amplitude=0.1)")
        assert kind == "cosine"
        assert kw == {"mode": "2", "amplitude": "0.1"}

    def test_positional_arguments(self):
        kind, kw = parse_descriptor("gaussian(pi, 0.3, 0.5)")
        assert kind == "gaussian"
        assert kw == {"center": "pi", "width": "0.3", "amplitude": "0.5"}

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown initial-data kind"):
            parse_descriptor("triangle(1)")

    def test_too_many_arguments(self):
        with pytest.raises(ConfigError):
            parse_descriptor("constant(1, 2)")

    def test_build_fields(self):
        g = SpectralGrid(64)
        x = g.nodes
        assert build_initial_field("zero", g).linf() == 0.0
        assert np.allclose(build_initial_field("constant(1.5)", g).values, 1.5)
        f = build_initial_field("cosine(mode=2, amplitude=0.25)", g)
        assert np.max(np.abs(f.values - 0.25 * np.cos(2 * x))) < 1e-14
        f = build_initial_field("sine(3, 0.5)", g)
        assert np.max(np.abs(f.values - 0.5 * np.sin(3 * x))) < 1e-14
        f = build_initial_field("gaussian(pi, 0.4, 1.0)", g)
        assert f.values[int(np.argmax(f.values))] == pytest.approx(1.0, abs=0.05)

    def test_samples_descriptor_reads_file(self, tmp_path):
        g = SpectralGrid(8)
        vals = np.linspace(-1.0, 1.0, 8)
        path = tmp_path / "init.txt"
        path.write_text("\n".join(f"{v:.17g}" for v in vals))
        f = build_initial_field(f"samples({path})", g)
        assert np.max(np.abs(f.values - vals)) < 1e-15

    def test_samples_length_mismatch(self, tmp_path):
        g = SpectralGrid(8)
        path = tmp_path / "short.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ConfigError):
            build_initial_field(f"samples({path})", g)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_samples_must_be_finite(self, tmp_path, bad):
        g = SpectralGrid(8)
        path = tmp_path / "nonfinite.txt"
        path.write_text("\n".join([bad] + ["0.5"] * 7))
        with pytest.raises(ConfigError, match="not finite"):
            build_initial_field(f"samples({path})", g)

    def test_mode_beyond_cutoff_is_config_error(self):
        g = SpectralGrid(32)
        with pytest.raises(ConfigError):
            build_initial_field("cosine(mode=11)", g)

    @pytest.mark.parametrize("text", ["cosine(mode=1.5)", "sine(mode=2.5)"])
    def test_fractional_mode_is_config_error(self, text):
        # int() would truncate these to modes 1 and 2 without a word
        with pytest.raises(ConfigError, match="expected an integer"):
            build_initial_field(text, SpectralGrid(32))

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("cosine(mode=1", "cannot parse initial-data descriptor"),
            ("cosine(freq=1)", "unknown argument 'freq'"),
            ("gaussian(width=0.3)", r"missing \['center'\]"),
        ],
    )
    def test_malformed_descriptor_names_its_fault(self, text, fault):
        with pytest.raises(ConfigError, match=fault):
            build_initial_field(text, SpectralGrid(32))

    @pytest.mark.parametrize(
        "text", ["cosine(mode=1e309)", "sine(1e309-1e309)", "gaussian(pi, 1e309-1e309)"]
    )
    def test_non_finite_arguments_are_config_errors(self, text):
        with pytest.raises(ConfigError):
            build_initial_field(text, SpectralGrid(32))
