"""Run-configuration parsing: defaults, strict key checking, and the
canonical hash."""

import json

import pytest

from specblend.config import (
    ConfigError,
    RunConfig,
    load_config,
    parse_config_text,
    parse_synth_doc,
)
from specblend.filterbank import DEFAULT_BANDS
from specblend.trainer import TrainConfig

# The miniature config of test_cli.py.
MINI_CLI_DOC = {
    "seed": 3,
    "output_dir": "run",
    "data": {"synth": {
        "n_subjects": 1, "n_sessions": 2,
        "trials_per_class_per_session": 12, "n_channels": 6,
        "fs": 100.0, "duration": 2.0, "class_freqs": [10.0, 22.0],
        "noise_std": 0.5, "seed": 5,
    }},
    "fbcsp": {"u": 4, "bands": [[4, 8], [8, 12], [20, 24]], "order": 5},
    "model": {"margin": 1.0},
    "blend": {"warmup_epochs": 1, "window": 2},
    "train": {"batch_size": 8, "max_epochs": 2},
    "protocol": {"kind": "subject_dependent", "k": 2},
}


class TestDefaults:
    def test_empty_document_resolves(self):
        cfg = RunConfig.from_dict({})
        assert cfg.train.seed == 0
        assert cfg.train.u == 4
        assert cfg.train.margin == 5.0
        assert cfg.train.latent is None
        assert cfg.train.warmup_epochs == 5
        assert cfg.train.blend_window == 3
        assert cfg.train.blend_exponent == 2.0
        assert cfg.bands == DEFAULT_BANDS
        assert cfg.protocol_kind == "subject_dependent"
        assert cfg.protocol_k == 5
        assert cfg.train.batch_size == 32
        assert cfg.train.max_epochs == 80
        assert cfg.synth is not None and cfg.data_path is None

    def test_batch_default_follows_protocol(self):
        cfg = RunConfig.from_dict(
            {"protocol": {"kind": "subject_independent"}})
        assert cfg.train.batch_size == 100

    def test_explicit_batch_wins(self):
        cfg = RunConfig.from_dict(
            {"protocol": {"kind": "subject_independent"},
             "train": {"batch_size": 16}})
        assert cfg.train.batch_size == 16

    def test_train_config_mapping(self):
        cfg = RunConfig.from_dict(
            {"seed": 9, "model": {"margin": 2.5, "latent": 12},
             "blend": {"warmup_epochs": 3, "window": 2,
                       "exponent": 1.0}})
        tc = cfg.train
        assert tc.seed == 9
        assert tc.margin == 2.5 and tc.latent == 12
        assert tc.warmup_epochs == 3
        assert tc.blend_window == 2 and tc.blend_exponent == 1.0

    def test_defaults_agree_with_train_config(self):
        """An empty document resolves to exactly TrainConfig's defaults;
        only the batch size follows the protocol."""
        assert RunConfig.from_dict({}).train == TrainConfig()
        loso = RunConfig.from_dict({"protocol": {"kind": "subject_independent"}})
        assert loso.train == TrainConfig(batch_size=100)


class TestStrictKeys:
    @pytest.mark.parametrize("doc,fragment", [
        ({"bogus": 1}, "top level"),
        ({"data": {"bogus": 1}}, "data"),
        ({"data": {"synth": {"bogus": 1}}}, "data.synth"),
        ({"fbcsp": {"bogus": 1}}, "fbcsp"),
        ({"model": {"bogus": 1}}, "model"),
        ({"blend": {"bogus": 1}}, "blend"),
        ({"train": {"bogus": 1}}, "train"),
        ({"protocol": {"bogus": 1}}, "protocol"),
    ])
    def test_unknown_keys_rejected(self, doc, fragment):
        with pytest.raises(ConfigError, match=fragment):
            RunConfig.from_dict(doc)

    def test_path_and_synth_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            RunConfig.from_dict(
                {"data": {"path": "x.json", "synth": {}}})

    def test_null_path_rejected(self):
        """A null path names no dataset, and no synth spec either."""
        with pytest.raises(ConfigError, match="data.path has invalid type"):
            RunConfig.from_dict({"data": {"path": None}})

    def test_bad_protocol_kind(self):
        with pytest.raises(ConfigError, match="protocol.kind"):
            RunConfig.from_dict({"protocol": {"kind": "session_wise"}})

    def test_bad_bands(self):
        with pytest.raises(ConfigError, match="bands"):
            RunConfig.from_dict({"fbcsp": {"bands": [[4, 8, 12]]}})

    def test_bad_monitor(self):
        with pytest.raises(ConfigError, match="monitor"):
            RunConfig.from_dict({"train": {"monitor": "loss"}})

    def test_bad_types(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict({"seed": "zero"})
        with pytest.raises(ConfigError, match="batch_size"):
            RunConfig.from_dict({"train": {"batch_size": 8.5}})

    def test_train_config_invariants_propagate(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"train": {"batch_size": 1}})

    @pytest.mark.parametrize("k", [1, 0])
    def test_protocol_k_below_two(self, k):
        """k-fold needs two folds; that is known without any data."""
        with pytest.raises(ConfigError, match="protocol.k must be >= 2"):
            RunConfig.from_dict({"protocol": {"k": k}})

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestHash:
    def test_sixteen_hex_chars(self):
        h = RunConfig.from_dict({}).config_hash()
        assert len(h) == 16
        int(h, 16)

    def test_stable_under_reordering(self):
        a = RunConfig.from_dict({"seed": 1, "fbcsp": {"u": 2}})
        b = RunConfig.from_dict({"fbcsp": {"u": 2}, "seed": 1})
        assert a.config_hash() == b.config_hash()

    def test_changes_with_any_field(self):
        base = RunConfig.from_dict({}).config_hash()
        assert RunConfig.from_dict({"seed": 1}).config_hash() != base
        assert RunConfig.from_dict(
            {"model": {"margin": 4.0}}).config_hash() != base

    def test_output_dir_does_not_affect_hash(self):
        a = RunConfig.from_dict({"output_dir": "here"})
        b = RunConfig.from_dict({"output_dir": "there"})
        assert a.config_hash() == b.config_hash()

    def test_default_and_explicit_default_collide(self):
        """Writing out a default explicitly must not change the hash."""
        a = RunConfig.from_dict({})
        b = RunConfig.from_dict({"fbcsp": {"u": 4}})
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize("doc, expected", [
        ({}, "cb8db3d3cbbabe91"),
        ({"protocol": {"kind": "subject_independent"}}, "fa9706e60763ff8c"),
        (MINI_CLI_DOC, "02a4781508e8f0d4"),
        # JSON integers for float settings hash as floats.
        ({"model": {"margin": 2, "latent": 12},
          "blend": {"warmup_epochs": 3, "window": 2, "exponent": 1},
          "train": {"lr_init": 1, "lr_min": 1}}, "9550437f7fcc7b1c"),
    ])
    def test_pinned_hashes(self, doc, expected):
        """The canonical form is a contract: artifacts written by earlier
        versions must keep matching their configs."""
        assert RunConfig.from_dict(doc).config_hash() == expected

    def test_resolved_roundtrip(self):
        cfg = RunConfig.from_dict({"seed": 5, "model": {"latent": 10}})
        again = RunConfig.from_dict(cfg.resolved())
        assert again == cfg


class TestParsing:
    def test_malformed_json_reports_position(self):
        with pytest.raises(ConfigError, match=r"line 2 column")\
                as excinfo:
            parse_config_text('{\n  "seed": ,\n}')
        assert "malformed JSON" in str(excinfo.value)

    def test_non_object_root(self):
        with pytest.raises(ConfigError, match="object"):
            parse_config_text("[1, 2]")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_load_config_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 3, "fbcsp": {"u": 2}}))
        cfg = load_config(p)
        assert cfg.train.seed == 3 and cfg.train.u == 2


class TestSynthDoc:
    def test_defaults(self):
        spec = parse_synth_doc({})
        assert spec.n_subjects == 2 and spec.fs == 100.0

    def test_class_freqs_coercion(self):
        spec = parse_synth_doc({"class_freqs": [9, 21]})
        assert spec.class_freqs == (9.0, 21.0)

    def test_invalid_spec_wrapped(self):
        with pytest.raises(ConfigError, match="invalid"):
            parse_synth_doc({"n_channels": 1})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="mixing"):
            parse_synth_doc({"mixing": []})
