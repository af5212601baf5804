"""Command-line behavior: artifact layout, exit codes, hash stamping,
and cross-command flows (synth -> train -> eval, sweep) on a miniature
configuration."""

import argparse
import dataclasses
import json
import re
from pathlib import Path

import pytest

from specblend import cli, evalmetrics
from specblend.cli import build_parser, main
from specblend.config import load_config
from specblend.evalmetrics import run_protocol
from specblend.trainer import write_train_log_csv
from specblend.trialdata import (
    SynthSpec,
    generate_synthetic,
    load_trialset,
    make_splits,
    save_trialset,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def mini_config(tmp_path, **overrides):
    doc = {
        "seed": 3,
        "output_dir": str(tmp_path / "run"),
        "data": {"synth": {
            "n_subjects": 1, "n_sessions": 2,
            "trials_per_class_per_session": 12, "n_channels": 6,
            "fs": 100.0, "duration": 2.0, "class_freqs": [10.0, 22.0],
            "noise_std": 0.5, "seed": 5,
        }},
        "fbcsp": {"u": 4, "bands": [[4, 8], [8, 12], [20, 24]],
                  "order": 5},
        "model": {"margin": 1.0},
        "blend": {"warmup_epochs": 1, "window": 2},
        "train": {"batch_size": 8, "max_epochs": 2},
        "protocol": {"kind": "subject_dependent", "k": 2},
    }
    for key, value in overrides.items():
        doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


class TestSynth:
    def test_default_spec(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "data")])
        assert code == 0
        ts = load_trialset(tmp_path / "data" / "dataset.json")
        assert ts.n_trials == 2 * 2 * 2 * 50
        assert "wrote" in capsys.readouterr().out

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"n_subjects": 1, "trials_per_class_per_session": 3,
             "duration": 1.0, "n_channels": 4}))
        code = main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "data")])
        assert code == 0
        ts = load_trialset(tmp_path / "data" / "dataset.json")
        assert ts.n_trials == 1 * 2 * 2 * 3
        assert ts.n_samples == 100

    def test_hash_stamped_in_manifest(self, tmp_path):
        main(["synth", "--out", str(tmp_path / "data")])
        doc = json.loads((tmp_path / "data" / "dataset.json").read_text())
        assert len(doc["meta"]["config_hash"]) == 16

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"n_channels": 1}')
        code = main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "d")])
        assert code == 2
        assert "config error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    cfg_path, doc = mini_config(tmp)
    code = main(["train", "--config", str(cfg_path)])
    return code, tmp, cfg_path, doc


class TestTrain:
    def test_exit_zero(self, trained):
        assert trained[0] == 0

    def test_artifacts_exist(self, trained):
        _, tmp, _, doc = trained
        run = tmp / "run"
        for name in ("transform_fold0.json", "transform_fold0.json.blob",
                     "model_fold0.json", "model_fold0.json.blob",
                     "trainlog_fold0.csv", "curves_fold0.csv"):
            assert (run / name).exists(), name

    def test_hash_on_every_output(self, trained):
        _, tmp, _, _ = trained
        run = tmp / "run"
        for name in ("trainlog_fold0.csv", "curves_fold0.csv"):
            first = (run / name).read_text().splitlines()[0]
            assert first.startswith("# config_hash=")
        for name in ("transform_fold0.json", "model_fold0.json"):
            doc = json.loads((run / name).read_text())
            assert "config_hash" in doc["meta"]

    def test_fold_out_of_range_exits_2(self, trained, capsys):
        _, _, cfg_path, _ = trained
        code = main(["train", "--config", str(cfg_path), "--fold", "99"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_eval_checkpoint_roundtrip(self, trained, capsys):
        _, tmp, cfg_path, _ = trained
        run = tmp / "run"
        code = main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(run / "model_fold0.json"),
                     "--fold", "0"])
        assert code == 0
        doc = json.loads((run / "eval_fold0.json").read_text())
        assert len(doc["folds"]) == 1
        row = doc["folds"][0]
        assert 0.0 <= row["accuracy"] <= 1.0
        assert row["n_test"] == 24

    def test_eval_checkpoint_wrong_fold_exits_3(self, trained, capsys):
        """The fingerprint guard refuses a transform from another fold."""
        _, tmp, cfg_path, _ = trained
        run = tmp / "run"
        code = main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(run / "model_fold0.json"),
                     "--transform", str(run / "transform_fold0.json"),
                     "--fold", "1"])
        assert code == 3
        assert "fingerprint" in capsys.readouterr().err

    def test_eval_checkpoint_of_another_shape_exits_2(self, trained,
                                                      tmp_path, capsys):
        """A latent-1 checkpoint does not load into the config's model."""
        _, tmp, cfg_path, _ = trained
        small_cfg, _ = mini_config(tmp_path, model={"latent": 1})
        assert main(["train", "--config", str(small_cfg)]) == 0
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(tmp_path / "run" / "model_fold0.json"),
                     "--transform", str(tmp / "run" / "transform_fold0.json"),
                     "--fold", "0"])
        assert code == 2
        assert "enc_fc.weight" in capsys.readouterr().err


class TestOneFoldPipeline:
    def test_cli_fold_matches_protocol_fold(self, tmp_path):
        """``train``/``eval --checkpoint`` on fold 1 reproduce fold 1 of
        the protocol: the same train log, and the same test metrics as
        the report that plain ``eval`` writes."""
        cfg_path, _ = mini_config(tmp_path)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--fold", "1"]) == 0
        assert main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(run / "model_fold1.json"),
                     "--fold", "1"]) == 0
        assert main(["eval", "--config", str(cfg_path)]) == 0

        cfg = load_config(cfg_path)
        ts = cfg.load_dataset()
        plan = make_splits(ts, cfg.protocol_kind, cfg.protocol_k,
                           cfg.train.seed)
        collect = []
        run_protocol(ts, plan, cfg.train, bank=cfg.make_bank(ts.fs),
                     collect=collect)
        write_train_log_csv(collect[1].log, tmp_path / "protocol_log.csv",
                            config_hash=cfg.config_hash())
        assert ((run / "trainlog_fold1.csv").read_bytes()
                == (tmp_path / "protocol_log.csv").read_bytes())

        single = json.loads((run / "eval_fold1.json").read_text())["folds"]
        full = json.loads((run / "eval_report.json").read_text())["folds"]
        for key in ("accuracy", "f1", "auc"):
            assert single[0][key] == full[1][key], key


class TestEvalProtocol:
    def test_full_protocol(self, tmp_path, capsys):
        cfg_path, _ = mini_config(tmp_path,
                                  train={"batch_size": 8, "max_epochs": 1})
        code = main(["eval", "--config", str(cfg_path)])
        assert code == 0
        run = tmp_path / "run"
        doc = json.loads((run / "eval_report.json").read_text())
        assert len(doc["folds"]) == 2
        assert (run / "eval_report.csv").exists()
        assert "accuracy" in capsys.readouterr().out


class TestSweep:
    def test_two_point_grid(self, tmp_path, capsys):
        cfg_path, _ = mini_config(tmp_path,
                                  train={"batch_size": 8, "max_epochs": 1})
        code = main(["sweep", "--config", str(cfg_path),
                     "--grid", "fbcsp.u=2,4"])
        assert code == 0
        run = tmp_path / "run"
        assert (run / "report_point000.json").exists()
        assert (run / "report_point001.json").exists()
        summary = (run / "sweep_summary.csv").read_text().splitlines()
        assert summary[0].startswith("# config_hash=")
        assert summary[1].startswith("point,fbcsp.u,accuracy_mean")
        assert len(summary) == 4
        a = json.loads((run / "report_point000.json").read_text())
        b = json.loads((run / "report_point001.json").read_text())
        assert a["config_hash"] != b["config_hash"]

    def test_workers_below_one_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_pool(method):
            raise AssertionError("a pool was started")
        monkeypatch.setattr(cli, "get_context", no_pool)
        cfg_path, _ = mini_config(tmp_path)
        code = main(["sweep", "--config", str(cfg_path),
                     "--grid", "fbcsp.u=2,4", "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_pool_no_larger_than_the_grid(self, tmp_path, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        class Context:
            Pool = InProcessPool

        monkeypatch.setattr(cli, "get_context", lambda method: Context())
        cfg_path, _ = mini_config(tmp_path,
                                  train={"batch_size": 8, "max_epochs": 1})
        code = main(["sweep", "--config", str(cfg_path),
                     "--grid", "fbcsp.u=2,4", "--workers", "8"])
        assert code == 0
        assert sizes == [2]

    def test_grid_required(self, tmp_path, capsys):
        cfg_path, _ = mini_config(tmp_path)
        code = main(["sweep", "--config", str(cfg_path)])
        assert code == 2
        assert "--grid" in capsys.readouterr().err

    def test_bad_grid_entry(self, tmp_path, capsys):
        cfg_path, _ = mini_config(tmp_path)
        assert main(["sweep", "--config", str(cfg_path),
                     "--grid", "nonsense"]) == 2
        assert main(["sweep", "--config", str(cfg_path),
                     "--grid", "fbcsp.bogus=1"]) == 2


class TestExitCodes:
    def test_malformed_config_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"seed": }')
        code = main(["train", "--config", str(p)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_config_key(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"sneed": 1}')
        assert main(["train", "--config", str(p)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config",
                     str(tmp_path / "nope.json")]) == 2

    def test_dataset_labelled_1_2_exits_2(self, tmp_path, capsys):
        ts = generate_synthetic(SynthSpec(
            n_subjects=1, trials_per_class_per_session=6, n_channels=6,
            duration=2.0, seed=5))
        data = tmp_path / "data" / "dataset.json"
        data.parent.mkdir()
        save_trialset(dataclasses.replace(ts, labels=ts.labels + 1), data)
        cfg_path, _ = mini_config(tmp_path, data={"path": str(data)})
        assert main(["eval", "--config", str(cfg_path)]) == 2
        assert "exactly {0, 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("duration, match", [
        (1.5, "multiple of 100"), (0.3, "too short")])
    def test_unusable_trial_length_exits_2(self, tmp_path, capsys,
                                           duration, match):
        cfg_path, doc = mini_config(tmp_path)
        doc["data"]["synth"]["duration"] = duration
        cfg_path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, match", [
        ("fbcsp", "bands", [[8, 4]], "band edges"),
        ("fbcsp", "order", 0, "order"),
        ("fbcsp", "u", 10, "exceed the 6 channels"),
        ("blend", "window", 1, "blend_window"),
        ("blend", "window", 50, "blend_window"),
        ("protocol", "k", 50, "class 0 has only 12 pool trials"),
        ("protocol", "k", 1, "protocol.k must be >= 2"),
        ("protocol", "kind", "subject_independent", "at least two subjects"),
    ])
    def test_unrunnable_setting_exits_2(self, tmp_path, capsys, section,
                                        key, value, match):
        """Settings no fold can run with fail before any filtering."""
        cfg_path, doc = mini_config(tmp_path)
        doc[section][key] = value
        cfg_path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err

    @pytest.mark.parametrize("blend, match", [
        ({"warmup_epochs": 1, "window": 2}, "warm-up must span >= 2"),
        ({"warmup_epochs": 2, "window": 3}, "fit window 3 must lie in"),
    ])
    def test_single_step_epochs_that_cannot_warm_up_exit_2(
            self, tmp_path, capsys, monkeypatch, blend, match):
        """At batch 64 each 12-trial fold trains one step per epoch, so
        one checkpoint per epoch; the blend plan fails before any fold
        is filtered."""
        def no_fit(*args, **kwargs):
            raise AssertionError("fbcsp_fit reached")

        monkeypatch.setattr(evalmetrics, "fbcsp_fit", no_fit)
        cfg_path, _ = mini_config(
            tmp_path, blend=blend, train={"batch_size": 64, "max_epochs": 2})
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "fold 0 (12 training trials)" in err
        assert match in err

    def test_null_data_path_exits_2(self, tmp_path, capsys):
        cfg_path, _ = mini_config(tmp_path, data={"path": None})
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "data.path" in err


class TestReproducibility:
    def test_same_config_same_bytes(self, tmp_path):
        logs = []
        for name in ("one", "two"):
            sub = tmp_path / name
            sub.mkdir()
            cfg_path, _ = mini_config(sub)
            assert main(["train", "--config", str(cfg_path)]) == 0
            logs.append((sub / "run" / "trainlog_fold0.csv").read_bytes())
        assert logs[0] == logs[1]


def test_readme_lists_every_subcommand():
    """The README's CLI block names exactly the parser's subcommands."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    documented = set(re.findall(r"^specblend\s+(\S+)", block, re.M))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)
