"""Command-line behavior: artifact layout, exit codes, hash stamping,
and cross-command flows (synth -> train -> eval, sweep) on a miniature
configuration."""

import argparse
import copy
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from specblend import blobio, cli, evalmetrics
from specblend.cli import build_parser, main
from specblend.config import RunConfig, load_config
from specblend.evalmetrics import predict_proba
from specblend.fbcsp import transform_batch
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
        ts = load_trialset(tmp_path / "data" / "dataset.npz")
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
        ts = load_trialset(tmp_path / "data" / "dataset.npz")
        assert ts.n_trials == 1 * 2 * 2 * 3
        assert ts.n_samples == 100

    def test_hash_stamped_in_manifest(self, tmp_path):
        main(["synth", "--out", str(tmp_path / "data")])
        _, meta = blobio.read_arrays(tmp_path / "data" / "dataset.npz",
                                     "trialset")
        assert len(meta["config_hash"]) == 16

    def test_pinned_spec_hash(self, tmp_path):
        """The spec hash is the canonical-JSON hash of the resolved spec,
        a JSON integer duration kept as an integer."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"n_subjects": 1, "trials_per_class_per_session": 3,
             "duration": 1, "n_channels": 4}))
        assert main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "data")]) == 0
        _, meta = blobio.read_arrays(tmp_path / "data" / "dataset.npz",
                                     "trialset")
        assert meta["config_hash"] == "eb96321a91a0723f"

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
        for name in ("transform_fold0.npz", "model_fold0.npz",
                     "trainlog_fold0.csv"):
            assert (run / name).exists(), name

    def test_hash_on_every_output(self, trained):
        _, tmp, _, _ = trained
        run = tmp / "run"
        first = (run / "trainlog_fold0.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=")
        for name, kind in (("transform_fold0.npz", "spectral_spatial_transform"),
                           ("model_fold0.npz", "model-state")):
            _, meta = blobio.read_arrays(run / name, kind)
            assert "config_hash" in meta

    def test_fold_out_of_range_exits_2(self, trained, capsys):
        _, _, cfg_path, _ = trained
        code = main(["train", "--config", str(cfg_path), "--fold", "99"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_train_log_leaves_the_warm_up(self, trained):
        """``trainlog_fold0.csv`` reaches checkpoints past the warm-up,
        where the blend weights differ."""
        run = trained[1] / "run"
        log_lines = (run / "trainlog_fold0.csv").read_text().splitlines()
        log = [dict(zip(log_lines[1].split(","), line.split(",")))
               for line in log_lines[2:-1]]
        assert any(r["w_mse"] != r["w_ce"] for r in log), "never left the warm-up"

    def test_eval_checkpoint_roundtrip(self, trained, capsys):
        _, tmp, cfg_path, _ = trained
        run = tmp / "run"
        code = main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(run / "model_fold0.npz"),
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
                     "--checkpoint", str(run / "model_fold0.npz"),
                     "--transform", str(run / "transform_fold0.npz"),
                     "--fold", "1"])
        assert code == 3
        assert "fingerprint" in capsys.readouterr().err

    def test_eval_checkpoint_of_another_fold_exits_3(self, trained,
                                                     tmp_path, capsys):
        """A checkpoint trained for fold 0 is refused on fold 1, even
        with fold 1's own transform: fold 0's training set holds fold 1
        trials."""
        _, tmp, cfg_path, _ = trained
        other_cfg, _ = mini_config(tmp_path)
        assert main(["train", "--config", str(other_cfg), "--fold", "1"]) == 0
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(tmp / "run" / "model_fold0.npz"),
                     "--transform", str(tmp_path / "run" / "transform_fold1.npz"),
                     "--fold", "1"])
        assert code == 3
        assert "trained for fold 0, not fold 1" in capsys.readouterr().err

    def test_eval_checkpoint_of_another_shape_exits_2(self, trained,
                                                      tmp_path, capsys):
        """A latent-1 checkpoint does not load into the config's model."""
        _, tmp, cfg_path, _ = trained
        small_cfg, _ = mini_config(tmp_path, model={"latent": 1})
        assert main(["train", "--config", str(small_cfg)]) == 0
        capsys.readouterr()
        code = main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(tmp_path / "run" / "model_fold0.npz"),
                     "--transform", str(tmp / "run" / "transform_fold0.npz"),
                     "--fold", "0"])
        assert code == 2
        assert "enc_fc.weight" in capsys.readouterr().err


class TestOneFoldPipeline:
    def _check_every_fold(self, tmp_path, monkeypatch, cfg_path):
        """``train``/``eval --checkpoint`` on each fold reproduce that
        fold of the protocol that plain ``eval`` runs: the same train
        log, bit-identical test probabilities from the saved model and
        transform, and the same test metrics in the report."""
        run = tmp_path / "run"
        cfg = load_config(cfg_path)
        ts = cfg.load_dataset()
        n_folds = len(make_splits(ts, cfg.protocol_kind, cfg.protocol_k,
                                  cfg.train.seed).folds)

        def recorder(into, score_fold):
            def record(model, xf, ts, fold):
                into.append(predict_proba(
                    model, transform_batch(xf, ts.select(fold.test))))
                return score_fold(model, xf, ts, fold)
            return record

        saved = []
        monkeypatch.setattr(cli, "score_fold", recorder(saved, cli.score_fold))
        for k in range(n_folds):
            assert main(["train", "--config", str(cfg_path),
                         "--fold", str(k)]) == 0
            assert main(["eval", "--config", str(cfg_path),
                         "--checkpoint", str(run / f"model_fold{k}.npz"),
                         "--fold", str(k)]) == 0

        in_process, logs = [], []
        monkeypatch.setattr(evalmetrics, "score_fold",
                            recorder(in_process, evalmetrics.score_fold))
        real_train = evalmetrics.train

        def train(*args, **kwargs):
            result = real_train(*args, **kwargs)
            logs.append(result.log)
            return result

        monkeypatch.setattr(evalmetrics, "train", train)
        assert main(["eval", "--config", str(cfg_path)]) == 0

        full = json.loads((run / "eval_report.json").read_text())["folds"]
        assert len(saved) == len(in_process) == len(logs) == len(full) == n_folds
        for k in range(n_folds):
            write_train_log_csv(logs[k], tmp_path / "protocol_log.csv",
                                config_hash=cfg.config_hash())
            assert ((run / f"trainlog_fold{k}.csv").read_bytes()
                    == (tmp_path / "protocol_log.csv").read_bytes()), k
            assert np.array_equal(saved[k], in_process[k]), k
            single = json.loads((run / f"eval_fold{k}.json").read_text())["folds"]
            for key in ("accuracy", "f1", "auc"):
                assert single[0][key] == full[k][key], (k, key)

    def test_cli_fold_matches_protocol_fold(self, tmp_path, monkeypatch):
        cfg_path, _ = mini_config(tmp_path)
        self._check_every_fold(tmp_path, monkeypatch, cfg_path)

    def test_cli_fold_matches_protocol_fold_leave_one_subject_out(
            self, tmp_path, monkeypatch):
        cfg_path, doc = mini_config(
            tmp_path, protocol={"kind": "subject_independent", "k": 2})
        doc["data"]["synth"]["n_subjects"] = 2
        cfg_path.write_text(json.dumps(doc))
        self._check_every_fold(tmp_path, monkeypatch, cfg_path)


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

    @pytest.mark.parametrize("grid, name", [
        ("seed=1,2", "seed"),
        ("data.synth.n_channels=5,6", "data.synth.n_channels"),
    ])
    def test_grid_path_of_any_depth(self, tmp_path, grid, name):
        cfg_path, doc = mini_config(tmp_path,
                                    train={"batch_size": 8, "max_epochs": 1})
        assert main(["sweep", "--config", str(cfg_path), "--grid", grid]) == 0
        run = tmp_path / "run"
        summary = (run / "sweep_summary.csv").read_text().splitlines()
        assert summary[1].startswith(f"point,{name},accuracy_mean")
        assert [line.split(",")[1] for line in summary[2:]] == \
            grid.partition("=")[2].split(",")
        hashes = set()
        for index, value in enumerate(grid.partition("=")[2].split(",")):
            point = copy.deepcopy(doc)
            *parents, key = name.split(".")
            section = point
            for part in parents:
                section = section[part]
            section[key] = int(value)
            report = json.loads(
                (run / f"report_point{index:03d}.json").read_text())
            assert report["config_hash"] == \
                RunConfig.from_dict(point).config_hash()
            hashes.add(report["config_hash"])
        assert len(hashes) == 2

    @pytest.mark.parametrize("grid", [
        "data.nope.n_channels=3",      # parent missing
        "seed.value=1",                # parent not an object
        "data.synth.n_channels.x=3",   # parent not an object, deeper
        ".seed=1",
    ])
    def test_grid_path_without_a_section_exits_2(self, tmp_path, capsys,
                                                 grid):
        cfg_path, _ = mini_config(tmp_path)
        assert main(["sweep", "--config", str(cfg_path), "--grid", grid]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


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

    def test_synth_spec_of_wrong_type_exits_2(self, tmp_path, capsys):
        """A fractional subject count is a config error, caught before
        any trial is generated."""
        spec = tmp_path / "spec.json"
        spec.write_text('{"n_subjects": 2.5}')
        assert main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "d")]) == 2
        assert "synth spec.n_subjects has invalid type" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

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

    @pytest.mark.parametrize("damage, match", [
        ("nan", "signals must be finite"),
        ("short_labels", "labels must have shape"),
    ])
    def test_bad_dataset_file_exits_2(self, tmp_path, capsys, monkeypatch,
                                      damage, match):
        """A dataset file that no TrialSet can hold fails at load, before
        the filter bank runs."""
        def no_fit(*args, **kwargs):
            raise AssertionError("fbcsp_fit reached")

        monkeypatch.setattr(evalmetrics, "fbcsp_fit", no_fit)
        ts = generate_synthetic(SynthSpec(
            n_subjects=1, trials_per_class_per_session=6, n_channels=6,
            duration=2.0, seed=5))
        arrays = {"signals": ts.signals.copy(), "labels": ts.labels,
                  "subject_ids": ts.subject_ids,
                  "session_ids": ts.session_ids}
        if damage == "nan":
            arrays["signals"][3, 2, 50] = np.nan
        else:
            arrays["labels"] = ts.labels[:-1]
        data = tmp_path / "dataset.npz"
        blobio.write_arrays(data, arrays, {"kind": "trialset", "fs": ts.fs})
        cfg_path, _ = mini_config(tmp_path, data={"path": str(data)})
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: data.path" in err and match in err

    @staticmethod
    def _unreadable(tmp_path, how, other_kind):
        """A path that fails to load: no such file, a leftover JSON
        manifest, or ``other_kind``, a saved object of another kind."""
        if how == "missing":
            return tmp_path / "nope.npz"
        if how == "old_manifest":
            path = tmp_path / "old.json"
            path.write_text('{"format": "float32-blob", "version": 1}')
            return path
        return other_kind

    @pytest.mark.parametrize("how", ["missing", "old_manifest", "wrong_kind"])
    def test_unreadable_data_path_exits_2(self, tmp_path, capsys, trained, how):
        path = self._unreadable(tmp_path, how,
                                trained[1] / "run" / "model_fold0.npz")
        cfg_path, _ = mini_config(tmp_path, data={"path": str(path)})
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: data.path" in err and str(path) in err

    @pytest.mark.parametrize("how", ["missing", "old_manifest", "wrong_kind"])
    def test_unreadable_checkpoint_exits_2(self, tmp_path, capsys, trained, how):
        _, tmp, cfg_path, _ = trained
        path = self._unreadable(tmp_path, how, tmp / "run" / "transform_fold0.npz")
        assert main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(path), "--fold", "0"]) == 2
        err = capsys.readouterr().err
        assert "config error: --checkpoint" in err and str(path) in err

    @pytest.mark.parametrize("how", ["missing", "old_manifest", "wrong_kind"])
    def test_unreadable_transform_exits_2(self, tmp_path, capsys, trained, how):
        _, tmp, cfg_path, _ = trained
        path = self._unreadable(tmp_path, how, tmp / "run" / "model_fold0.npz")
        assert main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(tmp / "run" / "model_fold0.npz"),
                     "--transform", str(path), "--fold", "0"]) == 2
        err = capsys.readouterr().err
        assert "config error: --transform" in err and str(path) in err

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

    def test_synth_and_train_write_identical_npz(self, tmp_path, monkeypatch):
        """Two ``synth`` + ``train`` runs of one config write the same
        bytes for every saved object."""
        cfg_path, doc = mini_config(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc["data"]["synth"]))
        doc.update(output_dir="run", data={"path": "data/dataset.npz"})
        cfg_path.write_text(json.dumps(doc))
        saved = []
        for name in ("one", "two"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert main(["synth", "--spec", str(spec), "--out", "data"]) == 0
            assert main(["train", "--config", str(cfg_path)]) == 0
            saved.append([Path(p).read_bytes() for p in (
                "data/dataset.npz", "run/model_fold0.npz",
                "run/transform_fold0.npz")])
        assert saved[0] == saved[1]


def test_readme_lists_every_subcommand():
    """The README's CLI block names exactly the parser's subcommands."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    documented = set(re.findall(r"^specblend\s+(\S+)", block, re.M))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)
