import dataclasses
import json
import os
import re

import numpy as np
import pytest

import gcl
from gcl.cli import _write_json, dispatch, main
from gcl.config import ConfigError, RunConfig, default_config, parse_config_text, parse_pool_spec


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    ds = gcl.make_corpus(24, families=("cycle", "star"), size_range=(6, 10), seed=21)
    gcl.save_tudataset(ds, str(path), name="SYN")
    return str(path)


def config_file(tmp_path, corpus_dir, extra="", name="cfg.ini"):
    text = (
        "[run]\nseed = 3\n\n"
        f"[dataset]\npath = {corpus_dir}\nname = SYN\ncategory = synthetic\n\n"
        "[encoder]\narch = gin\nhidden_dim = 8\nnum_layers = 2\n\n"
        "[pretrain]\nbatch_size = 8\nepochs = 2\n\n"
        "[split]\nlabel_rate = 0.5\nfolds = 2\n\n"
        "[finetune]\nepochs = 2\n" + extra
    )
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config_text("[dataset]\npath = d\nname = N\n")
        assert cfg.seed == 0
        assert cfg.temperature == 0.5
        assert cfg.encoder.num_layers == 3
        assert cfg.encoder.hidden_dim == 32
        assert cfg.batch_size == 128
        assert cfg.label_rate == 0.1
        assert cfg.pool_i == "default"

    def test_negative_temperature_rejected(self):
        with pytest.raises(ConfigError, match="temperature"):
            parse_config_text("[pretrain]\ntemperature = -1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="foo"):
            parse_config_text("[pretrain]\nfoo = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config_text("[mystery]\nx = 1\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config_text("[run]\nnot a key value pair\n")

    def test_bad_pool_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[pretrain]\npool_i = Bogus:0.2\n")

    def test_pool_spec_parsing(self):
        pool = parse_pool_spec("NodeDrop:0.3:1.5, Subgraph")
        assert len(pool) == 2
        assert pool.specs[0].kind == "NodeDrop"
        assert pool.specs[0].ratio == 0.3
        assert pool.specs[0].alpha == 1.5
        assert pool.specs[1].ratio == 0.2

    def test_sweep_lists(self):
        cfg = parse_config_text("[sweep]\nratios = 0.1, 0.3\nalphas = -1, 1\npairs = NodeDrop+Subgraph\n")
        assert cfg.sweep_ratios == [0.1, 0.3]
        assert cfg.sweep_alphas == [-1.0, 1.0]
        assert cfg.sweep_pairs == [("NodeDrop", "Subgraph")]

    def test_bad_category_rejected(self):
        with pytest.raises(ConfigError, match="category"):
            parse_config_text("[dataset]\ncategory = weird\n")

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("encoder", "arch", "gat"),
            ("encoder", "readout", "max"),
            ("encoder", "num_layers", "0"),
            ("encoder", "hidden_dim", "0"),
            ("pretrain", "temperature", "0"),
            ("pretrain", "batch_size", "1"),
            ("pretrain", "epochs", "0"),
            ("pretrain", "learning_rate", "0"),
            ("pretrain", "loss_variant", "both"),
            ("split", "label_rate", "1.5"),
            ("split", "folds", "1"),
            ("run", "seed", "-1"),
            ("run", "workers", "0"),
            ("finetune", "epochs", "0"),
            ("finetune", "learning_rate", "0"),
            ("finetune", "batch_size", "0"),
            ("sweep", "ratios", "0.9"),
            ("sweep", "ratio", "1.0"),
            ("sweep", "kind", "Bogus"),
            ("sweep", "pairs", "NodeDrop"),
            ("sweep", "seeds", "-1"),
        ],
    )
    def test_bad_value_error_names_its_key(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}\b"):
            parse_config_text(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize(
        "section,key",
        [
            ("pretrain", "learning_rate"),
            ("pretrain", "temperature"),
            ("encoder", "gin_eps"),
            ("finetune", "learning_rate"),
            ("sweep", "alphas"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_number_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: must be a finite number"):
            parse_config_text(f"[{section}]\n{key} = {value}\n")


EVERY_KEY_SET = """
[run]
seed = 7
output = out/every
workers = 2

[dataset]
path = data
name = SYN
category = social-sparse

[encoder]
arch = gin
num_layers = 2
hidden_dim = 16
readout = sum
gin_eps = 0.25

[pretrain]
batch_size = 64
temperature = 0.2
epochs = 3
learning_rate = 0.01
loss_variant = inclusive
symmetric = true
pool_i = NodeDrop:0.3:1.5, Subgraph
pool_j = AttrMask

[split]
label_rate = 0.5
folds = 3
stratified = false

[finetune]
epochs = 4
learning_rate = 0.005
batch_size = 16

[sweep]
kinds = NodeDrop,AttrMask
kind = AttrMask
ratios = 0.1,0.25
alphas = -1.5,0,2
pairs = NodeDrop+Subgraph
seeds = 1,2
ratio = 0.3
"""


class TestConfigEcho:
    def test_every_key_set_differs_from_defaults(self):
        cfg, defaults = parse_config_text(EVERY_KEY_SET), default_config()
        for f in dataclasses.fields(RunConfig):
            assert getattr(cfg, f.name) != getattr(defaults, f.name), f.name

    def test_readme_example_config_parses(self):
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config_text(block)
        assert (cfg.dataset_name, cfg.category, cfg.arch, cfg.readout) == (
            "PROTEINS", "biochemical", "gcn", "mean")

    @pytest.mark.parametrize("text", ["", EVERY_KEY_SET], ids=["defaults", "every-key-set"])
    def test_echo_parses_back_to_the_same_config(self, text):
        cfg = parse_config_text(text)
        assert parse_config_text(cfg.effective_ini()) == cfg


class TestAtomicWrites:
    """A failure mid-write leaves the previous file intact and no temporary file."""

    @staticmethod
    def previous(directory, name):
        path = directory / name
        path.write_text("previous contents\n")
        return str(path)

    @staticmethod
    def assert_intact(directory, path):
        assert open(path).read() == "previous contents\n"
        assert not [f for f in os.listdir(directory) if f.endswith(".tmp")]

    def test_metric_file(self, tmp_path):
        path = self.previous(tmp_path, "metrics.json")
        with pytest.raises(TypeError):  # "a" is written before "b" fails to serialize
            _write_json(path, {"a": 1.0, "b": object()})
        self.assert_intact(tmp_path, path)

    def test_checkpoint(self, tmp_path, monkeypatch):
        path = self.previous(tmp_path, "checkpoint.json")
        params = gcl.init_params(gcl.EncoderConfig(hidden_dim=4), 2, 0, np.random.default_rng(0))

        def dump_then_fail(obj, fh, **kwargs):
            fh.write('{"format": ')
            raise OSError("disk full")

        monkeypatch.setattr(gcl.model.json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="disk full"):
            gcl.save_checkpoint(params, path)
        self.assert_intact(tmp_path, path)

    def test_config_echo(self, tmp_path, monkeypatch):
        path = self.previous(tmp_path, "config.effective.ini")
        cfg = parse_config_text(f"[run]\noutput = {tmp_path}\n")

        def fail(self):
            raise RuntimeError("echo failed")

        monkeypatch.setattr(RunConfig, "effective_ini", fail)
        with pytest.raises(RuntimeError, match="echo failed"):
            dispatch("grad-check", cfg)
        self.assert_intact(tmp_path, path)


class TestCLI:
    def test_pretrain_then_finetune(self, tmp_path, corpus_dir):
        cfg = config_file(tmp_path, corpus_dir)
        out_pre = str(tmp_path / "pre")
        assert main(["pretrain", "--config", cfg, "--output", out_pre]) == 0
        assert os.path.exists(os.path.join(out_pre, "checkpoint.json"))
        assert os.path.exists(os.path.join(out_pre, "loss_curve.csv"))
        assert os.path.exists(os.path.join(out_pre, "config.effective.ini"))
        out_ft = str(tmp_path / "ft")
        code = main(["finetune", "--config", cfg, "--checkpoint",
                     os.path.join(out_pre, "checkpoint.json"), "--output", out_ft])
        assert code == 0
        metrics = json.load(open(os.path.join(out_ft, "metrics.json")))
        assert metrics["protocol"] == "finetune"
        assert len(metrics["fold_accuracies"]) == 2

    def test_workers_zero_rejected_before_loading(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[dataset]\npath = {tmp_path / 'missing'}\nname = SYN\n")
        out = tmp_path / "w0"
        assert main(["pretrain", "--config", str(cfg), "--workers", "0", "--output", str(out)]) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_is_usage_error(self):
        assert main(["pretrain"]) == 1

    def test_bad_config_value_is_exit_1(self, tmp_path, corpus_dir):
        cfg = config_file(tmp_path, corpus_dir, extra="\n[sweep]\nratios = 0.9\n")
        assert main(["strength-sweep", "--config", cfg, "--output", str(tmp_path / "x")]) == 1

    def test_finetune_without_checkpoint_is_exit_1(self, tmp_path, corpus_dir):
        cfg = config_file(tmp_path, corpus_dir)
        assert main(["finetune", "--config", cfg, "--output", str(tmp_path / "y")]) == 1

    def test_corrupt_checkpoint_is_runtime_error(self, tmp_path, corpus_dir):
        cfg = config_file(tmp_path, corpus_dir)
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "nonsense"}')
        code = main(["finetune", "--config", cfg, "--checkpoint", str(bad),
                     "--output", str(tmp_path / "z")])
        assert code == 2

    @pytest.mark.parametrize("suffix, text", [
        ("A", "1, 2, 3\n"),  # three fields on an edge line
        ("graph_indicator", "1\n1\n3\n"),  # graph id 2 has no nodes
        ("graph_indicator", "1\nx\n"),  # not a number
    ])
    def test_malformed_dataset_file_is_exit_1(self, tmp_path, capsys, suffix, text):
        data = tmp_path / "data"
        data.mkdir()
        files = {"A": "1, 2\n2, 1\n", "graph_indicator": "1\n1\n", suffix: text}
        for key, body in files.items():
            (data / f"SYN_{key}.txt").write_text(body)
        out = tmp_path / "out"
        assert main(["pretrain", "--config", config_file(tmp_path, str(data)), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "dataset SYN" in err and f"SYN_{suffix}.txt" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["finetune", "embed", "probe"])
    def test_checkpoint_feature_dim_mismatch_is_exit_1(self, tmp_path, corpus_dir, capsys, command):
        ckpt = str(tmp_path / "three.json")
        encoder = gcl.EncoderConfig(arch="gin", hidden_dim=8, num_layers=2)
        gcl.save_checkpoint(gcl.init_params(encoder, 3, 2, np.random.default_rng(0)), ckpt)
        out = tmp_path / "out"
        code = main([command, "--config", config_file(tmp_path, corpus_dir), "--checkpoint", ckpt,
                     "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "three.json" in err and "feature_dim 3" in err and "feature_dim 2" in err
        assert not (out / "metrics.json").exists() and not (out / "embeddings.csv").exists()

    def test_grad_check_passes_without_config(self, tmp_path, capsys):
        assert main(["grad-check", "--output", str(tmp_path / "gc")]) == 0
        assert "PASS" in capsys.readouterr().out
        doc = json.load(open(tmp_path / "gc" / "gradcheck.json"))
        assert doc["passed"] is True

    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 1

    def test_env_var_output_override(self, tmp_path, corpus_dir, monkeypatch):
        cfg = config_file(tmp_path, corpus_dir)
        target = tmp_path / "envout"
        monkeypatch.setenv("GCL_OUTPUT", str(target))
        assert main(["embed", "--config", cfg]) == 0
        assert (target / "embeddings.csv").exists()

    def test_scratch_probe_and_embed(self, tmp_path, corpus_dir):
        cfg = config_file(tmp_path, corpus_dir)
        for command in ("scratch", "probe", "embed"):
            out = str(tmp_path / command)
            assert main([command, "--config", cfg, "--output", out]) == 0
        emb_lines = open(tmp_path / "embed" / "embeddings.csv").read().strip().splitlines()
        assert len(emb_lines) == 25  # header + 24 graphs

    def test_rerun_metrics_byte_identical(self, tmp_path, corpus_dir):
        cfg = config_file(tmp_path, corpus_dir)
        a, b = str(tmp_path / "runA"), str(tmp_path / "runB")
        assert main(["probe", "--config", cfg, "--output", a]) == 0
        assert main(["probe", "--config", cfg, "--output", b]) == 0
        for fname in ("metrics.json", "folds.csv"):
            assert open(os.path.join(a, fname), "rb").read() == open(os.path.join(b, fname), "rb").read()
        # the config echo may differ only in its own output path
        echo_a = [l for l in open(os.path.join(a, "config.effective.ini")) if not l.startswith("output")]
        echo_b = [l for l in open(os.path.join(b, "config.effective.ini")) if not l.startswith("output")]
        assert echo_a == echo_b

    def test_run_log_is_jsonl_with_timestamps(self, tmp_path, corpus_dir):
        cfg = config_file(tmp_path, corpus_dir)
        out = str(tmp_path / "logrun")
        assert main(["embed", "--config", cfg, "--output", out]) == 0
        events = [json.loads(line) for line in open(os.path.join(out, "run.jsonl"))]
        assert events[0]["event"] == "start"
        assert events[-1]["event"] == "done"
        assert all("timestamp" in e for e in events)
