import dataclasses
import json
import os
import pickle
import re

import numpy as np
import pytest

import gcl
from gcl.cli import CHECKPOINT_COMMANDS, COMMANDS, LABELED_COMMANDS, _write_json, dispatch, main
from gcl.config import ConfigError, RunConfig, default_config, parse_config_text, parse_pool_spec


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    ds = gcl.make_corpus(24, families=("cycle", "star"), size_range=(6, 10), seed=21)
    gcl.save_tudataset(ds, str(path), name="SYN")
    return str(path)


@pytest.fixture(scope="module")
def twelve_dir(tmp_path_factory):
    """12 graphs, 6 per class, saved twice: SYN with graph labels and NOLAB without them."""
    path = tmp_path_factory.mktemp("twelve")
    ds = gcl.make_corpus(12, families=("cycle", "star"), size_range=(6, 10), seed=21)
    for name in ("SYN", "NOLAB"):
        gcl.save_tudataset(ds, str(path), name=name)
    os.remove(path / "NOLAB_graph_labels.txt")
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

    def test_pool_spec_alpha_rejected_where_unused(self):
        with pytest.raises(ConfigError, match="'Subgraph:0.2:1.5'.*alpha"):
            parse_pool_spec("NodeDrop:0.3:1.5, Subgraph:0.2:1.5")

    @pytest.mark.parametrize("entry", ["Identity:0.7", "Identity:0.2:0", "Identity:"])
    def test_pool_spec_identity_strength_rejected(self, entry):
        with pytest.raises(ConfigError, match=f"{entry!r}: Identity takes no ratio or alpha"):
            parse_pool_spec(f"NodeDrop:0.3, {entry}")

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

    def test_config_pickles_as_gcl_config_runconfig(self):
        cfg = parse_config_text(EVERY_KEY_SET)
        assert type(cfg).__module__ == "gcl.config" and pickle.loads(pickle.dumps(cfg)) == cfg

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

    @pytest.mark.parametrize("flag, setting", [(["--workers", "2"], ""), ([], "workers = 2\n")])
    def test_workers_without_fork_rejected_before_loading(self, tmp_path, corpus_dir, capsys, monkeypatch,
                                                           flag, setting):
        monkeypatch.setattr("multiprocessing.get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr("gcl.cli.load_tudataset", lambda *a: pytest.fail("dataset loaded"))
        cfg = tmp_path / "cfg.ini"
        config_file(tmp_path, corpus_dir, name=cfg.name)
        cfg.write_text(cfg.read_text().replace("[run]\n", "[run]\n" + setting))
        out = tmp_path / "nofork"
        assert main(["aug-grid", "--config", str(cfg), "--output", str(out), *flag]) == 1
        assert "workers = 2 needs forked worker processes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, files", [
        ("aug-grid", "kinds = NodeDrop\n", ("metrics.json", "grid_gain.csv", "grid_accuracy.csv")),
        ("strength-sweep", "kind = NodeDrop\nratios = 0.1,0.2\n", ("metrics.json", "sweep.csv")),
        ("pattern-sweep", "kind = AttrMask\nalphas = -1,1\n", ("metrics.json", "sweep.csv")),
        ("loss-compare", "", ("metrics.json", "curves.csv")),
    ])
    def test_workers_leave_metric_files_byte_identical(self, tmp_path, corpus_dir, command, extra, files):
        cfg = config_file(tmp_path, corpus_dir, extra="\n[sweep]\n" + extra)
        runs = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert main([command, "--config", cfg, "--output", str(out), "--workers", str(workers)]) == 0
            runs[workers] = {f: (out / f).read_bytes() for f in files}
            events = [json.loads(line) for line in open(out / "run.jsonl")]
            done = events[-2]["payload"]
            assert done["workers"] == workers and "children_peak_rss_mb" in done
        assert runs[1] == runs[2]
        assert done["children_peak_rss_mb"] > 0.0  # the workers of the second run were reaped

    def test_worker_failure_is_exit_2(self, tmp_path, corpus_dir, capsys, monkeypatch):
        def fail(*args, **kwargs):  # inherited by the forked workers
            raise FloatingPointError("cell failed in a worker")

        monkeypatch.setattr("gcl.pipelines.pretrain", fail)
        cfg = config_file(tmp_path, corpus_dir, extra="\n[sweep]\nkinds = NodeDrop\n")
        assert main(["aug-grid", "--config", cfg, "--output", str(tmp_path / "fail"), "--workers", "2"]) == 2
        assert "FloatingPointError: cell failed in a worker" in capsys.readouterr().err

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

    def test_identity_ratio_is_exit_1_before_output(self, tmp_path, corpus_dir, capsys, monkeypatch):
        monkeypatch.setattr("gcl.cli.load_tudataset", lambda *a: pytest.fail("dataset loaded"))
        cfg = tmp_path / "cfg.ini"
        config_file(tmp_path, corpus_dir, name=cfg.name)
        cfg.write_text(cfg.read_text().replace("[pretrain]\n", "[pretrain]\npool_j = Subgraph, Identity:0.7\n"))
        out = tmp_path / "out"
        assert main(["pretrain", "--config", str(cfg), "--output", str(out)]) == 1
        assert "'Identity:0.7': Identity takes no ratio or alpha" in capsys.readouterr().err
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

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c not in CHECKPOINT_COMMANDS])
    def test_checkpoint_rejected_where_unread(self, tmp_path, corpus_dir, capsys, monkeypatch, command):
        monkeypatch.setattr("gcl.cli.load_tudataset", lambda *a: pytest.fail("dataset loaded"))
        out = tmp_path / "out"
        code = main([command, "--config", config_file(tmp_path, corpus_dir), "--checkpoint", "/nonexistent.json",
                     "--output", str(out)])
        assert code == 1
        assert f"{command} does not read --checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_grad_check_passes_without_config(self, tmp_path, capsys):
        assert main(["grad-check", "--output", str(tmp_path / "gc")]) == 0
        assert "PASS" in capsys.readouterr().out
        doc = json.load(open(tmp_path / "gc" / "gradcheck.json"))
        assert doc["passed"] is True
        assert all(r["redraws"] == 0 for r in doc["checks"].values())  # seed 0 has no kink within h

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

    def test_probe_records_selected_l2_and_wall_clock(self, tmp_path, corpus_dir):
        out = str(tmp_path / "probe")
        assert main(["probe", "--config", config_file(tmp_path, corpus_dir), "--output", out]) == 0
        config = json.load(open(os.path.join(out, "metrics.json")))["config"]
        assert len(config["selected_l2"]) == 2 and set(config["selected_l2"]) <= set(config["l2_grid"])
        events = [json.loads(line) for line in open(os.path.join(out, "run.jsonl"))]
        probed = next(e for e in events if e["event"] == "probed")
        assert probed["payload"]["wall_clock"] > 0.0

    def test_run_log_is_jsonl_with_timestamps(self, tmp_path, corpus_dir):
        cfg = config_file(tmp_path, corpus_dir)
        out = str(tmp_path / "logrun")
        assert main(["embed", "--config", cfg, "--output", out]) == 0
        events = [json.loads(line) for line in open(os.path.join(out, "run.jsonl"))]
        assert events[0]["event"] == "start"
        assert events[-1]["event"] == "done"
        assert all("timestamp" in e for e in events)

    @pytest.mark.parametrize("command", LABELED_COMMANDS)
    @pytest.mark.parametrize("name, split, message", [
        ("SYN", "folds = 7", "folds = 7 would leave a test fold empty: the largest class has 6 graphs"),
        ("SYN", "folds = 40", "folds = 40 would leave a test fold empty: the largest class has 6 graphs"),
        ("NOLAB", "folds = 2", "on NOLAB: needs graph labels of >= 2 classes"),
    ])
    def test_split_preconditions_are_exit_1_before_output(self, tmp_path, twelve_dir, capsys, command, name,
                                                           split, message):
        cfg = tmp_path / "cfg.ini"
        config_file(tmp_path, twelve_dir, name=cfg.name)
        cfg.write_text(cfg.read_text().replace("name = SYN", f"name = {name}").replace("folds = 2", split))
        out = tmp_path / "out"
        checkpoint = ["--checkpoint", str(tmp_path / "unread.json")] if command == "finetune" else []
        assert main([command, "--config", str(cfg), "--output", str(out), *checkpoint]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_adam_moment_is_exit_2(self, tmp_path, corpus_dir, capsys):
        # At temperature 1e-300 the loss reads about -1e299 and squared gradients overflow.
        cfg = tmp_path / "cfg.ini"
        config_file(tmp_path, corpus_dir, name=cfg.name)
        cfg.write_text(cfg.read_text().replace("[pretrain]\n", "[pretrain]\ntemperature = 1e-300\n"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["pretrain", "--config", str(cfg), "--output", str(tmp_path / "tiny")]) == 2
        assert "FloatingPointError: non-finite gradient or Adam moment" in capsys.readouterr().err

    def test_extreme_degree_bias_pretrains(self, tmp_path, corpus_dir):
        cfg = tmp_path / "cfg.ini"
        config_file(tmp_path, corpus_dir, name=cfg.name)
        pools = "pool_i = NodeDrop:0.2:900\npool_j = AttrMask:0.2:-900\n"
        cfg.write_text(cfg.read_text().replace("[pretrain]\n", "[pretrain]\n" + pools))
        assert main(["pretrain", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 0

    def test_extreme_degree_bias_pattern_sweep(self, tmp_path, corpus_dir):
        cfg = config_file(tmp_path, corpus_dir, extra="\n[sweep]\nkind = NodeDrop\nalphas = 800,-800\n")
        assert main(["pattern-sweep", "--config", cfg, "--output", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command, section, lines", [
        ("pretrain", "[pretrain]\n", "pool_i = NodeDrop:0.2:1e308\n"),
        ("pattern-sweep", "[sweep]\n", "kind = NodeDrop\nalphas = 1,-1e308\n"),
    ])
    def test_alpha_beyond_its_range_is_exit_1_before_output(self, tmp_path, corpus_dir, capsys, command, section,
                                                           lines):
        cfg = tmp_path / "cfg.ini"
        config_file(tmp_path, corpus_dir, extra="\n[sweep]\n", name=cfg.name)
        cfg.write_text(cfg.read_text().replace(section, section + lines))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 1
        assert "must lie in [-1e+306, 1e+306]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, lines, message", [
        ("pattern-sweep", "kind = Subgraph\nalphas = 0\n", "[sweep] kind must be NodeDrop or AttrMask"),
        ("strength-sweep", "ratios =\n", "[sweep] ratios: needs 1 or more values, got 0"),
        ("pattern-sweep", "kind = NodeDrop\nalphas =\n", "[sweep] alphas: needs 1 or more values, got 0"),
        ("loss-compare", "pairs = NodeDrop+NodeDrop\n", "[sweep] pairs: needs 2 or more values, got 1"),
    ])
    def test_bad_sweep_input_is_exit_1_before_output(self, tmp_path, corpus_dir, capsys, command, lines, message):
        cfg = config_file(tmp_path, corpus_dir, extra="\n[sweep]\n" + lines)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "loss-compare"])
    def test_one_graph_is_exit_1_before_output(self, tmp_path, capsys, command):
        gcl.save_tudataset(gcl.make_corpus(1, families=("cycle",)), str(tmp_path / "data"), name="SYN")
        cfg = config_file(tmp_path, str(tmp_path / "data"))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output", str(out)]) == 1
        assert "on SYN: pretraining needs >= 2 graphs (the loss needs a negative), got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_training_folds_too_small_is_exit_1_before_output(self, tmp_path, capsys):
        # 4 graphs a class in 2 folds leave 4 training graphs a fold, too few for the probe's 5 inner folds.
        gcl.save_tudataset(gcl.make_corpus(8, families=("cycle", "star")), str(tmp_path / "data"), name="SYN")
        cfg = config_file(tmp_path, str(tmp_path / "data"))
        out = tmp_path / "out"
        assert main(["probe", "--config", cfg, "--output", str(out)]) == 1
        assert "folds = 2 leaves 4 graphs in a training fold, too few for its inner split" in capsys.readouterr().err
        assert not out.exists()
        assert main(["scratch", "--config", cfg, "--output", str(out)]) == 0  # finetune deals no inner split


def read_csv(path):
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    return header, rows


def assert_floats(cells, values):
    """Each cell reads back with float() as exactly its in-memory value (a cell written as np.float64(x) raises)."""
    assert len(cells) == len(values)
    for cell, value in zip(cells, values):
        assert float(cell) == value, (cell, value)


class TestMetricCSVs:
    """The metric CSV format: exact headers, integer cells as plain integers, and float cells that read back as
    the values the pipeline computed, which a wrapper around the CLI's pipeline call records."""

    def run(self, tmp_path, corpus_dir, monkeypatch, command, call, sweep=""):
        results = []
        original = getattr(gcl.cli, call)
        monkeypatch.setattr(gcl.cli, call, lambda *a, **k: results.append(original(*a, **k)) or results[-1])
        cfg = config_file(tmp_path, corpus_dir, extra="\n[sweep]\nseeds = 0,1\n" + sweep)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--output", str(out)]) == 0
        (result,) = results
        return result, out

    def test_folds(self, tmp_path, corpus_dir, monkeypatch):
        report, out = self.run(tmp_path, corpus_dir, monkeypatch, "scratch", "train_from_scratch")
        header, rows = read_csv(out / "folds.csv")
        assert header == ["fold", "accuracy"]
        assert [row[0] for row in rows] == ["0", "1", "mean", "std"]
        assert_floats([row[1] for row in rows], [*report.fold_accuracies, report.mean, report.std])

    def test_loss_curve(self, tmp_path, corpus_dir, monkeypatch):
        (_, curve), out = self.run(tmp_path, corpus_dir, monkeypatch, "pretrain", "pretrain")
        header, rows = read_csv(out / "loss_curve.csv")
        assert header == ["epoch", "mean_loss"]
        assert [row[0] for row in rows] == ["1", "2"]
        assert_floats([row[1] for row in rows], curve.losses)

    def test_embeddings(self, tmp_path, corpus_dir, monkeypatch):
        emb, out = self.run(tmp_path, corpus_dir, monkeypatch, "embed", "embed_dataset")
        labels = gcl.load_tudataset(corpus_dir, "SYN").labels
        header, rows = read_csv(out / "embeddings.csv")
        assert header == ["graph", "label"] + [f"e{j}" for j in range(8)]
        assert [row[:2] for row in rows] == [[str(i), str(int(y))] for i, y in enumerate(labels)]
        assert_floats([cell for row in rows for cell in row[2:]], emb.ravel().tolist())

    def test_grid(self, tmp_path, corpus_dir, monkeypatch):
        result, out = self.run(tmp_path, corpus_dir, monkeypatch, "aug-grid", "aug_grid", "kinds = NodeDrop\n")
        for name, matrix in (("grid_gain.csv", result.gains), ("grid_accuracy.csv", result.accuracies)):
            header, rows = read_csv(out / name)
            assert header == ["kind", "NodeDrop", "Identity"]
            assert [row[0] for row in rows] == ["NodeDrop", "Identity"]
            assert_floats([cell for row in rows for cell in row[1:]], matrix.ravel().tolist())

    def test_sweep(self, tmp_path, corpus_dir, monkeypatch):
        points, out = self.run(tmp_path, corpus_dir, monkeypatch, "strength-sweep", "strength_sweep",
                               "kind = NodeDrop\nratios = 0.1,0.3\n")
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["ratio", "acc_mean", "acc_std", "acc_seed0", "acc_seed1", "gain_seed0", "gain_seed1"]
        assert_floats([cell for row in rows for cell in row],
                      [v for pt in points for v in (pt.value, pt.mean, pt.std, *pt.accuracies, *pt.gains)])

    def test_curves(self, tmp_path, corpus_dir, monkeypatch):
        curves, out = self.run(tmp_path, corpus_dir, monkeypatch, "loss-compare", "loss_curve_compare")
        header, rows = read_csv(out / "curves.csv")
        assert header == ["epoch", "AttrMask+AttrMask", "AttrMask+NodeDrop"]
        assert [row[0] for row in rows] == ["1", "2"]
        assert_floats([cell for row in rows for cell in row[1:]],
                      [loss for losses in zip(*(curve.losses for _, curve in curves)) for loss in losses])
