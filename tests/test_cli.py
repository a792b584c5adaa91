import contextlib
import csv
import hashlib
import inspect
import io
import json
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prunekit as pk
from prunekit.cli import _prune_config, build_parser, main, read_config
from prunekit.pruner import PruneConfig, train_baseline
from tests.conftest import break_rule, prune_configs

FAST_DATA = ["--classes", "3", "--per-class", "20", "--image-size", "8"]
FAST_PRUNE = ["--selection-batches", "2", "--refit-epochs", "1", "--batch-size", "16"]


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "base.prnk"
    rc = main(["train", "--model", str(path), "--epochs", "6", *FAST_DATA])
    assert rc == 0
    return path


class TestTrainEval:
    def test_model_file_written(self, model_path):
        assert model_path.exists()
        assert model_path.read_bytes()[:4] == b"PRNK"

    def test_eval_runs(self, model_path, capsys):
        rc = main(["eval", "--model", str(model_path), *FAST_DATA])
        assert rc == 0
        assert "test_error=" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,named", [("--epochs", "epoch"), ("--batch-size", "batch_size")])
    def test_zero_training_flag_writes_no_model(self, tmp_path, capsys, flag, named):
        # --epochs 0 once saved an untrained net flagged as trained
        path = tmp_path / "base.prnk"
        rc = main(["train", "--model", str(path), "--epochs", "1", *FAST_DATA, flag, "0"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and named in err and "\n" not in err
        assert not path.exists()

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_eta_writes_no_model(self, tmp_path, capsys, value):
        # a negative or non-finite rate once trained a full epoch before failing
        path = tmp_path / "base.prnk"
        rc = main(["train", "--model", str(path), "--epochs", "1", *FAST_DATA, "--eta", value])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and value in err and "\n" not in err
        assert not path.exists()

    def test_memory_error_single_line_error(self, tmp_path, capsys, monkeypatch):
        # a failed allocation once ended in a numpy traceback
        def cmd_train(args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        monkeypatch.setattr(pk.cli, "cmd_train", cmd_train)
        rc = main(["train", "--model", str(tmp_path / "base.prnk"), *FAST_DATA])
        assert rc == 1
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB for an array\n"

    @pytest.mark.parametrize("command,flag", [
        ("eval", "--classes"), ("prune", "--classes"), ("prune", "--image-size"),
        ("ablation", "--classes"), ("rate-sweep", "--image-size")])
    def test_model_must_fit_the_dataset(self, model_path, tmp_path, capsys, command, flag):
        # eval once printed a plausible error rate, prune and ablation failed
        # deep in the sweep with a label or shape error
        value, named = {"--classes": ("4", ["3 classes", "4 classes"]),
                        "--image-size": ("12", ["(3, 8, 8)", "(3, 12, 12)"])}[flag]
        out = tmp_path / "out"
        argv = [] if command == "eval" else ["--out", str(out), *FAST_PRUNE]
        rc = main([command, "--model", str(model_path), *argv, *FAST_DATA, flag, value])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("error:") and all(n in err for n in named) and "\n" not in err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["eval", "prune"])
    @pytest.mark.parametrize("specs,output", [([], "(3, 8, 8)"),
                                              ([pk.network.conv(3, 4)], "(4, 8, 8)")])
    def test_model_without_logits_single_line_error(self, tmp_path, capsys, command,
                                                    specs, output):
        # a layer-less or conv-only model once failed with a numpy broadcast error
        path, out = tmp_path / "headless.prnk", tmp_path / "out"
        net = pk.Network.initialize(specs, (3, 8, 8), 3, np.random.default_rng(0))
        net.trained = True
        pk.save(net, path)
        argv = [] if command == "eval" else ["--out", str(out), *FAST_PRUNE]
        rc = main([command, "--model", str(path), *argv, *FAST_DATA])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and f"outputs {output}" in err and "\n" not in err
        assert not out.exists()

    def test_cifar_does_not_read_data_seed(self, model_path, tmp_path, capsys):
        # the synthetic data's seed check once stopped a CIFAR run before its files
        rc = main(["eval", "--model", str(model_path), "--data", "cifar",
                   "--data-dir", str(tmp_path), "--data-seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err.strip() == (
            f"error: missing CIFAR batch file {tmp_path / 'data_batch_1.bin'}")

    def test_flag_defaults_are_train_baseline_defaults(self):
        args = build_parser().parse_args(["train", "--model", "m"])
        params = inspect.signature(train_baseline).parameters
        assert ({k: vars(args)[k] for k in ("eta", "batch_size", "seed")}
                == {k: params[k].default for k in ("eta", "batch_size", "seed")})

    def test_missing_model_single_line_error(self, tmp_path, capsys):
        rc = main(["eval", "--model", str(tmp_path / "nope.prnk"), *FAST_DATA])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err


class TestSeedFlags:
    @pytest.mark.parametrize("command,flag", [
        ("train", "--seed"), ("train", "--data-seed"), ("prune", "--seed"),
        ("prune", "--data-seed"), ("eval", "--data-seed"), ("rate-sweep", "--data-seed")])
    def test_negative_seed_names_the_flag(self, model_path, tmp_path, capsys, command, flag):
        # a negative seed once failed inside numpy with "expected non-negative
        # integer", naming no flag
        written = tmp_path / "written"
        argv = {"train": ["--model", str(written)], "eval": ["--model", str(model_path)]}.get(
            command, ["--model", str(model_path), "--out", str(written)])
        rc = main([command, *argv, *FAST_DATA, flag, "-1"])
        assert rc == 1
        assert capsys.readouterr().err.strip() == f"error: {flag} must be >= 0, got -1"
        assert not written.exists()


class TestPrune:
    def test_flag_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["prune", "--model", "m", "--out", "o"])
        assert _prune_config(args) == PruneConfig(rate=0.3)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(prune_configs())
    def test_flags_of_a_config_give_it_back(self, cfg):
        flags = []
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            flags += (["--losses", ",".join(value)] if f.name == "enabled_losses"
                      else ["--" + f.name.replace("_", "-"), repr(value)])
        for command in ("prune", "ablation", "rate-sweep"):
            args = build_parser().parse_args([command, "--model", "m", "--out", "o", *flags])
            assert _prune_config(args) == cfg

    def test_reference_default_configuration(self, model_path, tmp_path):
        rc = main(["prune", "--model", str(model_path), "--out", str(tmp_path),
                   "--rate", "0.3", "--losses", "r,s,c",
                   "--alpha", "0.001", "--beta", "1", *FAST_DATA, *FAST_PRUNE])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["alpha"] == 0.001
        assert report["config"]["beta"] == 1.0
        assert (tmp_path / "pruned.prnk").exists()
        assert (tmp_path / "layer_0_losses.csv").exists()

    def test_identical_runs_identical_artifacts(self, model_path, tmp_path):
        digests = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            rc = main(["prune", "--model", str(model_path), "--out", str(out),
                       "--rate", "0.5", "--seed", "9", *FAST_DATA, *FAST_PRUNE])
            assert rc == 0
            h = hashlib.sha256()
            for name in ("pruned.prnk", "report.json"):
                h.update((out / name).read_bytes())
            digests.append(h.hexdigest())
        assert digests[0] == digests[1]

    def test_empty_losses_rejected(self, model_path, tmp_path, capsys):
        rc = main(["prune", "--model", str(model_path), "--out", str(tmp_path),
                   "--losses", "", *FAST_DATA])
        assert rc == 1
        assert "at least one" in capsys.readouterr().err

    def test_zero_batch_size_single_line_error(self, model_path, tmp_path, capsys):
        rc = main(["prune", "--model", str(model_path), "--out", str(tmp_path / "p"),
                   *FAST_DATA, *FAST_PRUNE, "--batch-size", "0"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "batch_size" in err and "\n" not in err

    @pytest.mark.parametrize("flag,value", [
        ("--alpha", "nan"), ("--alpha", "inf"), ("--beta", "nan"), ("--beta", "inf"),
        ("--eta", "nan"), ("--eta", "inf"), ("--eta", "-1")])
    def test_bad_rate_or_weight_single_line_error(self, model_path, tmp_path, capsys,
                                                  flag, value):
        # nan and inf once ran until a gradient or loss check failed
        out = tmp_path / "p"
        rc = main(["prune", "--model", str(model_path), "--out", str(out),
                   *FAST_DATA, *FAST_PRUNE, flag, value])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and value in err and "\n" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command,argv", [
        ("prune", ["--losses", "s", "--alpha", "0"]), ("prune", ["--losses", "c", "--beta", "0"]),
        ("ablation", ["--alpha", "0", "--beta", "0"])])
    def test_zero_weight_loss_set_single_line_error(self, model_path, tmp_path, capsys,
                                                    command, argv):
        # each once exited 0 with all-zero sensitivities and channels 0..K-1 kept
        out = tmp_path / "out"
        rc = main([command, "--model", str(model_path), "--out", str(out),
                   *FAST_DATA, *FAST_PRUNE, *argv])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("error: every enabled loss term has zero weight") and "\n" not in err
        assert captured.out == "" and not out.exists()

    def test_overflow_gives_one_error_line_and_no_warning(self, model_path, tmp_path,
                                                          capsys):
        # numpy overflow warnings once preceded the error line, and the
        # failed run once left an empty --out directory behind
        for command in ("prune", "ablation"):
            out = tmp_path / command
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main([command, "--model", str(model_path), "--out", str(out),
                           *FAST_DATA, *FAST_PRUNE, "--eta", "1000"])
            assert rc == 1
            err = capsys.readouterr().err.strip()
            assert err.startswith("error:") and "\n" not in err
            assert not out.exists()

    def test_unknown_flag_nonzero_exit(self, model_path):
        with pytest.raises(SystemExit) as exc:
            main(["prune", "--model", str(model_path), "--frobnicate", "1"])
        assert exc.value.code != 0


class TestTables:
    def test_ablation_emits_seven_rows(self, model_path, tmp_path, capsys):
        rc = main(["ablation", "--model", str(model_path), "--out", str(tmp_path),
                   "--seeds", "1", *FAST_DATA, *FAST_PRUNE])
        assert rc == 0
        lines = (tmp_path / "ablation.csv").read_text().strip().splitlines()
        assert lines[0] == "losses,train_error,test_error"
        assert [l.split(",")[0] for l in lines[1:]] == \
            ["r", "s", "c", "r+s", "r+c", "s+c", "r+s+c"]
        assert (tmp_path / "ablation.txt").exists()

    def test_rate_sweep(self, model_path, tmp_path):
        rc = main(["rate-sweep", "--model", str(model_path), "--out", str(tmp_path),
                   "--rates", "0.3,0.6", "--seeds", "1", *FAST_DATA, *FAST_PRUNE])
        assert rc == 0
        lines = (tmp_path / "rate_sweep.csv").read_text().strip().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["0.3", "0.6"]

    @pytest.mark.parametrize("command", ["ablation", "rate-sweep"])
    def test_zero_seeds_single_line_error(self, model_path, tmp_path, capsys, command):
        # --seeds 0 once wrote an empty or NaN table and exited 0
        out = tmp_path / "out"
        rc = main([command, "--model", str(model_path), "--out", str(out),
                   "--seeds", "0", *FAST_DATA, *FAST_PRUNE])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "--seeds" in err and "\n" not in err
        assert not out.exists()

    @pytest.mark.parametrize("rates,bad", [("0.3,abc", "'abc'"), ("0.3,,0.5", "''")])
    def test_unparsable_rate_names_the_flag(self, model_path, tmp_path, capsys, rates, bad):
        # the error once read "could not convert string to float", naming no flag
        out = tmp_path / "out"
        rc = main(["rate-sweep", "--model", str(model_path), "--out", str(out),
                   "--rates", rates, *FAST_DATA, *FAST_PRUNE])
        assert rc == 1
        assert (capsys.readouterr().err
                == f"error: --rates: could not convert string to float: {bad}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,err", [
        (["--rates", "0.3,1.5"], "error: --rates: pruning rate must be in (0,1), got 1.5\n"),
        (["--rates", "0.3", "--eta", "-1"],
         "error: learning rate must be finite and >= 0, got -1.0\n")], ids=["rates", "eta"])
    def test_rate_errors_name_the_flag_and_flag_errors_do_not(self, model_path, tmp_path,
                                                             capsys, argv, err):
        # --rates 1.5 once failed naming no flag
        out = tmp_path / "out"
        rc = main(["rate-sweep", "--model", str(model_path), "--out", str(out),
                   *argv, *FAST_DATA, *FAST_PRUNE])
        assert rc == 1 and capsys.readouterr().err == err
        assert not out.exists()

    @pytest.mark.parametrize("command,name,rows,unread", [
        ("rate-sweep", "rate_sweep", ["--rates", "0.3,0.6"], ["--rate", "0"]),
        ("ablation", "ablation", [], ["--losses", "x"]),
        ("rate-sweep", "rate_sweep", ["--rates", "0.3,0.6"], ["--finetune-epochs", "-1"]),
        ("ablation", "ablation", [], ["--finetune-epochs", "-1"]),
        ("rate-sweep", "rate_sweep", ["--rates", "0.3,0.6"], ["--seed", "-1"]),
        ("ablation", "ablation", [], ["--seed", "-1"])],
        ids=["rate-sweep", "ablation", "rate-sweep-finetune", "ablation-finetune",
             "rate-sweep-seed", "ablation-seed"])
    def test_flag_that_every_row_replaces_is_not_read(self, model_path, tmp_path, command,
                                                      name, rows, unread):
        # rate-sweep --rate 0, ablation --losses x and either table's
        # --finetune-epochs -1 or --seed -1 once exited 1 with the error of a
        # value that no row uses
        tables = []
        for run, extra in enumerate(([], unread)):
            out = tmp_path / str(run)
            rc = main([command, "--model", str(model_path), "--out", str(out), *rows, *extra,
                       *FAST_DATA, *FAST_PRUNE])
            assert rc == 0
            tables.append((out / f"{name}.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_check_grad_zero_seeds_single_line_error(self, capsys):
        # --seeds 0 once checked nothing and printed PASS for every case
        rc = main(["check-grad", "--seeds", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("error:") and "seeds" in err and "\n" not in err
        assert captured.out == ""

    def test_cells_are_seed_means_of_prune_model(self, model_path, tmp_path):
        # each cell is the mean over seeds 0 and 1 of prune_model's masked
        # error for that row, even when --finetune-epochs asks for fine-tuning
        net = pk.load(str(model_path))
        ds = pk.synth_dataset(3, 20, image_size=8, seed=0)
        base = pk.PruneConfig(rate=0.3, selection_batches=2, refit_epochs=1, batch_size=16)

        def mean_errors(cfg):
            reports = [pk.prune_model(net, replace(cfg, seed=s), ds)[1] for s in (0, 1)]
            return [repr((reports[0].masked_train_error + reports[1].masked_train_error) / 2),
                    repr((reports[0].masked_test_error + reports[1].masked_test_error) / 2)]

        def cells(command, name, *extra):
            out = tmp_path / command
            rc = main([command, "--model", str(model_path), "--out", str(out), "--seeds", "2",
                       "--finetune-epochs", "1", *extra, *FAST_DATA, *FAST_PRUNE])
            assert rc == 0
            with open(out / f"{name}.csv", newline="") as fh:
                return list(csv.reader(fh))[1:]

        assert cells("ablation", "ablation") == [
            [pk.metrics.loss_combo_label(k), *mean_errors(replace(base, enabled_losses=k))]
            for k in pk.metrics.ABLATION_COMBOS]
        assert cells("rate-sweep", "rate_sweep", "--rates", "0.3,0.6") == [
            [str(rate), mean_errors(replace(base, rate=rate))[1]] for rate in (0.3, 0.6)]

    def test_report_renders(self, model_path, tmp_path, capsys):
        out = tmp_path / "p"
        main(["prune", "--model", str(model_path), "--out", str(out),
              *FAST_DATA, *FAST_PRUNE])
        capsys.readouterr()
        rc = main(["report", "--report", str(out / "report.json")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "baseline" in text and "params:" in text


    @pytest.mark.parametrize("doc", [{"config": {}, "errors": {}, "layers": {}}, [1, 2]])
    def test_report_of_foreign_json_single_line_error(self, tmp_path, capsys, doc):
        # a JSON without "compression", or a list, once printed a traceback
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        rc = main(["report", "--report", str(path)])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("error:") and "not a prunekit report" in err and "\n" not in err
        assert captured.out == ""


# well-typed values, valid and invalid; argparse's own errors (exit 2) are
# covered by test_unknown_flag_nonzero_exit
DATA_DRAWS = [("--classes", v) for v in ("3", "4")] + [("--image-size", v) for v in ("8", "12")]
PRUNE_DRAWS = DATA_DRAWS + [
    *(("--rate", v) for v in ("0.5", "0", "1", "-0.5", "nan")),
    *(("--losses", v) for v in ("r", "s,c", "", "x")),
    *(("--alpha", v) for v in ("0", "inf")), *(("--beta", v) for v in ("0", "nan")),
    *(("--batch-size", v) for v in ("8", "0", "1000")), *(("--seed", v) for v in ("0", "-1"))]
TABLE_DRAWS = PRUNE_DRAWS + [("--seeds", v) for v in ("1", "0")]
DRAWS = {
    "prune": PRUNE_DRAWS, "eval": DATA_DRAWS + [("--split", "train")],
    "ablation": TABLE_DRAWS,
    "rate-sweep": TABLE_DRAWS + [("--rates", v) for v in ("0.3,0.6", "0.3,abc", "", "1.5")]}
OUTPUTS = {"prune": ["pruned.prnk", "report.json", "layer_0_losses.csv"], "eval": [],
                    "ablation": ["ablation.csv", "ablation.txt"],
                    "rate-sweep": ["rate_sweep.csv", "rate_sweep.txt"]}


class TestContract:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from(sorted(DRAWS)).flatmap(lambda command: st.tuples(
        st.just(command),
        st.lists(st.sampled_from(DRAWS[command]), max_size=4,
                 unique_by=lambda pair: pair[0]))))
    def test_exit_zero_with_outputs_or_one_error_line(self, model_path, run):
        command, flags = run
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "out")
            argv = [command, "--model", str(model_path), *FAST_DATA]
            if command != "eval":
                argv += ["--out", str(out), "--selection-batches", "1", "--refit-epochs", "1"]
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error")
                rc = main(argv + [part for pair in flags for part in pair])
            if rc == 0:
                assert stderr.getvalue() == "" and stdout.getvalue()
                assert all((out / name).is_file() for name in OUTPUTS[command])
            else:
                assert rc == 1
                err = stderr.getvalue()
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
                assert stdout.getvalue() == "" and not out.exists()


class TestCheckGrad:
    def test_exit_zero_when_gradients_pass(self, capsys):
        rc = main(["check-grad", "--seeds", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS conv2d" in out and "FAIL" not in out

    def test_failing_case_prints_its_error_and_exits_one(self, monkeypatch, capsys):
        break_rule(monkeypatch, "relu", lambda gi: 1.5 * gi)
        rc = main(["check-grad", "--seeds", "1"])
        assert rc == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert failed == [f"FAIL {'relu':<24} max_rel_err={1 / 3:.3e}"]


class TestConfigFile:
    def test_key_value_file_supplies_defaults(self, model_path, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("classes = 3\nper-class = 20\nimage-size = 8\n# comment\n")
        rc = main(["--config", str(cfg), "eval", "--model", str(model_path)])
        assert rc == 0
        assert "test_error=" in capsys.readouterr().out

    def test_explicit_flag_beats_config(self, model_path, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("split = test\n")
        rc = main(["--config", str(cfg), "eval", "--model", str(model_path),
                   "--split", "train", *FAST_DATA])
        assert rc == 0
        assert "train_error=" in capsys.readouterr().out

    def test_explicit_equals_flag_beats_config(self, model_path, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("rate = 0.3\n")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "prune", "--model", str(model_path),
                   "--out", str(out), "--rate=0.7", *FAST_DATA, *FAST_PRUNE])
        assert rc == 0
        assert json.loads((out / "report.json").read_text())["config"]["rate"] == 0.7

    def test_abbreviated_flag_beats_config(self, model_path, tmp_path):
        # argparse reads --rat as --rate; the file's rate once won over it
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("rate = 0.3\n")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "prune", "--model", str(model_path),
                   "--out", str(out), "--rat", "0.7", *FAST_DATA, *FAST_PRUNE])
        assert rc == 0
        assert json.loads((out / "report.json").read_text())["config"]["rate"] == 0.7

    def test_config_equals_spelling_is_read(self, model_path, tmp_path):
        # "--config=PATH" was once ignored silently and the default rate used
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("rate = 0.7\n")
        out = tmp_path / "out"
        rc = main([f"--config={cfg}", "prune", "--model", str(model_path),
                   "--out", str(out), *FAST_DATA, *FAST_PRUNE])
        assert rc == 0
        assert json.loads((out / "report.json").read_text())["config"]["rate"] == 0.7

    @pytest.mark.parametrize("spelling", [["--conf", "FILE"], ["--conf=FILE"]],
                             ids=["space", "equals"])
    def test_abbreviated_config_is_rejected(self, model_path, tmp_path, capsys, spelling):
        # argparse once read "--conf FILE" as --config, which main never spliced,
        # so eval exited 0 on the default data without reading the file
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("classes = 3\nper-class = 20\nimage-size = 8\n")
        with pytest.raises(SystemExit) as exc:
            main([s.replace("FILE", str(cfg)) for s in spelling]
                 + ["eval", "--model", str(model_path)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["prune", "--config"], ["--config"]])
    def test_config_without_value_single_line_error(self, argv, capsys):
        rc = main(argv)
        assert rc != 0
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "--config" in err and "\n" not in err

    def test_malformed_line_rejected(self, tmp_path):
        from prunekit.data import DataError
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("not a pair\n")
        with pytest.raises(DataError, match="key=value"):
            read_config(str(cfg))

    def test_missing_config_file(self):
        from prunekit.data import DataError
        with pytest.raises(DataError, match="does not exist"):
            read_config("/nonexistent/exp.cfg")
