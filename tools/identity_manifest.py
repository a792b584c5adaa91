"""Print sha256 digests of a fixed set of prunekit outputs, then one manifest hash.

    python3 tools/identity_manifest.py

Trains a tiny 8x8 net and the 12x12 reference net, then prunes each under all
seven loss sets at finetune_epochs 0 and 1. Each output (train log, model
file, report.json, loss-curve CSV) gets one ``sha256  name`` line, and a
``library manifest`` line hashes those lines. Then the CLI runs train, prune
(once with the default alpha, beta and eta, once with others), ablation,
rate-sweep, report and eval on 8x8 data; every file they write and
each command's stdout (with the temporary directory replaced by a fixed name)
get one line each. The masked path, which the sweep never takes, follows on
the 12x12 reference net: the logits of a few seeded random mask patterns (as
acceptance criterion 3 draws them), and one layer scored, shrunk and refit on a
net with its first conv layer masked (sensitivities, the refit layer's weight
and bias, loss curve).
Then the gradient suite's (name, worst relative error, passed) results over 3
seeds get one line. The last line hashes all lines. Two checkouts whose
manifest hashes agree produced byte-identical outputs. prunekit is imported
from this checkout's src/, with one BLAS thread.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import prunekit as pk  # noqa: E402
from prunekit.cli import main as cli_main  # noqa: E402
from prunekit.gradcheck import run_suite  # noqa: E402
from prunekit.metrics import ABLATION_COMBOS, loss_combo_label  # noqa: E402
from prunekit.network import (ChannelMask, apply_mask, conv, dense_layer,  # noqa: E402
                              flatten_layer, forward, maxpool, relu_layer, shrink_layer)
from prunekit.pruner import (budget_for, frozen_activations, refit_layer,  # noqa: E402
                             score_layer, select_channels)

NETS = {  # name -> (specs, image size)
    "tiny": ([conv(3, 4), relu_layer(), maxpool(), conv(4, 8), relu_layer(),
              flatten_layer(), dense_layer(8 * 4 * 4, 3)], 8),
    "ref": (pk.reference_specs(3, 12, 3), 12),
}
CLI_DATA = ["--classes", "3", "--per-class", "16", "--image-size", "8"]
CLI_PRUNE = [*CLI_DATA, "--rate", "0.5", "--selection-batches", "2", "--refit-epochs", "2",
             "--batch-size", "16"]


def run_cli(tmp, digest) -> None:
    """Run each subcommand through the CLI in ``tmp/cli``, then digest each
    stdout and every file written."""
    root = Path(tmp, "cli")
    model, prune_out = str(root / "base.prnk"), root / "prune"
    runs = {  # stdout name -> argv
        "train": ["train", "--model", model, "--epochs", "3", "--batch-size", "16", *CLI_DATA],
        "prune": ["prune", "--model", model, "--out", str(prune_out), "--finetune-epochs", "1",
                  *CLI_PRUNE],
        "ablation": ["ablation", "--model", model, "--out", str(root / "ablation"),
                     "--seeds", "2", *CLI_PRUNE],
        "rate-sweep": ["rate-sweep", "--model", model, "--out", str(root / "rate_sweep"),
                       "--rates", "0.3,0.6", *CLI_PRUNE],
        "report": ["report", "--report", str(prune_out / "report.json")],
        "eval": ["eval", "--model", str(prune_out / "pruned.prnk"), *CLI_DATA],
        "prune_weights": ["prune", "--model", model, "--out", str(root / "prune_weights"),
                          "--alpha", "0.01", "--beta", "0.5", "--eta", "0.02", *CLI_PRUNE],
    }
    root.mkdir()
    for name, argv in runs.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli_main(argv)
        if rc != 0:
            sys.exit(f"prunekit {name} exited {rc}")
        digest(f"cli/{name}.stdout", stdout.getvalue().replace(tmp, "TMP").encode())
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest(str(path.relative_to(tmp)), path.read_bytes())


def run_masked(net, dataset, digest) -> None:
    """Digest the masked-net logits of seeded mask patterns, then one score,
    selection, ``shrink_layer`` and refit of conv layer 3 of ``net`` with its
    first conv layer masked."""
    for seed in range(5):
        r = np.random.default_rng(seed)
        masked = net
        for l in net.conv_layers():
            m = net.specs[l].out_channels
            keep = r.random(m) < 0.6
            if not keep.any():
                keep[int(r.integers(0, m))] = True
            masked = apply_mask(masked, ChannelMask(l, keep))
        xb, _ = dataset.sample_batch("test", 8, r)
        digest(f"masked/pattern_{seed}.logits", forward(masked, xb).data.tobytes())

    cfg = pk.PruneConfig(rate=0.5, selection_batches=2, refit_epochs=2, batch_size=16)
    rng = np.random.default_rng(0)
    pruned = apply_mask(net.copy(), ChannelMask(0, np.arange(16) % 3 != 1))
    acts = frozen_activations(net, pruned, 3, cfg, dataset)
    delta = score_layer(pruned, 3, cfg, acts, rng)
    sel = select_channels(delta, budget_for(len(delta), cfg.rate))
    keep = np.isin(np.arange(len(delta)), sel.retained)
    pruned = shrink_layer(pruned, ChannelMask(3, keep))
    curve = refit_layer(pruned, 3, cfg, replace(acts, retained=sel.retained), rng)
    digest("masked/refit_l3.sensitivities", delta.tobytes())
    for name, t in sorted(pruned.params[3].items()):
        digest(f"masked/refit_l3.{name}_kept", t.data.tobytes())
    digest("masked/refit_l3.curve", repr([vars(bd) for bd in curve]).encode())


def main() -> None:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        def digest(name, data):
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}")

        trained = {}
        for net_name, (specs, size) in NETS.items():
            dataset = pk.synth_dataset(3, 16, image_size=size, seed=0)
            net = pk.Network.initialize(specs, dataset.image_shape, 3, np.random.default_rng(0))
            trained[net_name] = net, dataset
            digest(f"{net_name}/train_log.json",
                   json.dumps(pk.train_baseline(net, dataset, 3, batch_size=16)).encode())
            for combo in ABLATION_COMBOS:
                for ft in (0, 1):
                    cfg = pk.PruneConfig(rate=0.5, selection_batches=2, refit_epochs=2,
                                         finetune_epochs=ft, enabled_losses=combo,
                                         batch_size=16)
                    pruned, report = pk.prune_model(net, cfg, dataset)
                    out = Path(tmp, net_name, f"{loss_combo_label(combo)}_ft{ft}")
                    out.mkdir(parents=True)
                    pk.save(pruned, out / "model.prnk")
                    (out / "report.json").write_text(report.to_json())
                    report.write_loss_curves(out)
                    for path in sorted(out.iterdir()):
                        digest(str(path.relative_to(tmp)), path.read_bytes())
        lines.append(f"{hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}  "
                     "library manifest")
        run_cli(tmp, digest)
        run_masked(*trained["ref"], digest)
        digest("gradcheck/run_suite_3", repr(run_suite(n_seeds=3)).encode())
    print("\n".join(lines))
    print(f"{hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}  manifest")


if __name__ == "__main__":
    main()
