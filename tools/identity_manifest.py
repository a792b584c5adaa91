"""Print sha256 digests of a fixed set of prunekit outputs, then one manifest hash.

    python3 tools/identity_manifest.py

Trains a tiny 8x8 net and the 12x12 reference net, then prunes each under all
seven loss sets at finetune_epochs 0 and 1. Each output (train log, model
file, report.json, loss-curve CSV) gets one ``sha256  name`` line, and a
``library manifest`` line hashes those lines. Then the CLI runs train, prune,
ablation, rate-sweep, report and eval on 8x8 data; every file they write and
each command's stdout (with the temporary directory replaced by a fixed name)
get one line each. The last line hashes all lines. Two checkouts whose
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
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import prunekit as pk  # noqa: E402
from prunekit.cli import main as cli_main  # noqa: E402
from prunekit.metrics import ABLATION_COMBOS, loss_combo_label  # noqa: E402
from prunekit.network import conv, dense_layer, flatten_layer, maxpool, relu_layer  # noqa: E402

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
    runs = [
        ["train", "--model", model, "--epochs", "3", "--batch-size", "16", *CLI_DATA],
        ["prune", "--model", model, "--out", str(prune_out), "--finetune-epochs", "1",
         *CLI_PRUNE],
        ["ablation", "--model", model, "--out", str(root / "ablation"), "--seeds", "2",
         *CLI_PRUNE],
        ["rate-sweep", "--model", model, "--out", str(root / "rate_sweep"),
         "--rates", "0.3,0.6", *CLI_PRUNE],
        ["report", "--report", str(prune_out / "report.json")],
        ["eval", "--model", str(prune_out / "pruned.prnk"), *CLI_DATA],
    ]
    root.mkdir()
    for argv in runs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli_main(argv)
        if rc != 0:
            sys.exit(f"prunekit {argv[0]} exited {rc}")
        digest(f"cli/{argv[0]}.stdout", stdout.getvalue().replace(tmp, "TMP").encode())
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest(str(path.relative_to(tmp)), path.read_bytes())


def main() -> None:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        def digest(name, data):
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}")

        for net_name, (specs, size) in NETS.items():
            dataset = pk.synth_dataset(3, 16, image_size=size, seed=0)
            net = pk.Network.initialize(specs, dataset.image_shape, 3, np.random.default_rng(0))
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
    print("\n".join(lines))
    print(f"{hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}  manifest")


if __name__ == "__main__":
    main()
