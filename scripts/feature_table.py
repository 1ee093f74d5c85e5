#!/usr/bin/env python3
"""The paper's feature-class table through the protocol path: `sedpipe synth`
writes one dataset into a fresh temporary directory (its path is printed
first, and the feature archives go beside its manifest), then each feature
class is cross-validated over the config's folds and runs. Without --config
the desk recipe below is used (4 folds, validation monitoring, 1 run).

Example:
    python3 scripts/feature_table.py --features mbe bin-mbe --seed 2
"""

from __future__ import annotations

import argparse
import dataclasses
import tempfile
import time
from pathlib import Path

from sedpipe.cli import _load_cfg
from sedpipe.cli import main as cli_main
from sedpipe.config import dump_config
from sedpipe.experiment import cross_validate
from sedpipe.features import FEATURE_CLASSES

DESK_CONFIG = """[data]
n_clips = 8
duration_s = 4.0
class_count = 3
polyphony_max = 2
folds = 4
seed = 1
bit_depth = 16

[model]
conv_layers = 2
filters = 8
gru_layers = 1
gru_units = 16
dense_layers = 1
dense_units = 16
dropout = 0.05

[train]
learning_rate = 0.003
max_epochs = 15
patience = 14
batch_size = 4
sequence_length = 64
seed = 1
n_runs = 1
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--config", help="experiment config file (default: the desk recipe)")
    parser.add_argument("--features", nargs="+", default=list(FEATURE_CLASSES), choices=FEATURE_CLASSES)
    parser.add_argument("--seed", type=int, help="override the config's data and train seeds")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="sedpipe_table_"))
    print(workdir)
    if args.config is None:
        args.config = workdir / "desk.cfg"
        args.config.write_text(DESK_CONFIG, encoding="utf-8")
    cfg = _load_cfg(args)
    cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, root=str(workdir / "data"), manifest=""))
    (workdir / "exp.cfg").write_text(dump_config(cfg), encoding="utf-8")
    rc = cli_main(["synth", "--config", str(workdir / "exp.cfg")])
    if rc != 0:
        return rc

    print(
        f"{cfg.train.n_runs} run(s) x {len(cfg.train.folds)} folds, monitor {cfg.train.monitor}, "
        f"{cfg.data.template_mode} templates"
    )
    print(f"{'feature':<12} {'ER':>14} {'F (%)':>14} {'pooled ER':>10} {'pooled F':>9}")
    for fc in args.features:
        features = dataclasses.replace(cfg.features, feature_class=fc)
        started = time.perf_counter()
        s = cross_validate(dataclasses.replace(cfg, features=features))
        print(
            f"{fc:<12} {s.mean_er:5.2f} +/- {s.std_er:4.2f} {100 * s.mean_f:5.1f} +/- {100 * s.std_f:4.1f}"
            f" {s.pooled_er:10.2f} {100 * s.pooled_f:9.1f}   ({time.perf_counter() - started:.0f} s)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
