"""One benchmark session in a fresh interpreter: set up, run timed
operations until the time budget is spent, check the outputs, and write a
JSON result for ``run.py``.

Usage (``run.py`` does this): ``python3 perfbench/worker.py '<spec json>'``.
The spec names the workload, seed, budget, whether to trace, the RLIMIT_AS
cap and the result path.
"""

import os

# pinned before numpy loads: unpinned OpenBLAS makes the GRU's small
# per-step matmuls up to 10x slower, and by a varying amount
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import io
import json
import platform
import resource
import shutil
import sys
import time
import traceback
import warnings
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

# the paper's CRNN shapes: (T, batch, bins, channels)
TRAIN_SHAPES = {
    "mbe": (256, 8, 40, 1),
    "bin-fft": (256, 8, 1024, 4),
    "bin-fft-small": (64, 2, 1024, 4),
}
WORKLOAD_SHAPE = {"train": "mbe", "train-fft": "bin-fft-small"}
N_CLASSES = 6
N_TRAIN_BATCHES = 4
N_EXTRACT_CLIPS = 3

# PAPER.md's (bins, channels) per feature class; F is shared by all classes
PAPER_SHAPES = {"mbe": (40, 1), "bin-mbe": (40, 2), "bin-mul-mbe": (40, 6), "bin-fft": (1024, 4)}
LOG_MEL_ATOL = 1e-6

PROTOCOL_CLIPS = 8
PROTOCOL_FOLDS = 4
# README quickstart config with: all four folds, bin-mbe as the trained
# class, archive_dir at the extract output (so train loads archives instead
# of extracting again), and patience 19 of 20 epochs, so every fold trains
# exactly 20 epochs and the work per pass does not depend on the data seed
PROTOCOL_CONFIG = """[data]
root = data
n_clips = {clips}
duration_s = 5.0
class_count = 3
folds = {folds}
seed = {seed}

[features]
feature_class = bin-mbe
archive_dir = data/features

[model]
conv_layers = 2
filters = 16
gru_layers = 1
gru_units = 32
dense_layers = 1
dense_units = 32
dropout = 0.25

[train]
learning_rate = 0.003
max_epochs = 20
patience = 19
sequence_length = 64
n_runs = 1
folds = 1,2,3,4
"""
PROTOCOL_COMMANDS = (
    ("synth", ["synth", "--config", "exp.cfg", "--out", "data"]),
    ("extract", ["extract", "--config", "exp.cfg", "--data-dir", "data", "--feature", "bin-mbe"]),
    ("train", ["train", "--config", "exp.cfg", "--out", "runs/demo"]),
    ("report", ["report", "--runs", "runs/demo"]),
)


def timed_ops(budget_s, op, after=None):
    """Call ``op(i)`` while the summed op time is below ``budget_s`` (so at
    least once); ``after(i, result)`` runs untimed between ops."""
    times = []
    while sum(times) < budget_s:
        start = time.perf_counter()
        result = op(len(times))
        times.append(time.perf_counter() - start)
        if after is not None:
            after(len(times) - 1, result)
    return times


def new_tracer(spec, label):
    if not spec["traced"]:
        return None
    from tracer import Tracer

    return Tracer(label, track_memory=spec["track_memory"])


# --- extract ---------------------------------------------------------------


def reference_log_mel(x, sample_rate):
    """Log-mel energies at the FeatureConfig defaults, framed here and
    transformed with np.fft.rfft: independent of dsp.fft and dsp.stft."""
    import numpy as np
    from sedpipe import dsp

    window_len, hop, fft_size = round(0.040 * sample_rate), round(0.020 * sample_rate), 2048
    frames = -(-x.size // hop)
    left = window_len // 2
    padded = np.zeros(max((frames - 1) * hop + window_len, left + x.size))
    padded[left : left + x.size] = x
    framed = padded[np.arange(frames)[:, None] * hop + np.arange(window_len)] * np.hamming(window_len)
    spectra = np.fft.rfft(framed, n=fft_size, axis=1)
    weights = dsp.mel_filterbank(40, fft_size, sample_rate, 0.0, min(22500.0, sample_rate / 2)).weights
    return np.log(np.maximum((spectra.real**2 + spectra.imag**2) @ weights.T, 1e-10))


def check_extract(first, clip):
    import numpy as np

    problems = []
    n_frames = {data.shape[0] for data in first.values()}
    if len(n_frames) != 1:
        problems.append(f"feature classes disagree on F: {sorted(n_frames)}")
    for fc, data in first.items():
        if data.shape[1:] != PAPER_SHAPES[fc]:
            problems.append(f"{fc}: shape {data.shape}, expected F x {PAPER_SHAPES[fc]}")
        if not np.all(np.isfinite(data)):
            problems.append(f"{fc}: non-finite values")
    refs = {
        "mbe": [clip.samples.mean(axis=0)],
        "bin-mbe": [clip.samples[0], clip.samples[1]],
    }
    for fc, signals in refs.items():
        for ch, x in enumerate(signals):
            err = np.max(np.abs(first[fc][:, :, ch] - reference_log_mel(x, clip.sample_rate)))
            if not err <= LOG_MEL_ATOL:
                problems.append(f"{fc} channel {ch}: log-mel differs from the rfft reference by {err:.3g}")
    return problems


def session_extract(spec):
    import numpy as np
    from sedpipe import features, synth
    from sedpipe.audio_io import AudioClip

    spec_synth = synth.SynthSpec(n_clips=N_EXTRACT_CLIPS, duration_s=10.0, seed=spec["seed"])
    clips = [clip for clip, _ in synth.synth_dataset(spec_synth)]
    warm = AudioClip(samples=clips[0].samples[:, : clips[0].sample_rate], sample_rate=clips[0].sample_rate)
    for fc in features.FEATURE_CLASSES:
        features.extract(warm, fc)
    setup_s = time.monotonic() - spec["t_spawn"]

    tracer = new_tracer(spec, "extract")
    if tracer is not None:
        from tracer import install_features

        install_features(tracer)
    parts = {fc: [] for fc in features.FEATURE_CLASSES}
    first = {}

    def op(i):
        clip = clips[i % len(clips)]
        for fc in features.FEATURE_CLASSES:
            start = time.perf_counter()
            data = features.extract(clip, fc).data
            parts[fc].append(time.perf_counter() - start)
            if i == 0:
                first[fc] = data

    ops = timed_ops(spec["budget_s"], op)
    digest = hashlib.sha256()
    for fc in features.FEATURE_CLASSES:
        digest.update(np.ascontiguousarray(first[fc]).tobytes())
    return {
        "setup_s": setup_s,
        "ops": ops,
        "parts": parts,
        "checks": check_extract(first, clips[0]),
        "fingerprint": [digest.hexdigest()],
        "tracer": tracer,
    }


# --- train -----------------------------------------------------------------


def build_train(shape, seed, n_batches):
    """The paper CRNN (3 conv x 64, 2 BiGRU x 64, 1 dense x 64, 6 classes)
    with Adam and ``n_batches`` input batches drawn from the seed."""
    import numpy as np
    from sedpipe import nn

    t, s, b, ch = TRAIN_SHAPES[shape]
    model = nn.build_crnn(nn.CrnnArch(n_bins=b, n_channels=ch, n_classes=N_CLASSES), np.random.default_rng(seed))
    data = np.random.default_rng([seed, 1])
    batches = [
        (
            data.standard_normal((s, t, b, ch)),
            (data.random((s, t, N_CLASSES)) < 0.3).astype(np.float64),
            np.ones((s, t), dtype=bool),
        )
        for _ in range(n_batches)
    ]
    return model, nn.Adam(model, lr=1e-3), batches, np.random.default_rng([seed, 2])


def train_step(model, optimizer, batch, dropout_rng):
    """forward(training=True), bce_loss, backward, Adam.step; the loss is
    looked up through its module so a traced session sees the call."""
    from sedpipe.nn import loss as nn_loss

    x, y, mask = batch
    out = model.forward(x, training=True, rng=dropout_rng)
    value, grad = nn_loss.bce_loss(out, y, mask)
    model.backward(grad)
    optimizer.step()
    return value


def session_train(spec):
    import numpy as np

    shape = WORKLOAD_SHAPE[spec["workload"]]
    model, optimizer, batches, dropout_rng = build_train(shape, spec["seed"], N_TRAIN_BATCHES)
    losses = [train_step(model, optimizer, batches[0], dropout_rng)]  # warm-up
    setup_s = time.monotonic() - spec["t_spawn"]

    tracer = new_tracer(spec, shape)
    if tracer is not None:
        from tracer import install_step

        tracer.instrument_model(model)
        install_step(tracer)

    def op(i):
        losses.append(train_step(model, optimizer, batches[(i + 1) % len(batches)], dropout_rng))

    ops = timed_ops(spec["budget_s"], op)
    bad = [i for i, value in enumerate(losses) if not np.isfinite(value)]
    return {
        "setup_s": setup_s,
        "ops": ops,
        "checks": [f"{shape}: non-finite loss at steps {bad}"] if bad else [],
        "fingerprint": [float(value).hex() for value in losses],
        "tracer": tracer,
    }


def failed_layer(exc):
    """``Layer.phase`` of the innermost layer method the exception passed."""
    where = "other"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        owner = frame.f_locals.get("self")
        if frame.f_code.co_name in ("forward", "backward") and frame.f_code.co_filename.endswith(
            os.path.join("nn", "layers.py")
        ):
            where = f"{type(owner).__name__}.{frame.f_code.co_name}"
    return where


def session_probe(spec):
    """One paper-default bin-fft step under the cap; a MemoryError is the
    expected outcome at the seed commit and is reported, not raised."""
    import numpy as np

    model, optimizer, batches, dropout_rng = build_train("bin-fft", spec["seed"], 1)
    start = time.perf_counter()
    try:
        loss = train_step(model, optimizer, batches[0], dropout_rng)
    except MemoryError as exc:
        where = failed_layer(exc)
        del exc
        return {"probe": {"ok": False, "seconds": time.perf_counter() - start, "where": where}, "checks": []}
    seconds = time.perf_counter() - start
    checks = [] if np.isfinite(loss) else ["bin-fft: non-finite loss"]
    return {"probe": {"ok": True, "seconds": seconds, "where": ""}, "checks": checks}


# --- protocol --------------------------------------------------------------


def read_tsv_values(path):
    return dict(line.split("\t", 1) for line in path.read_text(encoding="utf-8").splitlines() if "\t" in line)


def check_pass(pass_dir, outputs):
    """Exit codes, fold outputs, and the report's means against the folds."""
    problems = [f"sedpipe {name} exited {code}" for name, (code, _) in outputs.items() if code != 0]
    runs = pass_dir / "runs" / "demo"
    ers, fs = [], []
    digest = hashlib.sha256()
    for fold in range(1, PROTOCOL_FOLDS + 1):
        run_dir = runs / f"fold{fold}" / "run1"
        for name in ("checkpoint.sedm", "history.tsv", "metrics.tsv"):
            path = run_dir / name
            if not path.is_file():
                problems.append(f"missing {path.relative_to(pass_dir)}")
                continue
            digest.update(path.read_bytes())
        if (run_dir / "metrics.tsv").is_file():
            values = read_tsv_values(run_dir / "metrics.tsv")
            ers.append(float(values["er"]))
            fs.append(float(values["f"]))
    er = sum(ers) / len(ers) if ers else float("nan")
    f = sum(fs) / len(fs) if fs else float("nan")
    report = outputs["report"][1].splitlines()
    expected = f"mean\t{er:.2f}\t{100 * f:.1f}"
    if expected not in report:
        problems.append(f"report mean line {[l for l in report if l.startswith('mean')]} != fold mean {expected!r}")
    return {"er": er, "f": f, "fingerprint": digest.hexdigest(), "problems": problems}


def session_protocol(spec):
    from sedpipe import cli

    work = Path(spec["workdir"]) / f"protocol{spec['session']}"
    config = PROTOCOL_CONFIG.format(clips=PROTOCOL_CLIPS, folds=PROTOCOL_FOLDS, seed=spec["seed"])
    setup_s = time.monotonic() - spec["t_spawn"]

    tracer = new_tracer(spec, "protocol")
    if tracer is not None:
        from tracer import install_pipeline

        install_pipeline(tracer)
    passes = []

    def op(i):
        pass_dir = work / f"pass{i}"
        pass_dir.mkdir(parents=True)
        (pass_dir / "exp.cfg").write_text(config, encoding="utf-8")
        counts = dict(tracer.counts) if tracer is not None else {}
        outputs = {}
        home = os.getcwd()
        os.chdir(pass_dir)
        try:
            for name, argv in PROTOCOL_COMMANDS:
                buf = io.StringIO()
                with redirect_stdout(buf), (tracer.span(f"cli.{name}.s") if tracer else nullcontext()):
                    code = cli.main(argv)
                outputs[name] = (code, buf.getvalue())
        finally:
            os.chdir(home)
        return pass_dir, outputs, counts

    def after(i, result):
        pass_dir, outputs, counts = result
        checked = check_pass(pass_dir, outputs)
        if tracer is not None:
            for name in ("features.extract.calls", "features.load_feature_archive.calls"):
                calls = tracer.counts.get(name, 0) - counts.get(name, 0)
                if calls != PROTOCOL_CLIPS:
                    checked["problems"].append(
                        f"{name}: {calls:g} in one pass, expected {PROTOCOL_CLIPS} (train must load archives)"
                    )
        passes.append(checked)
        shutil.rmtree(pass_dir)

    ops = timed_ops(spec["budget_s"], op, after)
    return {
        "setup_s": setup_s,
        "ops": ops,
        "passes": [{"er": p["er"], "f": p["f"]} for p in passes],
        "checks": [problem for p in passes for problem in p["problems"]],
        "fingerprint": [p["fingerprint"] for p in passes],
        "tracer": tracer,
    }


# --- entry -----------------------------------------------------------------


def environment(spec):
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cap_mib": spec["cap_bytes"] >> 20,
    }
    env.update({var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    return env


def main():
    spec = json.loads(sys.argv[1])
    cap = spec["cap_bytes"]
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import sedpipe

    if not os.path.abspath(sedpipe.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"sedpipe imported from {sedpipe.__file__}, not from {src}")
    warnings.simplefilter("ignore", UserWarning)  # the f_max > Nyquist clamp, once per extract

    if spec.get("probe"):
        result = session_probe(spec)
    elif spec["workload"] == "extract":
        result = session_extract(spec)
    elif spec["workload"] == "protocol":
        result = session_protocol(spec)
    else:
        result = session_train(spec)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        Path(spec["spans_out"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    result["track_memory"] = spec.get("track_memory", False)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(spec)
    tmp = spec["out"] + ".tmp"
    Path(tmp).write_text(json.dumps(result), encoding="utf-8")
    os.replace(tmp, spec["out"])


if __name__ == "__main__":
    main()
