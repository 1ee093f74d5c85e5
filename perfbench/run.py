"""sedpipe benchmark: times the toolkit end to end, or per module with
``--trace 1``, and checks its outputs.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 16 --trace 0

Run from the repository root; the program is imported from ``src/``. Each
workload runs a few sessions in turn, one fresh worker process each (see
``worker.py``), one caller in a closed loop. A session's set-up (interpreter
start, imports, input generation from the seed, warm-up) is timed apart
from its operations. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json, or its ``per_layer`` metrics with ``--trace 1``.
The lines before it give the named stage metrics, sample counts and the
environment. The exit code is 1 when an output check fails.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# sessions per run: each times its own set-up and gets an equal share of
# --seconds; protocol passes are long, so it gets two
WORKLOADS = {
    "extract": {"sessions": 3},
    "train": {"sessions": 3},
    "train-fft": {"sessions": 3, "probe": True},
    "protocol": {"sessions": 2},
}
CAP_BYTES = 3 << 30  # RLIMIT_AS per worker, lowered to half of MemAvailable
RUN_DEADLINE_S = 170.0


def memory_cap() -> int:
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return min(CAP_BYTES, int(line.split()[1]) * 1024 // 2)
    return CAP_BYTES


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker to completion and return its result; a crash, a
    timeout or a missing result is returned as ``{"ok": False, ...}``."""
    spec = dict(spec, t_spawn=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)], stdout=sys.stderr, stdin=subprocess.DEVNULL
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return {"ok": False, "error": "timed out"}
    except BaseException:  # interrupted or terminated: leave no worker behind
        proc.kill()
        proc.wait()
        raise
    out = Path(spec["out"])
    if code != 0 or not out.is_file():
        return {"ok": False, "error": f"worker exited {code}"}
    result = json.loads(out.read_text(encoding="utf-8"))
    result["ok"] = True
    return result


def timing(samples: list[float], unit: str) -> str:
    """Median, unit, sample count, and the highest percentile that has at
    least ten samples beyond it (nearest rank), when there is one."""
    text = f"{statistics.median(samples):.6g}\t{unit}\tn={len(samples)}"
    n = len(samples)
    if n >= 20:
        pct = math.floor(100 * (n - 10) / n)
        text += f"\tp{pct}={sorted(samples)[math.ceil(pct * n / 100) - 1]:.6g}"
    return text


def run_workload(name: str, args, root: Path, work: Path, deadline: float) -> dict:
    cfg = WORKLOADS[name]
    cap = memory_cap()
    base = {"workload": name, "seed": args.seed, "root": str(root), "workdir": str(work), "cap_bytes": cap}
    # traced: session 0 stays untraced as the overhead baseline; where nn
    # runs, the last one tracks memory, whose cost would distort the times
    n = max(cfg["sessions"], 3) if args.trace else cfg["sessions"]
    sessions = []
    for i in range(n):
        spec = dict(
            base,
            session=i,
            budget_s=args.seconds / cfg["sessions"],
            traced=bool(args.trace) and i > 0,
            track_memory=bool(args.trace) and i == n - 1 and name != "extract",
            out=str(work / f"{name}-{i}.json"),
            spans_out=str(root / ".perfbench" / f"spans-{name}-{i}.json"),
        )
        sessions.append(spawn(spec, deadline))
    probe = None
    if cfg.get("probe"):
        probe = spawn(dict(base, probe=True, session="probe", out=str(work / f"{name}-probe.json")), deadline)
    return summarize(name, sessions, probe)


def summarize(name: str, sessions: list[dict], probe: dict | None) -> dict:
    good = [s for s in sessions if s["ok"]]
    failed = len(sessions) - len(good)
    checks = [f"session {i}: {s['error']}" for i, s in enumerate(sessions) if not s["ok"]]
    checks += [c for s in good for c in s["checks"]]
    # every session starts from the same seed, so outputs agree bit for bit,
    # traced or not (train: the losses of the steps both sessions ran)
    prints = [s["fingerprint"] for s in good]
    for other in prints[1:]:
        n = min(len(other), len(prints[0]))
        if other[:n] != prints[0][:n]:
            checks.append("sessions disagree on their outputs (losses, features or run files)")
            break
    ops = [t for s in good for t in s["ops"]]
    plain = [s for s in good if "layers" not in s]  # timings come from untraced sessions only
    summary = {
        "name": name,
        "sessions": good,
        "plain": plain,
        "probe": probe,
        "checks": checks,
        "attempted": len(ops) + failed,
        "failed": failed,
        "e2e": {},
    }
    if plain:
        summary["e2e"] = {
            "setup_s": statistics.median(s["setup_s"] for s in plain),
            "op_s": statistics.median(t for s in plain for t in s["ops"]),
            "peak_rss_mib": max(s["peak_rss_mib"] for s in plain),
        }
    if probe is not None and not probe["ok"]:
        checks.append(f"bin-fft probe: {probe['error']}")
    elif probe is not None:
        checks += probe["checks"]
    return summary


def layer_metrics(summary: dict, specs: list[dict]) -> dict:
    """Per-layer values from the traced sessions: ``*/op`` units are summed
    and divided by the traced op count, ``MiB`` takes the maximum."""
    traced = [s for s in summary["sessions"] if "layers" in s]
    timed = [s for s in traced if not s["track_memory"]]
    untraced = summary["plain"]
    n_ops = sum(len(s["ops"]) for s in timed) or 1
    values = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if unit == "MiB":
            values[name] = max((s["layers"].get(name, 0.0) for s in traced), default=0.0)
        else:
            values[name] = sum(s["layers"].get(name, 0.0) for s in timed) / n_ops
    probe = summary["probe"]
    if probe and probe["ok"] and not probe["probe"]["ok"]:
        values[f"nn.failed.{probe['probe']['where']}"] = 1.0
    passes = [p for s in timed for p in s.get("passes", [])]
    if passes:
        values["cli.report.er"] = statistics.mean(p["er"] for p in passes)
        values["cli.report.f"] = 100 * statistics.mean(p["f"] for p in passes)
    if timed and untraced:
        values["bench.trace_overhead_s"] = statistics.median(t for s in timed for t in s["ops"]) - statistics.median(
            t for s in untraced for t in s["ops"]
        )
    return {spec["name"]: values.get(spec["name"], 0.0) for spec in specs}


def stage_lines(summary: dict) -> list[str]:
    """The named stage metrics this workload measures, with units."""
    name, good, e2e = summary["name"], summary["plain"], summary["e2e"]
    lines = []
    if good:
        env = good[0]["env"]
        lines.append("env\t" + " ".join(f"{k}={v}" for k, v in env.items()))
        lines.append(f"setup_s\t{timing([s['setup_s'] for s in good], 's')}")
    if name == "extract" and good:
        for fc in good[0]["parts"]:
            lines.append(f"extract_s.{fc}\t{timing([t for s in good for t in s['parts'][fc]], 's/clip')}")
    elif name in ("train", "train-fft") and good:
        shape = "mbe" if name == "train" else "bin-fft-small"
        lines.append(f"train_step_s.{shape}\t{timing([t for s in good for t in s['ops']], 's/step')}")
        lines.append(f"train_peak_rss_mib.{shape}\t{e2e['peak_rss_mib']:.1f}\tMiB")
    elif name == "protocol" and good:
        passes = [p for s in good for p in s["passes"]]
        lines.append(f"protocol_s\t{timing([t for s in good for t in s['ops']], 's/pass')}")
        lines.append(f"protocol_er\t{statistics.mean(p['er'] for p in passes):.6g}\tratio")
        lines.append(f"protocol_f\t{100 * statistics.mean(p['f'] for p in passes):.6g}\t%")
    if name in ("extract", "protocol") and good:
        lines.append(f"peak_rss_mib\t{e2e['peak_rss_mib']:.1f}\tMiB")
    probe = summary["probe"]
    if probe and probe["ok"]:
        p = probe["probe"]
        if p["ok"]:
            lines.append(f"train_step_s.bin-fft\t{p['seconds']:.6g}\tn=1\ts/step")
            lines.append(f"train_peak_rss_mib.bin-fft\t{probe['peak_rss_mib']:.1f}\tMiB")
        else:
            lines.append(f"train_step_s.bin-fft\tfailed: MemoryError in {p['where']} after {p['seconds']:.3g} s")
            lines.append(
                f"train_peak_rss_mib.bin-fft\tfailed: {probe['peak_rss_mib']:.1f} MiB when it failed "
                f"under a {probe['env']['cap_mib']} MiB cap"
            )
    attempted = summary["attempted"] + (1 if probe else 0)
    failed = summary["failed"] + (1 if probe and not (probe["ok"] and probe["probe"]["ok"]) else 0)
    probed = ", the bin-fft probe included" if probe else ""
    lines.append(f"failed_share\t{failed / attempted:.6g}\t{failed}/{attempted} operations{probed}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "sedpipe" / "__init__.py").is_file():
        print(f"error: no src/sedpipe under {root}; run from the repository root", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    deadline = time.monotonic() + RUN_DEADLINE_S
    work = root / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        summaries = [run_workload(name, args, root, work, deadline) for name in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, correct, attempted, failed = {}, True, 0, 0
    for summary in summaries:
        print(f"== {summary['name']} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        for line in stage_lines(summary):
            print(line)
        for check in summary["checks"]:
            print(f"CHECK FAILED\t{check}")
        correct = correct and not summary["checks"]
        attempted += summary["attempted"]
        failed += summary["failed"]
        if not summary["plain"]:
            continue
        values = layer_metrics(summary, specs) if args.trace else summary["e2e"]
        prefix = f"{summary['name']}." if len(summaries) > 1 else ""
        if args.trace:  # layers this workload bypasses read 0 and are left out here
            for spec in specs:
                if values[spec["name"]]:
                    print(f"{spec['name']}\t{values[spec['name']]:.6g}\t{spec['unit']}")
        for spec in specs:
            metrics[prefix + spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
