"""hamforge benchmark: run one workload (or all of them), check its answers
and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Every pass runs in a fresh worker process (worker.py) that first sets the
workload up; workers run one at a time.  With ``--trace 0`` a run makes
PASSES passes, and more while another one is predicted to end within
``--seconds`` of timed work, then prints the end-to-end metrics: medians
over the passes, so that a slow spell of the machine during one pass does
not set them.  With ``--trace 1`` it makes an untraced, a traced and another
untraced pass and prints the per-layer metrics of the traced one, with the
tracing overhead.  The last line of standard output is the result as JSON.
The exit code is 0 when every correctness gate held, 1 when one failed and
2 when the run could not be made.  Full records (and the spans of traced
passes) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("census", "tutte", "lemmas", "sampled")
PASSES = 3
DEADLINE_S = 170        # a run must end within 180 s


class RunFailed(Exception):
    """A worker crashed, timed out or printed something unexpected."""


def run_metadata(seed: int) -> dict:
    rev = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        rev = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hamforge").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "loadavg_start": os.getloadavg()}


def spawn(workload, seed, tiny, deadline, spans_path=None):
    """Start one worker, wait for it and return its pass record, with the
    time from starting it until it was ready to pass (``setup_s``).  With
    ``spans_path`` the pass is traced and its spans are written there."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    # the library's own knobs would change the workload
    env = {k: v for k, v in os.environ.items() if not k.startswith("HAMFORGE_")}
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=max(deadline - t0, 1))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} worker passed the deadline") from None
    finally:
        if proc.poll() is None:     # timed out, or this process is stopping
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise RunFailed(f"{workload} worker exited with {proc.returncode}")
    record = json.loads(lines[1])
    record["setup_s"] = float(lines[0].split()[1]) - t0
    return record


def op_stats(latencies) -> dict:
    """Median and tail of one pass's op latencies (seconds)."""
    lat = sorted(latencies)
    k = spans.tail_index(len(lat))
    return {"p50": statistics.median(lat), "tail": lat[k], "samples": len(lat),
            "tail_percentile": 100 * (k + 1) / len(lat), "beyond": len(lat) - k - 1}


def end_to_end(passes) -> dict:
    """The end-to-end metrics (value, unit): medians over the passes."""
    stats = [op_stats(p["latencies_s"]) for p in passes]

    def median(values):
        return statistics.median(list(values))
    return {
        "setup_s": (median(p["setup_s"] for p in passes), "s"),
        "wall_s": (median(p["wall_s"] for p in passes), "s"),
        "ops_per_s": (median(len(p["latencies_s"]) / p["wall_s"] for p in passes), "1/s"),
        "op_p50_ms": (median(st["p50"] for st in stats) * 1e3, "ms"),
        "op_tail_ms": (median(st["tail"] for st in stats) * 1e3, "ms"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def run_workload(workload, seed, seconds, trace, tiny):
    """Spawn the workers of one run; returns the full record."""
    deadline = time.monotonic() + DEADLINE_S
    record = {"workload": workload, "trace": trace, "tiny": tiny,
              "meta": run_metadata(seed)}
    if trace:
        spans_path = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
        # untraced, traced, untraced: a steady drift of the machine's speed
        # cancels out of the overhead
        passes = [spawn(workload, seed, tiny, deadline, path)
                  for path in (None, spans_path, None)]
        traced = passes[1]
        layers = dict(traced["per_layer"])
        layers["trace.overhead_s"] = traced["wall_s"] - (
            passes[0]["wall_s"] + passes[2]["wall_s"]) / 2
        record["per_layer"] = layers
        record["spans_file"] = traced.get("spans_file")
    else:
        passes = []
        while True:
            passes.append(spawn(workload, seed, tiny, deadline))
            done = sum(p["wall_s"] for p in passes)
            if len(passes) >= PASSES and done + done / len(passes) > seconds:
                break
        metrics = end_to_end(passes)
        record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record["op_tail"] = {k: v for k, v in op_stats(passes[0]["latencies_s"]).items()
                             if k in ("tail_percentile", "samples", "beyond")}
        record["passes"] = [{"setup_s": p["setup_s"], "wall_s": p["wall_s"],
                             "peak_rss_mb": p["peak_rss_mb"]} for p in passes]
    record["attempted"] = sum(p["attempted"] for p in passes)
    record["failed"] = sum(p["failed"] for p in passes)
    record["fail_ratio"] = record["failed"] / record["attempted"]
    record["errors"] = [e for p in passes for e in p["errors"]]
    record["digest"] = passes[0]["digest"]
    record["extra"] = passes[0]["extra"]
    # the same seed must give byte-identical reports in every pass
    deterministic = len({p["digest"] for p in passes}) == 1
    record["gates"] = dict(passes[0]["gates"], deterministic=deterministic)
    record["correct"] = deterministic and all(all(p["gates"].values()) for p in passes)
    return record


def result_line(record) -> dict:
    if record["trace"]:
        units = {name: unit for name, unit, _better in spans.metric_specs()}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in record["per_layer"].items()}
    else:
        metrics = record["end_to_end"]
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def summary(record) -> str:
    head = f"{record['workload']}: correct={record['correct']} " \
           f"attempted={record['attempted']} failed={record['failed']}"
    if record["trace"]:
        lay = record["per_layer"]
        top = sorted((v, k) for k, v in lay.items() if k.endswith(".self_s"))[-5:]
        return f"{head} trace.overhead_s={lay['trace.overhead_s']:.3f} s " \
               f"spans={record['spans_file']}\n  most self time: " + \
               "  ".join(f"{k}={v:.3f} s" for v, k in reversed(top))
    e2e = record["end_to_end"]
    parts = [f"{k}={m['value']:.4g} {m['unit']}" for k, m in e2e.items()]
    parts.insert(5, f"fail_ratio={record['fail_ratio']:.4g} ratio")
    tail = record["op_tail"]
    return f"{head}\n  " + "  ".join(parts) + \
        f"\n  medians of {len(record['passes'])} passes; op_tail_ms is " \
        f"p{tail['tail_percentile']:.1f} of {tail['samples']} ops per pass " \
        f"({tail['beyond']} beyond); digest={record['digest'][:16]}"


def save(record) -> None:
    OUT.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['meta']['seed']}-trace{record['trace']}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's own smoke test")
    args = p.parse_args(argv)
    # unwind on SIGTERM too, so that a running worker is stopped
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(2))
    if not (ROOT / "src" / "hamforge" / "__init__.py").is_file():
        print(f"error: no hamforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        try:
            record = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, args.tiny)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        save(record)
        print("# " + json.dumps({"meta": record["meta"], "gates": record["gates"],
                                 "digest": record["digest"], "extra": record["extra"]}))
        print(summary(record))
        print(json.dumps(result_line(record)))
        return 0 if record["correct"] else 1

    # every workload, untraced then traced, each in its own run
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                record = run_workload(workload, args.seed, args.seconds, trace, args.tiny)
            except RunFailed as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            save(record)
            correct &= record["correct"]
            print(summary(record), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
