"""One benchmark process: import hamforge from the checkout's ``src``, set up
one workload, say so, and run one timed pass, traced or not.

Started by ``run.py``; prints ``ready <monotonic seconds>`` once set-up is
done and, after the pass, one JSON line with the pass record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def run_pass(workload, tracer=None):
    """Stream every row of the workload, timing the gap before each one."""
    from hamforge.errors import HamforgeError

    rows, errors, latencies = [], [], []
    digest = hashlib.sha256()
    t0 = prev = time.perf_counter()
    for label, source in workload.sources():
        it = iter(source())
        while True:
            try:
                row = next(it)
            except StopIteration:
                break
            except HamforgeError as exc:
                now = time.perf_counter()
                latencies.append(now - prev)
                prev = now
                errors.append({"source": label, "error": type(exc).__name__,
                               "detail": str(exc)})
                break
            now = time.perf_counter()
            latencies.append(now - prev)
            prev = now
            record = row.to_json()
            del record["seconds"]
            digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
            rows.append(record)
            if tracer is not None:
                tracer.op_id += 1
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "latencies_s": latencies,
            "attempted": len(rows) + len(errors),
            "failed": sum(not r["ok"] for r in rows) + len(errors),
            "errors": errors[:5], "digest": digest.hexdigest()}, rows, errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--spans", type=Path,
                   help="trace the pass and write its spans here")
    args = p.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import hamforge
    if Path(hamforge.__file__).resolve().parent != src / "hamforge":
        print(f"error: imported hamforge from {hamforge.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    workload.setup()
    print(f"ready {time.monotonic()!r}", flush=True)

    tracer = undo = None
    if args.spans is not None:
        tracer = spans.Tracer()
        undo = spans.install(tracer)
    try:
        record, rows, errors = run_pass(workload, tracer)
    finally:
        if undo is not None:
            spans.uninstall(undo)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["gates"] = workload.gates(rows, errors)
    record["extra"] = workload.extra()
    if tracer is not None:
        record["per_layer"] = spans.layer_metrics(tracer, workload.kept_graphs())
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(args.spans)
        record["spans_file"] = str(args.spans)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
