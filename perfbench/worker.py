"""Timed passes of one workload, in a fresh interpreter started by run.py.

A pass is one in-process call of `mesorate.cli.cli_main` with the
workload's arguments, its stdout captured.  Passes repeat until the time
budget is spent.  Between passes, outside the timed region, the worker
collects garbage and fingerprints the pass's output; the first output
with each fingerprint is kept for run.py to check.  With --trace 1 the
second half of the budget runs under the span recorder.  The calibration
kernel (calibrate.py) runs before the first pass and after every pass.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S
       --trace 0|1 --dir WORKDIR [--config CFG] [--spans PATH] [--quick]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import time

import calibrate
import workloads

MIN_PASSES = 3
MIN_TRACED_PASSES = 1


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_passes(cli_main, wl, argv, out_path, seconds, min_passes, work_dir, outputs):
    """Repeat the command for `seconds` (at least `min_passes` times).

    Returns one record per pass: wall time, exit code, the exception if
    the command raised one, and the key of its output in `outputs`, which
    maps a key to the kept output file (or the captured stdout, for
    commands that write no file); and the calibration kernel times, one
    before the first pass and one after each.
    """
    records = []
    kernels = []
    deadline = time.perf_counter() + seconds
    while len(records) < min_passes or time.perf_counter() < deadline:
        if os.path.exists(out_path):
            os.remove(out_path)
        gc.collect()
        if not kernels:
            kernels.append(calibrate.kernel_s())
        captured = io.StringIO()
        error = None
        with contextlib.redirect_stdout(captured):
            t0 = time.perf_counter()
            try:
                rc = cli_main(argv)
            except Exception as exc:  # noqa: BLE001 - a command that raises is a failed pass
                rc, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        kernels.append(calibrate.kernel_s(calibrate.KERNEL_SHARE * elapsed))
        key = None
        if error is None:
            if wl.writes_file:
                if os.path.exists(out_path):
                    key = f"{rc}:{_digest(out_path)}"
                    if key not in outputs:
                        kept = os.path.join(work_dir, f"output-{len(outputs)}")
                        os.replace(out_path, kept)
                        outputs[key] = kept
            else:
                text = captured.getvalue()
                key = f"{rc}:{hashlib.sha256(text.encode()).hexdigest()}"
                outputs.setdefault(key, text)
        records.append({"s": elapsed, "rc": rc, "error": error, "output": key})
    return records, kernels


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--config")
    ap.add_argument("--spans")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    from mesorate import cli

    wl = workloads.make(args.workload, args.seed, args.quick)
    out_path = os.path.join(args.dir, "out.csv")
    argv = wl.argv(args.config, out_path)
    outputs: dict[str, str] = {}
    budget = args.seconds / 2 if args.trace else args.seconds
    result = {}
    result["passes"], result["kernels"] = run_passes(cli.cli_main, wl, argv, out_path, budget,
                                                     MIN_PASSES, args.dir, outputs)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        import spans

        rec = spans.Recorder()
        restore = spans.install(rec)
        try:
            traced, traced_kernels = run_passes(cli.cli_main, wl, argv, out_path, budget,
                                                MIN_TRACED_PASSES, args.dir, outputs)
        finally:
            restore()
        rows = nbytes = 0
        first_key = next((p["output"] for p in result["passes"] if p["output"]), None)
        if wl.writes_file and first_key is not None:
            first = outputs[first_key]
            nbytes = os.path.getsize(first)
            with open(first, "rb") as fh:
                rows = sum(1 for _ in fh) - 1
        layers = spans.layer_metrics(rec, len(traced), rows)
        layers["output.rows"] = float(rows)
        layers["output.bytes"] = float(nbytes)
        result["traced"] = traced
        result["traced_kernels"] = traced_kernels
        result["layers"] = layers
        if args.spans:
            rec.write_tsv(args.spans)

    if os.path.exists(out_path):
        os.remove(out_path)
    result["outputs"] = outputs
    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
