"""The mesorate benchmark: one workload, timed untraced or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is taken from `src/`
next to this directory.  Workloads (see NOTES.md for why each exists):
`sweep`, `sweep_stiff`, `evolve`, `validate`.

A run
1. times `SETUP_PROBES` fresh interpreters from start until mesorate is
   imported and the workload's config and grid are parsed (`setup_s`),
   skipped with --trace 1;
2. starts one worker interpreter (worker.py) that repeats the workload's
   CLI command in process for --seconds, and with --trace 1 spends the
   second half under the span recorder (spans.py);
3. checks every distinct output against the oracles in oracle.py, after
   the worker has ended, so neither the checks nor their memory count;
4. prints one line per metric, then the result as one JSON line.

Timing metrics are calibrated medians (calibrate.py): each probe and
pass is divided by a reference kernel timed around it, so the drift of
a shared machine's speed cancels; raw medians and p90s are printed too.

The end-to-end metrics (--trace 0) are `setup_s`, `pass_s`,
`ok_points_per_s`, `ok_share` and `peak_rss_mb`; --trace 1 prints the
per-layer metrics instead.  A pass fails when the command raises, exits
with an unexpected code, or writes an output that is malformed or holds
a value its oracle rejects; `correct` is true when no pass failed.
Points the program itself reports as failed (NaN sweep rows, validation
criteria reported FAIL) lower `ok_share` without failing the pass.

Exit code 0 with a result, 2 on a usage error, 1 when the benchmark
cannot run (no sources, the worker crashed or overran).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 11
RUN_LIMIT_S = 170.0      # the whole run, probes and checks included


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one process, one thread: the load the CLI puts on a machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _probe(env, config: str | None, grid: str | None, timeout: float) -> float:
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), config or "", grid or ""],
        stdout=subprocess.PIPE, env=env, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line.startswith("ready"):
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def _check_outputs(outputs: dict, wl) -> dict:
    """Oracle verdict for each distinct output, keyed like `outputs`."""
    import oracle

    checks = {}
    for key, output in outputs.items():
        rc = int(key.split(":", 1)[0])
        if wl.name == "validate":
            checks[key] = oracle.check_validate(output, rc)
        elif rc != 0:
            checks[key] = oracle.Check(points=1, wrong=1, problem=f"exit code {rc}")
        elif wl.name == "evolve":
            checks[key] = oracle.check_evolve(output, wl)
        else:
            with open(output, encoding="utf-8") as fh:
                checks[key] = oracle.check_sweep(fh.read(), wl)
    return checks


def _verdicts(records, checks):
    """(points, ok points, failed?) per pass; a pass that raised or left
    no output fails with as many points as the others had."""
    points = max((c.points for c in checks.values()), default=1)
    out = []
    for rec in records:
        c = checks.get(rec["output"])
        out.append((points, 0, True) if c is None else (c.points, c.ok, c.wrong > 0))
    return out


def _timing_note(raw: list[float]) -> str:
    return (f"calibrated median; raw median {statistics.median(raw):.6g} s, "
            f"raw p90 {_p90(raw):.6g} s, n={len(raw)}")


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<34} {value:>14.6g} {unit:<9} {note}".rstrip()


def _exit_on_sigterm(signum, _frame):
    # raising here unwinds through subprocess.run, which kills and reaps the
    # worker, and through the `finally` that removes the scratch directory
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description="mesorate benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tenfold smaller inputs and one set-up probe (self-test only)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mesorate", "cli.py")):
        print(f"perfbench: no mesorate sources in {SRC}", file=sys.stderr)
        return 1
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    started = time.perf_counter()
    wl = workloads.make(args.workload, args.seed, args.quick)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    env = _child_env()
    try:
        config = workloads.write_config(wl, work)
        setup, setup_kernels = [], []
        if not args.trace:
            setup_kernels.append(calibrate.kernel_s())
            for _ in range(1 if args.quick else SETUP_PROBES):
                setup.append(_probe(env, config, wl.grid, RUN_LIMIT_S))
                setup_kernels.append(calibrate.kernel_s())

        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", wl.name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--dir", work]
        if config:
            cmd += ["--config", config]
        if args.trace:
            cmd += ["--spans", os.path.join(WORK, f"spans-{wl.name}.tsv")]
        if args.quick:
            cmd.append("--quick")
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired:
            print(f"perfbench: worker overran {RUN_LIMIT_S:.0f} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)

        sys.path.insert(0, SRC)
        checks = _check_outputs(result["outputs"], wl)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = result["passes"] + result.get("traced", [])
    verdicts = _verdicts(records, checks)
    untraced = verdicts[:len(result["passes"])]
    times = [rec["s"] for rec in result["passes"]]
    pass_s = calibrate.calibrated(times, result["kernels"])
    points = sum(v[0] for v in untraced)
    ok = sum(v[1] for v in untraced)
    failed_passes = sum(v[2] for v in verdicts)
    ok_share = ok / points
    problems = sorted({c.problem for c in checks.values() if c.problem}
                      | {rec["error"] for rec in records if rec["error"]})
    max_rel_err = max((c.max_rel_err for c in checks.values()), default=0.0)

    print(f"perfbench {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(times)} passes of `mesorate {' '.join(wl.argv('CFG', 'OUT'))}`")
    if args.trace:
        traced_s = calibrate.calibrated([rec["s"] for rec in result["traced"]],
                                        result["traced_kernels"])
        metrics = dict(result["layers"])
        metrics["oracle.max_rel_err"] = max_rel_err
        metrics["bench.trace_overhead_share"] = (traced_s - pass_s) / pass_s
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in spans.LAYER_UNITS.items()}
        for name, m in out.items():
            print(_line(name, m["value"], m["unit"]))
        print(_line("pass_s untraced / traced", pass_s, "s",
                    f"/ {traced_s:.6g} s, n={len(times)} / {len(result['traced'])}"))
    else:
        ok_per_pass = ok / len(times)
        out = {
            "setup_s": {"value": calibrate.calibrated(setup, setup_kernels), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "ok_points_per_s": {"value": ok_per_pass / pass_s, "unit": "points/s"},
            "ok_share": {"value": ok_share, "unit": "ratio"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(_line("setup_s", out["setup_s"]["value"], "s", _timing_note(setup)))
        print(_line("pass_s", pass_s, "s", _timing_note(times)))
        print(_line("ok_points_per_s", out["ok_points_per_s"]["value"], "points/s",
                    f"{ok_per_pass:g} ok points per pass / pass_s, n={len(times)}"))
        print(_line("ok_share", ok_share, "ratio",
                    f"{ok} ok of {points} points, n={len(times)} passes"))
        print(_line("failed_share", 1.0 - ok_share, "ratio",
                    f"{points - ok} failed of {points} points, n={len(times)} passes"))
        print(_line("peak_rss_mb", result["peak_rss_mb"], "MB", "ru_maxrss of the worker, n=1"))
        print(_line("oracle max_rel_err", max_rel_err, "ratio"))
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": failed_passes == 0, "attempted": len(records),
                      "failed": failed_passes, "metrics": out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
