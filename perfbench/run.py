"""sadnet benchmark: one run of one workload.

Usage, from the root of a sadnet checkout:

    python3 perfbench/run.py --workload train-smoke --seed 1 --seconds 20 --trace 0

Each session of the run happens in a fresh child process (``child.py``)
under an address-space cap, with BLAS threads pinned to the number of
usable cores; sessions follow one another (closed loop, one client) until
the next one would end after ``--seconds``. The program is imported from
``src/``; nothing is installed. A child that dies (a kill by the kernel, or
a crash) has its unfinished call's ops counted as failed, and the next
child carries on.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
they are the per-layer metrics, from spans written under ``perfbench/out``.
Lines before it give the run's context (numpy/BLAS, threads, SGEMM ceiling,
op_s_tail where the run has enough samples, fail_ratio) and, for traced
runs, the MAC cross-check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import CAP_MB, END_TO_END, WORKLOADS  # noqa: E402

# A run must end within 180 s; children get what is left of this.
RUN_LIMIT_S = 170.0
# Interpreter start and imports of one child process, roughly.
STARTUP_S = 0.5


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cap-mb", type=int, default=CAP_MB,
                   help="address-space cap of the run process (MiB)")
    return p.parse_args(argv)


def read_records(path) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def tail_percentile(samples):
    """Highest percentile with at least 10 samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    k = n - 11            # index with exactly 10 samples after it
    return 100.0 * (k + 1) / n, ordered[k]


def main(argv=None) -> int:
    args = parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sadnet", "__init__.py")):
        print("perfbench: run from the root of a sadnet checkout "
              "(src/sadnet not found)", file=sys.stderr)
        return 2
    started = time.monotonic()
    out_dir = os.path.join(HERE, "out")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(out_dir, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    results = os.path.join(workdir, "records.jsonl")
    spans = os.path.join(out_dir, tag + ".spans.jsonl")
    if os.path.exists(spans):
        os.remove(spans)
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(nproc),
               OMP_NUM_THREADS=str(nproc), MKL_NUM_THREADS=str(nproc),
               PYTHONDONTWRITEBYTECODE="1")

    window_start = None
    lost_ops = 0
    crashed = False
    traced_done = False
    session = 0
    while True:
        traced = bool(args.trace) and session > 0
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--session", str(session), "--cap-mb", str(args.cap_mb),
               "--workdir", workdir, "--results", results, "--spans", spans]
        if traced:
            cmd.append("--traced")
        seen = len(read_records(results))
        t_spawn = time.monotonic()
        try:
            code = subprocess.run(
                cmd, env=env, stdout=sys.stderr,
                timeout=max(RUN_LIMIT_S - (t_spawn - started), 1.0)).returncode
        except subprocess.TimeoutExpired:
            code = -9
        t_done = time.monotonic()
        recs = read_records(results)[seen:]
        begun = [r for r in recs if r["type"] == "begin"]
        ended = [r for r in recs if r["type"] == "session"]
        if begun and window_start is None:
            window_start = begun[0]["t"]
        if code != 0 or not any(r["type"] == "end" for r in recs):
            # the process died: its unfinished call failed as a whole
            crashed = crashed or code > 0
            lost_ops += sum(max(r["planned"], 1)
                            for r in begun[len(ended):]) or 1
            if not begun:
                break           # it never reached a session: no progress
        elif traced:
            traced_done = True
        session += 1
        # what the next process should take: this one's session and setup
        # calls plus interpreter start, without the one-off input generation
        took = t_done - (begun[0]["t"] if begun else t_spawn) + STARTUP_S
        if args.trace and not traced_done and session < 4:
            continue            # a traced run needs one traced session
        if (window_start is None or t_done - window_start + took > args.seconds
                or t_done - started + took > RUN_LIMIT_S - 10):
            break

    records = read_records(results)
    rusage = resource.getrusage(resource.RUSAGE_CHILDREN)
    report = aggregate(records, args, rusage.ru_maxrss / 1024.0, lost_ops,
                       crashed)
    with open(os.path.join(out_dir, tag + ".records.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)
    shutil.rmtree(workdir, ignore_errors=True)
    if report is None:
        print("perfbench: the run process never started its sessions",
              file=sys.stderr)
        return 1
    info, result = report
    if args.trace:
        info["spans_file"] = os.path.relpath(spans)
    print(json.dumps({"info": info}, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']!s:>22} {m['unit']}")
    print(json.dumps(result))
    return 0


def aggregate(records, args, peak_rss_mb, lost_ops, crashed):
    sessions = [r for r in records if r["type"] == "session"]
    starts = [r for r in records if r["type"] == "start"]
    if not starts:
        return None
    attempted = sum(max(r["planned"], 1) for r in sessions) + lost_ops
    failed = sum(r.get("failed", 0) for r in sessions) + lost_ops
    check_failed = any(r.get("failed") and "error" not in r
                       for r in sessions)
    timed = [r for r in sessions
             if r["planned"] and r.get("ops") and not r["traced"]]
    steady = [t for r in timed for t in r["ops"][1:]]
    pixels = sum(p for r in timed for p in r["pixels"][1:])
    info = dict(starts[0]["info"])
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, sessions=len(timed), steady_ops=len(steady),
                fail_ratio=failed / attempted)
    tail = tail_percentile(steady)
    if tail:
        info["op_s_tail"] = {"percentile": tail[0], "value": tail[1]}
    wrapped = [w for r in records if r["type"] == "end" for w in r["wrapped"]]
    if wrapped:
        info["left_wrapped"] = wrapped
    correct = not check_failed and not crashed and not wrapped
    if args.trace:
        from layers import finalize, metric_names
        layer_recs = [r for r in records if r["type"] == "layers"]
        checks = [r["mac_check"] for r in layer_recs]
        info["mac_check"] = {k: v for k, v in checks[0].items()
                             if k != "macs_by_layer"} if checks else None
        correct = correct and bool(checks) and all(c["ok"] for c in checks)
        values = finalize([r["sums"] for r in layer_recs], sessions,
                          info["sgemm_gmac_s"]) if layer_recs else {}
        metrics = {name: {"value": values.get(name), "unit": unit}
                   for name, unit in metric_names().items()}
    else:
        # None (JSON null) where every op of that kind failed
        values = {
            "setup_s": _median([r["setup_s"] for r in sessions
                                if "setup_s" in r]),
            "first_op_s": _median([r["ops"][0] for r in timed]),
            "op_s_p50": _median(steady),
            "mpix_per_s": pixels / sum(steady) / 1e6 if steady else None,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return info, {"correct": bool(correct), "attempted": attempted,
                  "failed": failed, "metrics": metrics}


def _median(values):
    return statistics.median(values) if values else None


if __name__ == "__main__":
    sys.exit(main())
