#!/usr/bin/env python3
"""The COMPACT benchmark entry point.

Run one workload (builds perfbench/main.exe first):

    python3 perfbench/run.py --workload serve-hot --seed 3 --seconds 20 --trace 0

The last stdout line is the result object: correct, attempted, failed and
metrics.  Other modes:

    python3 perfbench/run.py sweep [--workloads W,W] [--seeds 1-10]
                                   [--trace 0|1] [--seconds S] [--out FILE]
        run each workload once per seed, append every result to FILE
        (JSON lines), and print each metric's median, quartiles and
        spread against its bound, plus the determinism checks;

    python3 perfbench/run.py compare OLD NEW
        compare two result sets written by sweep, one row per workload
        and metric, flagging changes beyond the recorded bounds;

    python3 perfbench/run.py selfcheck
        replay BENCH_pr7.json's loadgen run (seed 24301, 200 requests)
        and check its 80 hits and 120 solves.

Everything is built and run from the current directory, which must be
the repository root.  The build goes to .bench_build with dune's shared
cache disabled, so nothing is written outside the working tree.
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ["table1-synth", "serve-mix", "serve-hot"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return False
    if proc.returncode != 0 or not os.path.exists(EXE):
        log("perfbench: build failed")
        return False
    return True


def run_exe(args, capture):
    """Run main.exe; returns (exit code, stdout or None)."""
    env = dict(os.environ)
    env.pop("COMPACT_TRACE", None)
    env.pop("COMPACT_INJECT", None)
    # main.exe starts its servers as child processes; in a session of its
    # own, the whole group can be stopped if it overruns.
    proc = subprocess.Popen([EXE] + args, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        out, code = None, 124
    stop_group(proc)
    if code == 124:
        return code, None
    return code, out.decode() if capture else None


def stop_group(proc):
    """Kill whatever is left of main.exe's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def benchmark_json():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def parse_output(out):
    """(result, detail) from main.exe's stdout."""
    lines = [l for l in out.splitlines() if l.strip()]
    result = json.loads(lines[-1])
    detail = None
    for l in lines:
        if l.startswith("perfbench-detail "):
            detail = json.loads(l[len("perfbench-detail "):])
    return result, detail


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def load_set(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def metric_series(records):
    """{(workload, metric): [values]} over successful runs."""
    series = {}
    for rec in records:
        if not rec["result"].get("correct"):
            continue
        for name, m in rec["result"]["metrics"].items():
            series.setdefault((rec["workload"], name), []).append(m["value"])
    return series


def bounds_of(bench):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        bounds[m["name"]] = (None, m["better"])
    return bounds


def determinism_keys(detail):
    """The counts that must repeat exactly across runs of one build."""
    if detail is None:
        return None
    if detail["workload"] == "table1-synth":
        return json.dumps(detail["per_circuit_s_d_vh"], sort_keys=True)
    quality = [detail[k] for k in
               ("semiperimeter_total", "max_dimension_total", "vh_total")]
    if detail["workload"] == "serve-mix":
        rounds = detail["rounds"]
        return json.dumps(quality + [detail[k] / rounds for k in
                                     ("hits", "misses", "server_solves",
                                      "cache_inserts")])
    return json.dumps(quality + [detail["server_solves"], detail["cache_inserts"]])


def report_spreads(records, bench):
    bounds = bounds_of(bench)
    ok = True
    print(f"{'workload':14} {'metric':24} {'n':>3} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6}")
    for (w, name), vals in sorted(metric_series(records).items()):
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("nan")
        bound, _ = bounds.get(name, (None, None))
        flag = ""
        if bound is not None and not spread < bound / 3:
            flag = "  <- spread above a third of the bound"
            ok = False
        print(f"{w:14} {name:24} {len(vals):3d} {med:14.6g} {q1:14.6g} "
              f"{q3:14.6g} {spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
    by_workload = {}
    for rec in records:
        key = determinism_keys(rec.get("detail"))
        if key is not None:
            by_workload.setdefault(rec["workload"], set()).add(key)
    for w, keys in sorted(by_workload.items()):
        same = len(keys) == 1
        ok = ok and same
        print(f"determinism {w}: counts {'repeat exactly' if same else 'DIFFER'}"
              f" across runs")
    failed = [r for r in records if not r["result"].get("correct")]
    for r in failed:
        print(f"FAILED run: {r['workload']} seed {r['seed']}")
    return ok and not failed


def cmd_sweep(argv):
    opts = {"--workloads": ",".join(WORKLOADS), "--seeds": "1-10",
            "--trace": "0", "--seconds": None, "--out": None}
    it = iter(argv)
    for a in it:
        if a not in opts:
            sys.exit(f"sweep: unknown option {a}")
        opts[a] = next(it)
    bench = benchmark_json()
    seconds = opts["--seconds"] or str(bench["run_seconds"])
    if not build():
        sys.exit(3)
    records = []
    out = open(opts["--out"], "a") if opts["--out"] else None
    for w in opts["--workloads"].split(","):
        for seed in parse_seeds(opts["--seeds"]):
            code, stdout = run_exe(["--workload", w, "--seed", str(seed),
                                    "--seconds", seconds,
                                    "--trace", opts["--trace"]], capture=True)
            try:
                result, detail = parse_output(stdout)
            except (ValueError, IndexError, TypeError):
                result, detail = {"correct": False, "metrics": {}}, None
            rec = {"workload": w, "seed": seed, "trace": opts["--trace"],
                   "exit": code, "result": result, "detail": detail}
            records.append(rec)
            if out:
                out.write(json.dumps(rec) + "\n")
                out.flush()
            log(f"{w} seed {seed}: exit {code}, "
                + ", ".join(f"{k}={v['value']:.6g}"
                            for k, v in result["metrics"].items()))
    if out:
        out.close()
    sys.exit(0 if report_spreads(records, bench) else 1)


def cmd_compare(argv):
    if len(argv) != 2:
        sys.exit("usage: run.py compare OLD NEW")
    old, new = load_set(argv[0]), load_set(argv[1])
    bounds = bounds_of(benchmark_json())
    so, sn = metric_series(old), metric_series(new)
    flagged = 0
    print(f"{'workload':14} {'metric':24} {'old median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'change':>8}")
    for key in sorted(set(so) | set(sn)):
        w, name = key
        if key not in so or key not in sn:
            print(f"{w:14} {name:24} only in {'NEW' if key in sn else 'OLD'}")
            continue
        o1, om, o3 = quartiles(so[key])
        n1, nm, n3 = quartiles(sn[key])
        change = (nm - om) / om if om else float("nan")
        bound, better = bounds.get(name, (None, "lower"))
        worse = change > 0 if better == "lower" else change < 0
        flag = ""
        if bound is not None and worse and abs(change) > bound:
            flag = "  REGRESSION (beyond bound %.2f)" % bound
            flagged += 1
        elif bound is None and om and abs(nm - om) > (o3 - o1):
            flag = "  moved beyond OLD's quartile spread"
        print(f"{w:14} {name:24} {om:12.6g} [{o1:10.6g}, {o3:10.6g}] "
              f"{nm:12.6g} [{n1:10.6g}, {n3:10.6g}] {100 * change:+7.2f}%{flag}")
    for w in WORKLOADS:
        ko = {determinism_keys(r.get("detail")) for r in old if r["workload"] == w}
        kn = {determinism_keys(r.get("detail")) for r in new if r["workload"] == w}
        ko.discard(None)
        kn.discard(None)
        if ko and kn and ko != kn:
            print(f"{w}: quality/determinism counts changed between OLD and NEW")
            flagged += 1
    sys.exit(1 if flagged else 0)


def cmd_selfcheck():
    if not build():
        sys.exit(3)
    code, stdout = run_exe(["--workload", "serve-mix", "--seed", "24301",
                            "--seconds", "1", "--requests", "200",
                            "--trace", "0"], capture=True)
    try:
        result, detail = parse_output(stdout)
    except (ValueError, IndexError, TypeError):
        sys.exit("selfcheck: no result")
    got = (detail["hits"], detail["server_solves"])
    print(f"BENCH_pr7 shape: {got[0]} hits, {got[1]} solves "
          f"(expected 80 and 120); run correct={result['correct']}")
    sys.exit(0 if code == 0 and got == (80, 120) else 1)


def main(argv):
    if argv and argv[0] == "sweep":
        return cmd_sweep(argv[1:])
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    if argv and argv[0] == "selfcheck":
        return cmd_selfcheck()
    if not build():
        sys.exit(3)
    code, _ = run_exe(argv, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
