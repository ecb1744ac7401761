#!/usr/bin/env python3
"""perfbench: end-to-end benchmark of perfknow's profile -> diagnosis loop.

    python3 perfbench/run.py --workload import-analyze --seed 1 \\
        --seconds 20 --trace 0

Builds the driver (perfbench/CMakeLists.txt, against ../src) into
.bench_build/, writes the workload's inputs from the seed into
.bench_work/<workload>/inputs with gen.py (a separate process, so the
measured process's peak RSS is the program's own), runs the workload in
the driver and prints one JSON result line: every end-to-end metric with
--trace 0, every per-layer metric with --trace 1.

Two more modes check the benchmark itself:
    run.py --self-check          plant one wrong cell and one dropped plant
                                 per workload; every check must report it
    run.py --self-test-trace W   two traced runs of W must not differ under
                                 `pkx diff`; a third with one layer delayed
                                 must be diagnosed as a regression of it
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORK = ".bench_work"
WORKLOADS = ["import-analyze", "perf-history", "serve"]
# Fixed analysis thread pool (perfknow's PERFKNOW_THREADS) for every run.
ANALYSIS_THREADS = "2"
DEADLINE_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; returns its path (relative)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfknow sources (src/) not found next to perfbench/")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench_driver")


def env():
    e = dict(os.environ)
    e["PERFKNOW_THREADS"] = ANALYSIS_THREADS
    return e


def generate(driver, workload, seed):
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    subprocess.run([sys.executable, os.path.join("perfbench", "gen.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--out", os.path.join(work, "inputs")], check=True)
    if workload == "serve":
        subprocess.run([driver, "prep", "--workload", workload, "--work",
                        work, "--seed", str(seed)], check=True, env=env())
    return work


def run_driver(driver, workload, seed, seconds, trace, work, extra=()):
    out = os.path.join(work, "result.json")
    cmd = [driver, "run", "--workload", workload, "--work", work,
           "--seconds", str(seconds), "--trace", str(trace),
           "--seed", str(seed), "--out", out] + list(extra)
    # The driver's stdout carries the analyses' own printing (PerfScript
    # echo); only its result file is read.
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env())
    try:
        rc = proc.wait(timeout=max(10.0, DEADLINE_S - (time.time() - START)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("driver timed out")
        sys.exit(1)
    if rc != 0:
        log("driver exited %d" % rc)
        sys.exit(1)
    with open(out) as f:
        result = json.load(f)
    for note in result.get("notes", []):
        log(note)
    return result


def pkx(driver, *args):
    return subprocess.run([driver, "pkx"] + list(args), env=env(),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)


def self_check(driver, seed):
    ok = True
    for w in WORKLOADS:
        work = generate(driver, w, seed)
        rc = subprocess.run([driver, "self-check", "--workload", w, "--work",
                             work, "--seed", str(seed)],
                            stdout=subprocess.DEVNULL, env=env()).returncode
        ok = ok and rc == 0
    log("self-check " + ("passed: every planted fault was reported" if ok
                         else "FAILED"))
    return 0 if ok else 1


def self_test_trace(driver, workload, seed, seconds):
    """Same-code traced runs must not diff as a regression; a run with
    one layer delayed in the benchmark's wrapper must, naming it."""
    # serve's own rules calls sit in a probe, outside its operations.
    layer = "server" if workload == "serve" else "rules"
    work = generate(driver, workload, seed)
    trials = []
    for name, delay in (("base", ""), ("again", ""), ("delayed", layer)):
        extra = ["--trace-name", name]
        if delay:
            extra += ["--delay-layer", delay]
        run_driver(driver, workload, seed, seconds, 1, work, extra)
        keep = os.path.join(work, "layers-%s.pkb" % name)
        shutil.move(os.path.join(work, name + ".pkb"), keep)
        trials.append(keep)
    repo = os.path.join(work, "trace-repo")
    shutil.rmtree(repo, ignore_errors=True)
    subprocess.run([driver, "new-repo", repo], check=True)
    for t in trials:
        r = pkx(driver, repo, "import", t, "perfbench", workload)
        if r.returncode != 0:
            log(r.stdout)
            return 1
    same = pkx(driver, repo, "diff", "perfbench", workload, "base", "again")
    moved = pkx(driver, repo, "diff", "perfbench", workload, "base",
                "delayed")
    named = [line for line in moved.stdout.splitlines()
             if line.startswith("[MetricRegression] ")
             and (" => %s {TIME}" % layer) in line]
    log("same code: pkx diff exit %d (%s)" % (
        same.returncode, same.stdout.splitlines()[0] if same.stdout else ""))
    log("%s delayed: pkx diff exit %d, %s" % (
        layer, moved.returncode,
        named[0] if named else "no regression named for " + layer))
    ok = same.returncode == 0 and moved.returncode == 3 and bool(named)
    log("trace self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--self-test-trace", metavar="WORKLOAD",
                    choices=WORKLOADS)
    args = ap.parse_args()
    os.chdir(ROOT)

    driver = build()
    global START
    START = time.time()  # the deadline counts from after the build
    if args.self_check:
        return self_check(driver, args.seed)
    if args.self_test_trace:
        return self_test_trace(driver, args.self_test_trace, args.seed,
                               args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    work = generate(driver, args.workload, args.seed)
    log("analysis threads %s (PERFKNOW_THREADS), %d CPUs" % (
        ANALYSIS_THREADS, os.cpu_count() or 0))
    result = run_driver(driver, args.workload, args.seed, args.seconds,
                        args.trace, work)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


START = time.time()

if __name__ == "__main__":
    sys.exit(main())
