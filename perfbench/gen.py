"""Input generator for the perfbench workloads.

Writes every text input a workload needs, from the seed alone, with its
own formatting code (never through perfknow's writers), plus a
manifest.json holding what the oracles compare against: the planted
diagnosis sets, a sample of cube cells and the byte sizes of the inputs.

    python3 perfbench/gen.py --workload import-analyze --seed 1 --out DIR
"""

import argparse
import json
import os
import random

APP = "Bench"
EXP = "cube"

# The cube the import-analyze workload rotates through four formats.
THREADS = 16
EVENTS = 1000
METRICS = ["TIME", "CPU_CYCLES", "BACK_END_BUBBLE_ALL", "L1D_STALL_CYCLES",
           "FP_STALL_CYCLES", "L3_MISSES", "REMOTE_MEMORY_ACCESSES",
           "LOCAL_MEMORY_ACCESSES"]
UNITS = {"TIME": "usec"}
KERNELS = 5           # heavy top-level loops, each with one heavy inner loop
IMBALANCED = 2        # planted LoadImbalance pairs
MEMFP = 4             # planted MemoryFpStallDominated heavy events
REMOTE = 3            # planted RemoteMemoryDominates heavy events
SLOTS = ["pkprof", "json", "csv", "tau"]
MULTI_METRIC_SLOTS = ["pkprof", "json", "csv"]

# The perf-history workload's Google-Benchmark reports.
BENCHMARKS = 2000
REPETITIONS = 9
REPORTS = 4           # reports rotate; consecutive ones differ by plants
PLANTED = 12          # regressions planted per report (disjoint per report)
HISTORY_KEEP = 30


def slot_name(fmt):
    return "cube-" + fmt


def fmt_num(x):
    return repr(float(x))


# ---- import-analyze ------------------------------------------------------

def make_cube(rng):
    """Returns (events, parents, excl, incl, calls, plants).

    excl/incl are [thread][event][metric] nested lists. Ten heavy events
    (five kernels, each with one inner loop) hold about 70 % of TIME; the
    rest is spread thin over filler events so that no rule threshold
    (runtimeFraction > 0.05) is reachable by them.
    """
    names = ["main"]
    parents = [-1]
    heavy = []
    pairs = []
    for k in range(KERNELS):
        outer = "main => kernel_%02d" % k
        inner = outer + " => inner_%02d" % k
        names.append(outer)
        parents.append(0)
        names.append(inner)
        parents.append(len(names) - 2)
        heavy += [len(names) - 2, len(names) - 1]
        pairs.append((len(names) - 2, len(names) - 1))
    while len(names) < EVENTS:
        names.append("main => fill_%04d" % len(names))
        parents.append(0)

    imbalanced = rng.sample(range(KERNELS), IMBALANCED)
    memfp = set(rng.sample(heavy, MEMFP))
    remote = set(rng.sample(heavy, REMOTE))

    # Exclusive TIME per (thread, event).
    time = [[0.0] * EVENTS for _ in range(THREADS)]
    signs = [1] * (THREADS // 2) + [-1] * (THREADS - THREADS // 2)
    for k, (outer, inner) in enumerate(pairs):
        base = 70000.0 * (0.9 + 0.2 * rng.random())
        if k in imbalanced:
            rng.shuffle(signs)
            for t in range(THREADS):
                z = signs[t] * (0.6 + 0.3 * rng.random())
                # The inner loop's surplus is the outer loop's wait: cv
                # about 0.7 on both, per-thread correlation -1.
                time[t][outer] = base * (1.0 - 0.8 * z)
                time[t][inner] = base * (1.0 + 0.8 * z)
        else:
            for t in range(THREADS):
                time[t][outer] = base * (1.0 + 0.05 * (rng.random() - 0.5))
                time[t][inner] = base * (1.0 + 0.05 * (rng.random() - 0.5))
    for t in range(THREADS):
        time[t][0] = 5000.0 * (0.9 + 0.2 * rng.random())
        for e in range(1 + 2 * KERNELS, EVENTS):
            time[t][e] = 300.0 * (0.5 + rng.random())

    # Per-event counter ratios (shared by every thread, with small noise).
    memfp_share = [0.95 if e in memfp else 0.5 for e in range(EVENTS)]
    remote_ratio = [0.8 if e in remote else 0.2 for e in range(EVENTS)]
    excl = []
    for t in range(THREADS):
        rows = []
        for e in range(EVENTS):
            tm = time[t][e]
            cycles = tm * 1500.0 * (1.0 + 0.01 * rng.random())
            stalls = cycles * (0.3 + 0.2 * rng.random())
            memfp_stalls = stalls * memfp_share[e]
            l3 = cycles * 0.001 * (0.5 + rng.random())
            rem = l3 * remote_ratio[e]
            rows.append([tm, cycles, stalls, memfp_stalls * 0.7,
                         memfp_stalls * 0.3, l3, rem, l3 - rem])
        excl.append(rows)

    # Inclusive = exclusive + children's inclusive (children come after
    # their parent, so one reverse pass suffices).
    incl = []
    for t in range(THREADS):
        rows = [list(r) for r in excl[t]]
        for e in range(EVENTS - 1, 0, -1):
            p = parents[e]
            for m in range(len(METRICS)):
                rows[p][m] += rows[e][m]
        incl.append(rows)
    calls = [[(1.0, float(sum(1 for p in parents if p == e)))
              for e in range(EVENTS)] for _ in range(THREADS)]

    plants = {
        "LoadImbalance": sorted(names[pairs[k][1]] for k in imbalanced),
        "MemoryFpStallDominated": sorted(names[e] for e in memfp),
        "RemoteMemoryDominates": sorted(names[e] for e in remote),
    }
    return names, parents, excl, incl, calls, plants


def write_pkprof(path, name, cube):
    names, parents, excl, incl, calls, _ = cube
    lines = ["PKPROF\t1", "trial\t" + name, "meta\tgenerator\tperfbench",
             "threads\t%d" % THREADS]
    for m in METRICS:
        lines.append("metric\t%s\t%s\t0" % (m, UNITS.get(m, "count")))
    for e, n in enumerate(names):
        lines.append("event\t%d\t\t%s" % (parents[e], n))
    for t in range(THREADS):
        for e in range(EVENTS):
            fields = ["d", str(t), str(e), fmt_num(calls[t][e][0]),
                      fmt_num(calls[t][e][1])]
            for m in range(len(METRICS)):
                fields += [fmt_num(incl[t][e][m]), fmt_num(excl[t][e][m])]
            lines.append("\t".join(fields))
    lines.append("end")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_json(path, name, cube):
    names, parents, excl, incl, calls, _ = cube
    out = ['{"name": %s, "threads": %d,' % (json.dumps(name), THREADS),
           ' "metadata": {"generator": "perfbench"},',
           ' "metrics": [' + ", ".join(
               '{"name": "%s", "units": "%s", "derived": false}'
               % (m, UNITS.get(m, "count")) for m in METRICS) + '],',
           ' "events": [' + ", ".join(
               '{"name": %s, "parent": %d, "group": ""}'
               % (json.dumps(n), parents[e]) for e, n in enumerate(names))
           + '],',
           ' "data": [']
    rows = []
    for t in range(THREADS):
        for e in range(EVENTS):
            vals = ", ".join("[%s, %s]" % (fmt_num(incl[t][e][m]),
                                           fmt_num(excl[t][e][m]))
                             for m in range(len(METRICS)))
            rows.append('  {"thread": %d, "event": %d, "calls": %s, '
                        '"subcalls": %s, "values": [%s]}'
                        % (t, e, fmt_num(calls[t][e][0]),
                           fmt_num(calls[t][e][1]), vals))
    out.append(",\n".join(rows))
    out.append(" ]}")
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")


def write_csv(path, cube):
    names, _, excl, incl, calls, _ = cube
    lines = ["event,thread,metric,inclusive,exclusive,calls,subcalls"]
    for e, n in enumerate(names):
        for t in range(THREADS):
            c, s = calls[t][e]
            for m, mname in enumerate(METRICS):
                lines.append("%s,%d,%s,%s,%s,%s,%s" % (
                    n, t, mname, fmt_num(incl[t][e][m]),
                    fmt_num(excl[t][e][m]), fmt_num(c), fmt_num(s)))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_tau(directory, cube):
    names, _, excl, incl, calls, _ = cube
    os.makedirs(directory, exist_ok=True)
    for t in range(THREADS):
        lines = ["%d templated_functions_MULTI_TIME" % EVENTS,
                 "# Name Calls Subrs Excl Incl ProfileCalls"]
        for e, n in enumerate(names):
            c, s = calls[t][e]
            lines.append('"%s" %s %s %s %s 0 GROUP="TAU_DEFAULT"' % (
                n, fmt_num(c), fmt_num(s), fmt_num(excl[t][e][0]),
                fmt_num(incl[t][e][0])))
        lines.append("0 aggregates")
        with open(os.path.join(directory, "profile.%d.0.0" % t), "w") as f:
            f.write("\n".join(lines) + "\n")


def dir_bytes(path):
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(path, f))
                   for f in os.listdir(path))
    return os.path.getsize(path)


SCRIPT = '''# The paper's Fig. 1 analysis over one imported slot, with full
# provenance and every proof tree rendered.
Session.setProvenance("full")
ruleHarness = RuleHarness.useGlobalRules("openuh/OpenUHRules.drl")
trial = TrialMeanResult(Utilities.getTrial("%(app)s", "%(exp)s", "%(trial)s"))
op = DeriveMetricOperation(trial, "BACK_END_BUBBLE_ALL", "CPU_CYCLES",
                           DeriveMetricOperation.DIVIDE)
derived = op.processData().get(0)
mainEvent = derived.getMainEvent()
for event in derived.getEvents():
    MeanEventFact.compareEventToMain(derived, mainEvent, derived, event)
assertLoadBalanceFacts(trial)
assertStallFacts(trial)
assertMemoryLocalityFacts(trial)
fired = ruleHarness.processRules()
print(Session.explainAll())
'''


def gen_import_analyze(rng, out):
    cube = make_cube(rng)
    names, _, excl, incl, _, plants = cube
    inputs = {}
    paths = {
        "pkprof": os.path.join(out, slot_name("pkprof") + ".pkprof"),
        "json": os.path.join(out, slot_name("json") + ".json"),
        "csv": os.path.join(out, slot_name("csv") + ".csv"),
        "tau": os.path.join(out, slot_name("tau")),
    }
    write_pkprof(paths["pkprof"], slot_name("pkprof"), cube)
    write_json(paths["json"], slot_name("json"), cube)
    write_csv(paths["csv"], cube)
    write_tau(paths["tau"], cube)
    for fmt in SLOTS:
        inputs[fmt] = {"path": paths[fmt], "trial": slot_name(fmt),
                       "bytes": dir_bytes(paths[fmt])}
    scripts = {}
    for fmt in MULTI_METRIC_SLOTS:
        p = os.path.join(out, "analyze-%s.ps" % fmt)
        with open(p, "w") as f:
            f.write(SCRIPT % {"app": APP, "exp": EXP,
                              "trial": slot_name(fmt)})
        scripts[fmt] = p
    # Cells the readback oracle compares: every heavy event and a spread
    # of fillers, on every thread and metric.
    sample_events = list(range(0, 1 + 2 * KERNELS)) + \
        rng.sample(range(1 + 2 * KERNELS, EVENTS), 16)
    cells = []
    for e in sample_events:
        for t in range(THREADS):
            for m, mname in enumerate(METRICS):
                cells.append([t, names[e], mname, incl[t][e][m],
                              excl[t][e][m]])
    return {"app": APP, "exp": EXP, "threads": THREADS, "events": EVENTS,
            "metrics": METRICS, "inputs": inputs, "scripts": scripts,
            "plants": plants, "cells": cells}


# ---- perf-history --------------------------------------------------------

def gen_perf_history(rng, out):
    names = ["BM_Synthetic_%s/%d" % (rng.choice(["Match", "Join", "Load",
                                                  "Fire", "Diff"]), i)
             for i in range(BENCHMARKS)]
    base = [10.0 ** (1.0 + 3.0 * rng.random()) for _ in range(BENCHMARKS)]
    # Report r runs planted[r] 1.6x slower than every other report, so
    # the diff of report r against report r-1 (cyclically) regresses
    # exactly planted[r] and improves exactly planted[r-1].
    chosen = rng.sample(range(BENCHMARKS), PLANTED * REPORTS)
    planted = [sorted(chosen[r * PLANTED:(r + 1) * PLANTED])
               for r in range(REPORTS)]
    reports = []
    for r in range(REPORTS):
        slow = set(planted[r])
        rows = []
        mins = []
        for i, n in enumerate(names):
            factor = 1.6 if i in slow else 1.0
            lo = None
            for rep in range(REPETITIONS):
                real = base[i] * factor * (1.0 + 0.03 * rng.random())
                lo = real if lo is None else min(lo, real)
                rows.append(
                    '  {"name": "%s", "run_name": "%s", "run_type": '
                    '"iteration", "repetitions": %d, "repetition_index": %d,'
                    ' "threads": 1, "iterations": %d, "real_time": %s, '
                    '"cpu_time": %s, "time_unit": "ns"}'
                    % (n, n, REPETITIONS, rep, 1000 + rep,
                       fmt_num(real * 1000.0),
                       fmt_num(real * 990.0)))
            mins.append(lo)
        doc = ('{\n "context": {"date": "2026-01-01T00:00:00+00:00", '
               '"host_name": "perfbench", "num_cpus": 4, '
               '"library_build_type": "release", "report": %d},\n'
               ' "benchmarks": [\n' % r) + ",\n".join(rows) + "\n ]\n}\n"
        path = os.path.join(out, "report-%d.json" % r)
        with open(path, "w") as f:
            f.write(doc)
        # Readback sample: per benchmark, the repetitions' minimum in
        # microseconds (TIME from real_time, CPU_TIME from cpu_time).
        sample = sorted(set(rng.sample(range(BENCHMARKS), 16) + planted[r]))
        reports.append({"path": path, "bytes": len(doc),
                        "regressed": [names[i] for i in planted[r]],
                        "improved": [names[i] for i in
                                     planted[(r - 1) % REPORTS]],
                        "cells": [[names[i], mins[i], mins[i] * 0.99]
                                  for i in sample]})
    return {"app": "perfknow", "exp": "nightly", "keep": HISTORY_KEEP,
            "benchmarks": BENCHMARKS, "reports": reports}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    rng = random.Random(args.seed)
    if args.workload == "import-analyze":
        manifest = gen_import_analyze(rng, args.out)
    elif args.workload == "perf-history":
        manifest = gen_perf_history(rng, args.out)
    elif args.workload == "serve":
        manifest = {}  # serve's inputs are simulated by the driver's prep
    else:
        raise SystemExit("unknown workload " + args.workload)
    manifest["seed"] = args.seed
    manifest["workload"] = args.workload
    with open(os.path.join(args.out, "manifest.json"), "w") as f:
        json.dump(manifest, f)


if __name__ == "__main__":
    main()
