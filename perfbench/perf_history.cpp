// Workload perf-history: the nightly cycle of the perf-history CI job,
// run in a loop. Each cycle appends a Google-Benchmark report as the next
// version (`pkx bench2pkb`), diffs it against its predecessor
// (`pkx diff`, rules/regression.rules) and prunes the history to the
// newest 30 versions (`pkx prune --keep 30`).
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "common.hpp"
#include "perfknow.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace pk = perfknow;

constexpr int kSetups = 3;

struct Report {
  fs::path path;
  double bytes = 0.0;
  std::set<std::string> regressed;
  std::set<std::string> improved;
  struct Cell {
    std::string benchmark;
    double time_us = 0.0;
    double cpu_us = 0.0;
  };
  std::vector<Cell> cells;
};

struct Manifest {
  std::string app;
  std::string exp;
  std::size_t keep = 0;
  std::size_t benchmarks = 0;
  std::vector<Report> reports;
};

Manifest load_manifest(const fs::path& dir) {
  const auto v = read_json_file(dir / "manifest.json");
  Manifest m;
  m.app = at(v, "app").text;
  m.exp = at(v, "exp").text;
  m.keep = static_cast<std::size_t>(at(v, "keep").number);
  m.benchmarks = static_cast<std::size_t>(at(v, "benchmarks").number);
  for (const auto& r : at(v, "reports").items) {
    Report rep;
    rep.path = at(r, "path").text;
    rep.bytes = at(r, "bytes").number;
    for (const auto& n : strings_of(at(r, "regressed"))) {
      rep.regressed.insert(n);
    }
    for (const auto& n : strings_of(at(r, "improved"))) rep.improved.insert(n);
    for (const auto& c : at(r, "cells").items) {
      rep.cells.push_back(
          {c.items.at(0).text, c.items.at(1).number, c.items.at(2).number});
    }
    m.reports.push_back(std::move(rep));
  }
  return m;
}

std::string version_name(std::size_t n) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "v%05zu", n);
  return buf;
}

bool close_to(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// Readback of an appended version: its shape and sampled cells.
std::string check_append(const fs::path& dir, const Manifest& m,
                         const Report& rep, std::size_t n) {
  const auto repo = pk::perfdmf::Repository::attach(dir);
  const std::string v = version_name(n);
  if (n > 0 && repo.predecessor_of(m.app, m.exp, v) != version_name(n - 1)) {
    return v + ": predecessor is '" + repo.predecessor_of(m.app, m.exp, v) +
           "'";
  }
  const auto trial = repo.get(m.app, m.exp, v);
  if (trial->event_count() != m.benchmarks + 1) {
    return v + ": " + std::to_string(trial->event_count()) + " events";
  }
  const auto time = trial->find_metric("TIME");
  const auto cpu = trial->find_metric("CPU_TIME");
  if (!time || !cpu) return v + ": missing TIME/CPU_TIME";
  for (const auto& c : rep.cells) {
    const auto e = trial->find_event(c.benchmark);
    if (!e) return v + ": missing " + c.benchmark;
    if (!close_to(trial->exclusive(0, *e, *time), c.time_us) ||
        !close_to(trial->exclusive(0, *e, *cpu), c.cpu_us)) {
      return v + ": wrong value for " + c.benchmark;
    }
  }
  return "";
}

/// The diff's regression and improvement events equal the plants.
std::string check_diff(bool regression,
                       const std::vector<std::pair<std::string,
                                                   std::string>>& ds,
                       const Report& rep) {
  if (!regression) return "diff reported no regression";
  std::set<std::string> regressed;
  std::set<std::string> improved;
  for (const auto& [problem, event] : ds) {
    if (problem == "MetricRegression") regressed.insert(event);
    if (problem == "MetricImprovement") improved.insert(event);
  }
  if (regressed != rep.regressed) {
    return "diff regressed " + std::to_string(regressed.size()) +
           " events, planted " + std::to_string(rep.regressed.size());
  }
  if (improved != rep.improved) {
    return "diff improved " + std::to_string(improved.size()) +
           " events, planted " + std::to_string(rep.improved.size());
  }
  return "";
}

/// After a prune: `keep` versions, an unbroken chain ending at `head`.
std::string check_history(const fs::path& dir, const Manifest& m,
                          std::size_t head) {
  const auto repo = pk::perfdmf::Repository::attach(dir);
  const auto h = repo.history(m.app, m.exp);
  if (h.size() != m.keep) {
    return "history holds " + std::to_string(h.size()) + " versions";
  }
  if (h.back() != version_name(head)) return "history ends at " + h.back();
  for (std::size_t i = 0; i < h.size(); ++i) {
    const std::string want = i == 0 ? "" : h[i - 1];
    if (repo.predecessor_of(m.app, m.exp, h[i]) != want) {
      return "broken chain at " + h[i];
    }
  }
  return "";
}

struct Outcome {
  double ms = 0.0;
  bool ok = false;
  std::string why;
  bool regression = false;
  std::vector<std::pair<std::string, std::string>> diagnoses;
};

Outcome append_cli(const fs::path& dir, const Manifest& m, const Report& rep,
                   std::size_t n) {
  std::string out;
  const auto t0 = Clock::now();
  const int rc = pkx({dir.string(), "bench2pkb", m.app, m.exp, version_name(n),
                      rep.path.string()},
                     &out);
  Outcome o;
  o.ms = ms_since(t0);
  o.ok = rc == 0;
  if (!o.ok) o.why = "bench2pkb exit " + std::to_string(rc);
  return o;
}

Outcome diff_cli(const fs::path& dir, const Manifest& m, std::size_t n) {
  std::string out;
  const auto t0 = Clock::now();
  const int rc = pkx({dir.string(), "diff", m.app, m.exp,
                      version_name(n - 1), version_name(n)},
                     &out);
  Outcome o;
  o.ms = ms_since(t0);
  o.ok = rc == 0 || rc == 3;
  o.regression = rc == 3;
  if (!o.ok) o.why = "diff exit " + std::to_string(rc);
  // "[Problem] event {metric} (severity ..." lines.
  std::istringstream is(out);
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("[", 0) != 0) continue;
    const auto close = line.find("] ");
    const auto brace = line.find(" {", close);
    if (close == std::string::npos || brace == std::string::npos) continue;
    o.diagnoses.emplace_back(line.substr(1, close - 1),
                             line.substr(close + 2, brace - close - 2));
  }
  return o;
}

Outcome prune_cli(const fs::path& dir, const Manifest& m) {
  std::string out;
  const auto t0 = Clock::now();
  const int rc = pkx({dir.string(), "prune", m.app, m.exp, "--keep",
                      std::to_string(m.keep)},
                     &out);
  Outcome o;
  o.ms = ms_since(t0);
  o.ok = rc == 0 && out.rfind("pruned 1 version(s)", 0) == 0;
  if (!o.ok) o.why = "prune exit " + std::to_string(rc) + ": " + out;
  return o;
}

namespace telemetry = pk::telemetry;

/// The traced cycle: the same three `pkx` calls, each under op:<kind>,
/// with its loads measured. Probes time what telemetry does not cover:
/// the eager load (before each call), save and prune on the repository
/// the call left, and for diff the rulebase parse and proof rendering.
Outcome append_traced(Recorder& rec, const fs::path& dir, const fs::path& work,
                      const Manifest& m, const Report& rep, std::size_t n,
                      double input_bytes) {
  LoadProbe probe(dir, "append");
  const LoadMeter meter(dir, input_bytes);
  Outcome a;
  {
    OpSpan op(&rec, "append");
    a = append_cli(dir, m, rep, n);
  }
  meter.done(rec, "append", 0.0, probe);
  const auto repo = pk::perfdmf::Repository::load(dir);
  telemetry::ScopedSpan store("probe:append.store");
  telemetry::ScopedSpan save("perfdmf.save");
  repo.save(work / "probe-repo");
  return a;
}

Outcome diff_traced(Recorder& rec, const fs::path& dir, const Manifest& m,
                    std::size_t n) {
  static telemetry::Counter& facts = telemetry::counter("rules.facts_asserted");
  LoadProbe probe(dir, "diff");
  const LoadMeter meter(dir, 0.0);
  const std::uint64_t facts0 = facts.value();
  Outcome d;
  {
    OpSpan op(&rec, "diff");
    d = diff_cli(dir, m, n);
  }
  meter.done(rec, "diff", 2.0, probe);
  rec.count("analysis.facts", static_cast<double>(facts.value() - facts0));
  rec.count("rules.diagnoses", static_cast<double>(d.diagnoses.size()));

  pk::rules::RuleHarness harness;
  harness.set_provenance(pk::provenance::ProvenanceMode::kFull);
  {
    telemetry::ScopedSpan root("probe:diff.rules");
    telemetry::ScopedSpan s("rules.load");
    pk::rules::builtin::use(harness, pk::rules::builtin::regression());
  }
  const auto repo = pk::perfdmf::Repository::attach(dir);
  const auto summary = pk::analysis::assert_diff_facts(
      harness, *repo.get(m.app, m.exp, version_name(n - 1)),
      *repo.get(m.app, m.exp, version_name(n)));
  rec.count("analysis.diff_cells", static_cast<double>(summary.compared_cells));
  harness.process_rules();
  std::string text;
  {
    telemetry::ScopedSpan root("probe:diff.render");
    telemetry::ScopedSpan s("provenance.render");
    for (const auto& x : harness.diagnoses()) text += x.to_string() + "\n";
    for (const auto& x : harness.diagnoses()) {
      if (!x.provenance) continue;
      text += '\n';
      text += pk::provenance::to_text(*x.provenance);
    }
  }
  rec.count("provenance.bytes", static_cast<double>(text.size()));
  return d;
}

Outcome prune_traced(Recorder& rec, const fs::path& dir, const fs::path& work,
                     const Manifest& m) {
  LoadProbe probe(dir, "prune");
  const LoadMeter meter(dir, 0.0);
  Outcome p;
  {
    OpSpan op(&rec, "prune");
    p = prune_cli(dir, m);
  }
  meter.done(rec, "prune", 0.0, probe);
  // The pruned repository, pruned by one more version: the same work.
  auto repo = pk::perfdmf::Repository::load(dir);
  telemetry::ScopedSpan store("probe:prune.store");
  {
    telemetry::ScopedSpan s("perfdmf.prune");
    (void)repo.prune_history(m.app, m.exp, m.keep - 1);
  }
  telemetry::ScopedSpan save("perfdmf.save");
  repo.save(work / "probe-repo");
  return p;
}

/// Set-up: `keep` seed versions through the library (parse each report
/// once, store the versions, save once).
void seed_history(const fs::path& dir, const Manifest& m) {
  fs::remove_all(dir);
  std::vector<pk::profile::Trial> parsed;
  for (const auto& rep : m.reports) {
    parsed.push_back(pk::io::trial_from_benchmark_files({rep.path}, "seed"));
  }
  pk::perfdmf::Repository repo;
  for (std::size_t n = 0; n < m.keep; ++n) {
    auto trial = std::make_shared<pk::profile::Trial>(
        parsed[n % parsed.size()]);
    trial->set_name(version_name(n));
    repo.put_version(m.app, m.exp, std::move(trial));
  }
  repo.save(dir);
}

}  // namespace

void run_perf_history(const Options& o, Result& r) {
  const Manifest m = load_manifest(o.work / "inputs");
  const fs::path dir = o.work / "repo";
  std::unique_ptr<Recorder> trace;

  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    const auto t0 = Clock::now();
    seed_history(dir, m);
    setups.push_back(ms_since(t0) / 1e3);
  }
  r.invariant(check_history(dir, m, m.keep - 1).empty(),
              "set-up history: " + check_history(dir, m, m.keep - 1));

  std::vector<double> append_ms;
  std::vector<double> diff_ms;
  double append_bytes = 0.0;
  double op_ms = 0.0;
  std::uint64_t ops_ok = 0;
  auto count = [&](Outcome& x) {
    x.ok = x.ok && x.why.empty();
    r.op(x.ok, x.why);
    op_ms += x.ms;
    ops_ok += x.ok ? 1 : 0;
  };

  std::size_t n = m.keep;
  // Traced runs: what parsing each report reads, apart from snapshots.
  std::vector<double> report_reads;
  if (o.trace) {
    for (const auto& rep : m.reports) {
      report_reads.push_back(bytes_read_by([&] {
        (void)pk::io::trial_from_benchmark_files({rep.path}, "calibration");
      }));
    }
    trace = std::make_unique<Recorder>(o.delay_layer);
  }
  const auto start = Clock::now();
  while (ms_since(start) < o.seconds * 1e3) {
    const Report& rep = m.reports[n % m.reports.size()];
    auto a = trace ? append_traced(*trace, dir, o.work, m, rep, n,
                                   report_reads[n % m.reports.size()])
                   : append_cli(dir, m, rep, n);
    if (a.ok) a.why = check_append(dir, m, rep, n);
    count(a);
    append_ms.push_back(a.ms);
    append_bytes += rep.bytes;

    auto d = trace ? diff_traced(*trace, dir, m, n) : diff_cli(dir, m, n);
    if (d.ok) d.why = check_diff(d.regression, d.diagnoses, rep);
    count(d);
    diff_ms.push_back(d.ms);

    auto p = trace ? prune_traced(*trace, dir, o.work, m) : prune_cli(dir, m);
    if (p.ok) p.why = check_history(dir, m, n);
    count(p);
    ++n;
  }

  const double ops_per_s = static_cast<double>(ops_ok) / (op_ms / 1e3);
  r.note("cycles " + std::to_string(append_ms.size()) +
         " (append, diff, prune)");
  if (!trace) {
    r.metric("setup_s", median(setups), "s");
    r.metric("ops_per_s", ops_per_s, "1/s");
    r.metric("write_mb_per_s", append_bytes / 1e6 / (sum(append_ms) / 1e3),
             "MB/s");
    r.metric("read_p50_ms", percentile(diff_ms, 0.5), "ms");
    r.metric("read_p90_ms", percentile(diff_ms, 0.9), "ms");
    r.metric("write_p50_ms", percentile(append_ms, 0.5), "ms");
    r.metric("write_p90_ms", percentile(append_ms, 0.9), "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  Recorder& t = *trace;
  t.finish();
  std::map<std::string, double> v;
  v["io.benchjson_ms"] = median(t.durations("io.read.benchjson", "op:append"));
  v["perfdmf.load_ms"] = median(t.values("perfdmf.load_ms.diff"));
  v["perfdmf.save_ms"] = median(t.durations("perfdmf.save", "probe:append.store"));
  v["perfdmf.prune_ms"] = median(t.durations("perfdmf.prune"));
  v["perfdmf.pkb_mb"] = mean(t.values("perfdmf.pkb_bytes")) / 1e6;
  v["perfdmf.trials_loaded"] = mean(t.values("perfdmf.trials_loaded"));
  v["perfdmf.trials_used"] = mean(t.values("perfdmf.trials_used"));
  v["perfdmf.load_useful_ratio"] = sum(t.values("perfdmf.trials_used")) /
                                   sum(t.values("perfdmf.trials_loaded"));
  v["analysis.diff_facts_ms"] = median(t.durations("analysis.diff", "op:diff"));
  v["analysis.diff_us_per_cell"] = v["analysis.diff_facts_ms"] * 1e3 /
                                   mean(t.values("analysis.diff_cells"));
  v["analysis.facts"] = mean(t.values("analysis.facts"));
  v["rules.load_ms"] = median(t.durations("rules.load"));
  v["rules.match_ms"] = median(t.durations("rules.process_rules", "op:diff"));
  v["rules.diagnoses"] = mean(t.values("rules.diagnoses"));
  v["provenance.render_ms"] = median(t.durations("provenance.render"));
  v["provenance.bytes"] = mean(t.values("provenance.bytes"));
  finish_trace(o, r, t,
               {{"append", "unattributed", "append.load", "eager.append"},
                {"append", "unattributed", "append.store", ""},
                {"diff", "unattributed", "diff.load", "eager.diff"},
                {"diff", "unattributed", "diff.rules", ""},
                {"diff", "unattributed", "diff.render", ""},
                {"prune", "unattributed", "prune.load", "eager.prune"},
                {"prune", "unattributed", "prune.store", ""}},
               v, ops_per_s);
}

bool self_check_perf_history(const Options& o) {
  const Manifest m = load_manifest(o.work / "inputs");
  const fs::path dir = o.work / "repo";
  seed_history(dir, m);
  bool all = true;
  const std::size_t n = m.keep;
  const Report& rep = m.reports[n % m.reports.size()];

  // Wrong cell: the appended report has one unplanted benchmark 2x slow.
  {
    std::ifstream is(rep.path);
    std::ostringstream ss;
    ss << is.rdbuf();
    std::string doc = ss.str();
    std::string victim;
    for (const auto& c : rep.cells) {
      if (rep.regressed.count(c.benchmark) == 0 &&
          rep.improved.count(c.benchmark) == 0) {
        victim = c.benchmark;
        break;
      }
    }
    // Double every repetition's real_time and cpu_time for the victim.
    const std::string key = "\"name\": \"" + victim + "\"";
    for (auto pos = doc.find(key); pos != std::string::npos;
         pos = doc.find(key, pos + 1)) {
      for (const char* field : {"\"real_time\": ", "\"cpu_time\": "}) {
        const auto f = doc.find(field, pos) + std::string(field).size();
        const auto end = doc.find_first_of(",}", f);
        const double x = std::stod(doc.substr(f, end - f));
        doc.replace(f, end - f, json::number(2.0 * x));
      }
    }
    Report bad = rep;
    bad.path = o.work / "faulty.json";
    std::ofstream(bad.path) << doc;
    const auto a = append_cli(dir, m, bad, n);
    const std::string cells = check_append(dir, m, rep, n);
    const auto d = diff_cli(dir, m, n);
    const std::string why = check_diff(d.regression, d.diagnoses, rep);
    const bool detected = a.ok && d.ok && !cells.empty() && !why.empty();
    std::cerr << "self-check perf-history wrong cell: "
              << (detected ? "detected (" + cells + "; " + why + ")"
                           : "NOT detected")
              << "\n";
    all = all && detected;
  }
  // Dropped plant: one planted regression left out of the expected set.
  {
    seed_history(dir, m);
    const auto a = append_cli(dir, m, rep, n);
    const auto d = diff_cli(dir, m, n);
    Report dropped = rep;
    dropped.regressed.erase(dropped.regressed.begin());
    const std::string ok_why = check_diff(d.regression, d.diagnoses, rep);
    const std::string why = check_diff(d.regression, d.diagnoses, dropped);
    const bool detected = a.ok && d.ok && ok_why.empty() && !why.empty();
    std::cerr << "self-check perf-history dropped plant: "
              << (detected ? "detected (" + why + ")" : "NOT detected") << "\n";
    all = all && detected;
  }
  return all;
}

}  // namespace perfbench
