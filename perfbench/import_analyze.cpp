// Workload import-analyze: the analyst's CLI path.
//
// Writes are `pkx <repo> import` of one rendering of the generated cube,
// rotating pkprof -> JSON -> CSV -> TAU; each replaces its format's
// slot. After each write, kReadsPerWrite reads run `pkx <repo> run` of
// the Fig. 1 PerfScript analysis over a multi-metric slot.
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

constexpr int kReadsPerWrite = 4;
constexpr int kSetups = 3;
const char* const kPlanted[] = {"LoadImbalance", "MemoryFpStallDominated",
                                "RemoteMemoryDominates"};

struct Input {
  std::string fmt;
  fs::path path;
  std::string slot;
  double bytes = 0.0;
};

struct Cell {
  std::size_t thread = 0;
  std::string event;
  std::string metric;
  double inclusive = 0.0;
  double exclusive = 0.0;
};

struct Manifest {
  std::string app;
  std::string exp;
  std::vector<Input> inputs;  ///< rotation order
  std::map<std::string, fs::path> scripts;
  std::map<std::string, std::set<std::string>> plants;
  std::vector<Cell> cells;
};

Manifest load_manifest(const fs::path& dir) {
  const auto v = read_json_file(dir / "manifest.json");
  Manifest m;
  m.app = at(v, "app").text;
  m.exp = at(v, "exp").text;
  for (const char* fmt : {"pkprof", "json", "csv", "tau"}) {
    const auto& in = at(at(v, "inputs"), fmt);
    m.inputs.push_back({fmt, at(in, "path").text, at(in, "trial").text,
                        at(in, "bytes").number});
  }
  for (const auto& [fmt, path] : at(v, "scripts").members) {
    m.scripts[fmt] = path.text;
  }
  for (const auto& [problem, events] : at(v, "plants").members) {
    const auto names = strings_of(events);
    m.plants[problem] = {names.begin(), names.end()};
  }
  for (const auto& c : at(v, "cells").items) {
    m.cells.push_back({static_cast<std::size_t>(c.items.at(0).number),
                       c.items.at(1).text, c.items.at(2).text,
                       c.items.at(3).number, c.items.at(4).number});
  }
  return m;
}

/// (problem, event) of every diagnosis, in the order reported.
using Diagnoses = std::vector<std::pair<std::string, std::string>>;

/// The "  [Problem] event -> recommendation" lines `pkx run` prints.
Diagnoses parse_run_output(const std::string& out) {
  Diagnoses d;
  std::istringstream is(out);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("  [", 0) != 0) continue;
    const auto close = line.find("] ");
    const auto arrow = line.find(" -> ", close);
    if (close == std::string::npos || arrow == std::string::npos) continue;
    d.emplace_back(line.substr(3, close - 3),
                   line.substr(close + 2, arrow - close - 2));
  }
  return d;
}

Diagnoses from_harness(const std::vector<pk::rules::Diagnosis>& ds) {
  Diagnoses d;
  for (const auto& x : ds) d.emplace_back(x.problem, x.event);
  return d;
}

/// "" when each planted problem's diagnosed events equal the plants.
std::string check_plants(const Diagnoses& d,
                         const std::map<std::string, std::set<std::string>>&
                             plants,
                         const std::vector<std::string>& problems) {
  for (const auto& problem : problems) {
    std::set<std::string> got;
    for (const auto& [p, e] : d) {
      if (p == problem) got.insert(e);
    }
    const auto it = plants.find(problem);
    const std::set<std::string> want =
        it == plants.end() ? std::set<std::string>{} : it->second;
    if (got != want) {
      return problem + ": diagnosed " + std::to_string(got.size()) +
             " events, planted " + std::to_string(want.size());
    }
  }
  return "";
}

/// "" when the slot's stored cells equal the generator's values.
std::string check_cells(const fs::path& repo_dir, const Manifest& m,
                        const std::string& slot, bool time_only) {
  const auto repo = pk::perfdmf::Repository::attach(repo_dir);
  const auto trial = repo.get(m.app, m.exp, slot);
  for (const auto& c : m.cells) {
    if (time_only && c.metric != "TIME") continue;
    const auto e = trial->find_event(c.event);
    const auto mm = trial->find_metric(c.metric);
    if (!e || !mm || c.thread >= trial->thread_count()) {
      return slot + ": missing cell " + c.event + "/" + c.metric;
    }
    if (trial->inclusive(c.thread, *e, *mm) != c.inclusive ||
        trial->exclusive(c.thread, *e, *mm) != c.exclusive) {
      return slot + ": wrong value at thread " + std::to_string(c.thread) +
             " " + c.event + "/" + c.metric;
    }
  }
  return "";
}

/// TAU imports carry TIME only: their analysis must find exactly the
/// planted LoadImbalance set.
std::string check_tau(const fs::path& repo_dir, const Manifest& m,
                      const std::string& slot) {
  const auto repo = pk::perfdmf::Repository::attach(repo_dir);
  pk::server::AnalyzeParams params;
  params.application = m.app;
  params.experiment = m.exp;
  params.trial = slot;
  params.provenance = pk::provenance::ProvenanceMode::kOff;
  pk::rules::RuleHarness harness;
  const auto ds = pk::server::run_analysis(repo, params, {}, harness);
  return check_plants(from_harness(ds), m.plants, {"LoadImbalance"});
}

struct Outcome {
  double ms = 0.0;
  bool ok = false;
  std::string why;
  Diagnoses diagnoses;
};

// ---- one operation, untraced (the pkx entry point) or traced ---------------

Outcome import_cli(const fs::path& repo, const Manifest& m, const Input& in) {
  std::string out;
  const auto t0 = Clock::now();
  const int rc = pkx({repo.string(), "import", in.path.string(), m.app, m.exp},
                     &out);
  Outcome o;
  o.ms = ms_since(t0);
  o.ok = rc == 0 &&
         out.find(" as " + m.app + "/" + m.exp + "/" + in.slot) !=
             std::string::npos;
  if (!o.ok) o.why = "import " + in.fmt + " exit " + std::to_string(rc);
  return o;
}

Outcome analyze_cli(const fs::path& repo, const fs::path& script) {
  std::string out;
  const auto t0 = Clock::now();
  const int rc = pkx({repo.string(), "run", script.string()}, &out);
  Outcome o;
  o.ms = ms_since(t0);
  o.ok = rc == 0;
  if (!o.ok) o.why = "run exit " + std::to_string(rc);
  o.diagnoses = parse_run_output(out);
  return o;
}

namespace telemetry = pk::telemetry;

telemetry::Counter& facts_asserted() {
  static telemetry::Counter& c = telemetry::counter("rules.facts_asserted");
  return c;
}

/// Traced import: the same `pkx import`, under op:import.<fmt>, with its
/// loads measured and its save probed on the repository it left.
Outcome import_traced(Recorder& rec, const fs::path& dir, const fs::path& work,
                      const Manifest& m, const Input& in, double input_bytes) {
  const std::string kind = "import." + in.fmt;
  LoadProbe probe(dir, kind);
  const LoadMeter meter(dir, input_bytes);
  Outcome w;
  {
    OpSpan op(&rec, kind);
    w = import_cli(dir, m, in);
  }
  meter.done(rec, kind, 0.0, probe);
  const auto repo = pk::perfdmf::Repository::load(dir);
  telemetry::ScopedSpan store("probe:" + kind + ".store");
  telemetry::ScopedSpan save("perfdmf.save");
  repo.save(work / "probe-repo");
  return w;
}

/// Traced read: the same `pkx run`, under op:analyze, then the session's
/// analysis again by direct calls for the work inside PerfScript host
/// calls that telemetry does not split (rulebase parsing, derivation,
/// fact assertion, provenance rendering). Rule matching runs between the
/// two probe roots: the library's rules spans already time it in the op.
Outcome analyze_traced(Recorder& rec, const fs::path& dir, const Manifest& m,
                       const fs::path& script, const std::string& slot) {
  namespace analysis = pk::analysis;
  LoadProbe probe(dir, "analyze");
  const LoadMeter meter(dir, static_cast<double>(fs::file_size(script)));
  const std::uint64_t facts0 = facts_asserted().value();
  Outcome a;
  {
    OpSpan op(&rec, "analyze");
    a = analyze_cli(dir, script);
  }
  meter.done(rec, "analyze", 1.0, probe);
  rec.count("analysis.facts",
            static_cast<double>(facts_asserted().value() - facts0));
  rec.count("rules.diagnoses", static_cast<double>(a.diagnoses.size()));

  const auto trial =
      pk::perfdmf::Repository::attach(dir).get(m.app, m.exp, slot);
  pk::rules::RuleHarness harness;
  harness.set_provenance(pk::provenance::ProvenanceMode::kFull);
  {
    telemetry::ScopedSpan prep("probe:analyze.prep");
    {
      telemetry::ScopedSpan s("rules.load");
      pk::rules::add_rules(
          harness, pk::script::resolve_rulebase("openuh/OpenUHRules.drl"));
    }
    pk::profile::MetricId derived = 0;
    {
      telemetry::ScopedSpan s("analysis.derive");
      derived = analysis::derive_metric(*trial, "BACK_END_BUBBLE_ALL",
                                        "CPU_CYCLES",
                                        analysis::DeriveOp::kDivide);
    }
    telemetry::ScopedSpan s("analysis.facts");
    const std::string metric = trial->metric(derived).name;
    for (pk::profile::EventId e = 0; e < trial->event_count(); ++e) {
      harness.assert_fact(analysis::compare_event_to_main(*trial, metric, e));
    }
    analysis::assert_load_balance_facts(harness, *trial);
    analysis::assert_stall_facts(harness, *trial);
    analysis::assert_memory_locality_facts(harness, *trial);
  }
  harness.process_rules();
  std::string text;
  {
    telemetry::ScopedSpan render("probe:analyze.render");
    telemetry::ScopedSpan s("provenance.render");
    for (const auto& d : harness.diagnoses()) {
      if (d.provenance) text += pk::provenance::to_text(*d.provenance);
    }
  }
  rec.count("provenance.bytes", static_cast<double>(text.size()));
  return a;
}

/// Checks after a write: the slot's cells (and, for TAU, its analysis).
std::string check_import(const fs::path& repo, const Manifest& m,
                         const Input& in) {
  const bool tau = in.fmt == "tau";
  std::string why = check_cells(repo, m, in.slot, tau);
  if (why.empty() && tau) why = check_tau(repo, m, in.slot);
  return why;
}

std::vector<std::string> planted_problems() {
  return {std::begin(kPlanted), std::end(kPlanted)};
}

}  // namespace

void run_import_analyze(const Options& o, Result& r) {
  const Manifest m = load_manifest(o.work / "inputs");
  const fs::path repo = o.work / "repo";
  std::unique_ptr<Recorder> trace;
  // Traced runs: what parsing each input reads, apart from snapshots.
  std::map<std::string, double> input_reads;
  if (o.trace) {
    for (const auto& in : m.inputs) {
      input_reads[in.fmt] =
          bytes_read_by([&] { (void)pk::io::open_trial(in.path); });
    }
  }

  auto do_import = [&](const Input& in) {
    return trace ? import_traced(*trace, repo, o.work, m, in,
                                 input_reads.at(in.fmt))
                 : import_cli(repo, m, in);
  };

  // Set-up: the seed imports into a fresh repository, several times.
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    fs::remove_all(repo);
    const auto t0 = Clock::now();
    // `pkx import` needs an existing repository: start an empty one.
    pk::perfdmf::Repository{}.save(repo);
    for (const auto& in : m.inputs) {
      const auto out = import_cli(repo, m, in);
      r.invariant(out.ok, "set-up " + out.why);
    }
    setups.push_back(ms_since(t0) / 1e3);
  }
  for (const auto& in : m.inputs) {
    const std::string why = check_import(repo, m, in);
    r.invariant(why.empty(), "set-up readback: " + why);
  }

  std::vector<double> read_ms;
  std::vector<double> round_ms;
  double write_ms = 0.0;
  double write_bytes = 0.0;
  double op_ms = 0.0;
  std::uint64_t ops_ok = 0;
  std::size_t reads = 0;
  Diagnoses reference;
  const std::vector<std::string> multi = {"pkprof", "json", "csv"};
  std::map<std::string, std::string> slot_of;
  for (const auto& in : m.inputs) slot_of[in.fmt] = in.slot;

  if (o.trace) trace = std::make_unique<Recorder>(o.delay_layer);
  const auto start = Clock::now();
  while (ms_since(start) < o.seconds * 1e3) {
    double round = 0.0;
    for (const auto& in : m.inputs) {
      auto w = do_import(in);
      if (w.ok) w.why = check_import(repo, m, in), w.ok = w.why.empty();
      r.op(w.ok, w.why);
      round += w.ms;
      op_ms += w.ms;
      write_ms += w.ms;
      write_bytes += in.bytes;
      ops_ok += w.ok ? 1 : 0;

      for (int k = 0; k < kReadsPerWrite; ++k) {
        const std::string& fmt = multi[reads++ % multi.size()];
        const fs::path& script = m.scripts.at(fmt);
        auto a = trace ? analyze_traced(*trace, repo, m, script,
                                        slot_of.at(fmt))
                       : analyze_cli(repo, script);
        if (a.ok) {
          a.why = check_plants(a.diagnoses, m.plants, planted_problems());
          if (a.why.empty()) {
            // Every multi-metric import of the cube diagnoses the same.
            if (reference.empty()) reference = a.diagnoses;
            if (a.diagnoses != reference) {
              a.why = fmt + " slot diagnoses differ from the first read";
            }
          }
          a.ok = a.why.empty();
        }
        r.op(a.ok, a.why);
        read_ms.push_back(a.ms);
        op_ms += a.ms;
        ops_ok += a.ok ? 1 : 0;
      }
    }
    round_ms.push_back(round);
  }

  const double ops_per_s = static_cast<double>(ops_ok) / (op_ms / 1e3);
  r.note("reads " + std::to_string(read_ms.size()) + ", import rounds " +
         std::to_string(round_ms.size()) + " (4 imports each), " +
         std::to_string(kReadsPerWrite) + " reads per import");
  if (!trace) {
    r.metric("setup_s", median(setups), "s");
    r.metric("ops_per_s", ops_per_s, "1/s");
    r.metric("write_mb_per_s", write_bytes / 1e6 / (write_ms / 1e3), "MB/s");
    r.metric("read_p50_ms", percentile(read_ms, 0.5), "ms");
    r.metric("read_p90_ms", percentile(read_ms, 0.9), "ms");
    r.metric("write_p50_ms", percentile(round_ms, 0.5), "ms");
    r.metric("write_p90_ms", percentile(round_ms, 0.9), "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  Recorder& t = *trace;
  t.finish();
  std::map<std::string, double> v;
  std::vector<Attribution> attributions = {
      {"analyze", "unattributed", "analyze.load", "eager.analyze"},
      {"analyze", "script", "analyze.prep", ""},
      {"analyze", "script", "analyze.render", ""}};
  for (const auto& in : m.inputs) {
    const std::string kind = "import." + in.fmt;
    v["io.open_trial_ms." + in.fmt] =
        median(t.durations("io.open_trial", "op:" + kind));
    attributions.push_back(
        {kind, "unattributed", kind + ".load", "eager." + kind});
    attributions.push_back({kind, "unattributed", kind + ".store", ""});
  }
  v["perfdmf.load_ms"] = median(t.values("perfdmf.load_ms.analyze"));
  v["perfdmf.save_ms"] = median(t.durations("perfdmf.save"));
  v["perfdmf.pkb_mb"] = mean(t.values("perfdmf.pkb_bytes")) / 1e6;
  v["perfdmf.trials_loaded"] = mean(t.values("perfdmf.trials_loaded"));
  v["perfdmf.trials_used"] = mean(t.values("perfdmf.trials_used"));
  v["perfdmf.load_useful_ratio"] = sum(t.values("perfdmf.trials_used")) /
                                   sum(t.values("perfdmf.trials_loaded"));
  v["script.session_ms"] = median(t.outer_ms("op:analyze", "script."));
  v["analysis.derive_ms"] = median(t.durations("analysis.derive"));
  v["analysis.facts_ms"] = median(t.durations("analysis.facts"));
  v["analysis.facts"] = mean(t.values("analysis.facts"));
  v["rules.load_ms"] = median(t.durations("rules.load"));
  v["rules.match_ms"] =
      median(t.durations("rules.process_rules", "op:analyze"));
  v["rules.diagnoses"] = mean(t.values("rules.diagnoses"));
  v["provenance.render_ms"] = median(t.durations("provenance.render"));
  v["provenance.bytes"] = mean(t.values("provenance.bytes"));
  v["script.overhead_ms"] =
      v["script.session_ms"] - v["analysis.derive_ms"] -
      v["analysis.facts_ms"] - v["rules.load_ms"] - v["rules.match_ms"] -
      v["provenance.render_ms"];
  finish_trace(o, r, t, attributions, v, ops_per_s);
}

bool self_check_import_analyze(const Options& o) {
  const Manifest m = load_manifest(o.work / "inputs");
  const fs::path repo = o.work / "repo";
  fs::remove_all(repo);
  pk::perfdmf::Repository{}.save(repo);
  for (const auto& in : m.inputs) {
    if (!import_cli(repo, m, in).ok) return false;
  }
  bool all = true;

  // Wrong cell: import a pkprof copy with one sampled value changed.
  {
    const Input& in = m.inputs[0];
    std::ifstream is(in.path);
    std::ostringstream faulty;
    std::string line;
    bool planted = false;
    while (std::getline(is, line)) {
      // "d <thread 0> <event 0> calls subcalls <TIME incl> <TIME excl> ..."
      if (!planted && line.rfind("d\t0\t0\t", 0) == 0) {
        auto fields = std::vector<std::string>{};
        std::istringstream ls(line);
        for (std::string f; std::getline(ls, f, '\t');) fields.push_back(f);
        fields[6] = "123.5";
        line = fields[0];
        for (std::size_t i = 1; i < fields.size(); ++i) line += "\t" + fields[i];
        planted = true;
      }
      faulty << line << "\n";
    }
    const fs::path copy = o.work / "faulty.pkprof";
    std::ofstream(copy) << faulty.str();
    Input bad = in;
    bad.path = copy;
    const bool imported = import_cli(repo, m, bad).ok;
    const std::string why = check_import(repo, m, in);
    std::cerr << "self-check import-analyze wrong cell: "
              << (imported && !why.empty() ? "detected (" + why + ")"
                                           : "NOT detected")
              << "\n";
    all = all && imported && !why.empty();
    if (!import_cli(repo, m, in).ok) return false;
  }
  // Dropped plant: one planted RemoteMemoryDominates event left out of
  // the expected set.
  {
    auto plants = m.plants;
    auto& remote = plants["RemoteMemoryDominates"];
    remote.erase(remote.begin());
    const auto a = analyze_cli(repo, m.scripts.at("pkprof"));
    const std::string ok_why =
        check_plants(a.diagnoses, m.plants, planted_problems());
    const std::string why =
        check_plants(a.diagnoses, plants, planted_problems());
    std::cerr << "self-check import-analyze dropped plant: "
              << (a.ok && ok_why.empty() && !why.empty()
                      ? "detected (" + why + ")"
                      : "NOT detected")
              << "\n";
    all = all && a.ok && ok_why.empty() && !why.empty();
  }
  return all;
}

}  // namespace perfbench
