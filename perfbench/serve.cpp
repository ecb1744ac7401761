// Workload serve: `pkx serve` (server::Server with its default options)
// driven through server::Client. Two connections make closed-loop
// analyze requests, each a pipelined batch over the paper's four case-
// study trials; a third uploads a synthetic PKB trial on a fixed
// schedule (open loop), each upload on a fresh connection.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <thread>

#include "apps/genidlest/genidlest.hpp"
#include "apps/msap/msap.hpp"
#include "common.hpp"
#include "machine/machine.hpp"
#include "perfknow.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace pk = perfknow;

constexpr int kSetups = 3;
constexpr int kAnalyzeConnections = 2;
constexpr auto kUploadPeriod = std::chrono::milliseconds(1000);
constexpr int kUploadSlots = 4;
constexpr int kProbeEvery = 4;  ///< traced run: probe every 4th batch

// The synthetic upload trial: 8 threads x 400 events x 8 metrics
// (0.4 MB). An upload keeps a client and a daemon thread busy while it
// lasts; at 64 threads (3.3 MB, ~0.28 s) a batch overlapped an upload
// 28 % of the time, so the batch p90 fell among the overlapped batches
// and followed the host's load (its spread reached 0.26 over ten runs).
constexpr std::size_t kThreads = 8;
constexpr std::size_t kEvents = 400;
constexpr std::size_t kMetrics = 8;
const char* const kUploadApp = "Synthetic";
const char* const kUploadExp = "uploads";

struct CaseStudy {
  const char* app;
  const char* exp;
  const char* trial;
};
// The paper's Fig. 4 (MSAP) and Fig. 5 (GenIDLEST rib 90) trials.
const CaseStudy kCases[] = {
    {"MSAP", "schedules", "msap_static_16t"},
    {"MSAP", "schedules", "msap_dynamic,1_16t"},
    {"Fluid Dynamic", "rib 90", "OpenMP_unopt_16p_O2"},
    {"Fluid Dynamic", "rib 90", "OpenMP_opt_16p_O2"},
};

/// The generator's value for one cell of the synthetic trial
/// (splitmix64 of the coordinates), so readback needs no stored copy.
double synth_value(int seed, std::size_t t, std::size_t e, std::size_t m) {
  std::uint64_t z = static_cast<std::uint64_t>(seed) * 0x9E3779B97F4A7C15ULL +
                    ((t * kEvents + e) * kMetrics + m);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return 1.0 + static_cast<double>(z >> 11) * 0x1.0p-53 * 1000.0;
}

fs::path case_file(const fs::path& inputs, const CaseStudy& c) {
  return inputs / "case" / (std::string(c.trial) + ".pkb");
}

fs::path upload_file(const fs::path& inputs, int slot) {
  return inputs / "upload" / ("upload-" + std::to_string(slot) + ".pkb");
}

/// Uploaded trials read back with the uploaded shape and values.
std::string check_upload(pk::server::Server& server, int seed,
                         const std::string& name) {
  pk::perfdmf::TrialPtr trial;
  {
    std::shared_lock<std::shared_mutex> lock(server.repository_mutex());
    trial = server.repository().get(kUploadApp, kUploadExp, name);
  }
  if (trial->thread_count() != kThreads || trial->event_count() != kEvents ||
      trial->metric_count() != kMetrics) {
    return name + ": read back as " + std::to_string(trial->thread_count()) +
           "x" + std::to_string(trial->event_count()) + "x" +
           std::to_string(trial->metric_count());
  }
  for (std::size_t i = 0; i < 16; ++i) {
    const std::size_t t = (i * 37) % kThreads;
    const std::size_t e = (i * 101) % kEvents;
    const std::size_t m = i % kMetrics;
    if (trial->exclusive(t, e, m) != synth_value(seed, t, e, m)) {
      return name + ": wrong value at " + std::to_string(t) + "/" +
             std::to_string(e) + "/" + std::to_string(m);
    }
  }
  return "";
}

std::set<std::string> diagnosed(const pk::server::Client::Response& r,
                                const std::string& problem) {
  std::set<std::string> out;
  for (const auto& ev : r.events) {
    if (ev.event != "diagnosis") continue;
    const auto v = json::parse(ev.data);
    const auto* p = v.find("problem");
    const auto* e = v.find("event");
    if (p != nullptr && e != nullptr && p->text == problem) out.insert(e->text);
  }
  return out;
}

/// The paper's findings: static MSAP is load-imbalanced and dynamic,1 is
/// not; unoptimized GenIDLEST is remote-memory bound on exactly bicgstab,
/// matxvec and pc_jac_glb, and the optimized run is not.
std::string check_batch(
    const std::vector<pk::server::Client::Response>& rs,
    const std::set<std::string>& remote_expected) {
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (!rs[i].ok()) {
      return std::string(kCases[i].trial) + ": error " + rs[i].error_message;
    }
  }
  if (diagnosed(rs[0], "LoadImbalance").empty()) {
    return "MSAP static: no LoadImbalance";
  }
  if (!diagnosed(rs[1], "LoadImbalance").empty()) {
    return "MSAP dynamic,1: LoadImbalance";
  }
  if (diagnosed(rs[2], "RemoteMemoryDominates") != remote_expected) {
    return "GenIDLEST unopt: RemoteMemoryDominates set differs";
  }
  if (!diagnosed(rs[3], "RemoteMemoryDominates").empty()) {
    return "GenIDLEST opt: RemoteMemoryDominates";
  }
  return "";
}

const std::set<std::string>& remote_memory_events() {
  static const std::set<std::string> s = {"bicgstab", "matxvec", "pc_jac_glb"};
  return s;
}

std::string analyze_params(const CaseStudy& c) {
  return "{\"application\":" + json::quote(c.app) +
         ",\"experiment\":" + json::quote(c.exp) +
         ",\"trial\":" + json::quote(c.trial) + "}";
}

std::vector<pk::server::Client::Response> batch(pk::server::Client& c) {
  std::vector<std::string> ids;
  for (const auto& cs : kCases) ids.push_back(c.send("analyze", analyze_params(cs)));
  std::vector<pk::server::Client::Response> rs;
  for (const auto& id : ids) rs.push_back(c.collect(id));
  return rs;
}

namespace telemetry = pk::telemetry;

/// The daemon's analysis of the four trials again, in-process and by
/// direct calls (run_analysis' steps plus the wire rendering), so a
/// batch's round trip can be split into layers and serving overhead.
void inproc_probe(Recorder& rec, pk::server::Server& server) {
  telemetry::ScopedSpan root("probe:inproc");
  double facts = 0.0;
  double diagnoses = 0.0;
  double bytes = 0.0;
  for (const auto& c : kCases) {
    pk::perfdmf::TrialPtr trial;
    {
      telemetry::ScopedSpan s("perfdmf.get");
      std::shared_lock<std::shared_mutex> lock(server.repository_mutex());
      trial = server.repository().get(c.app, c.exp, c.trial);
    }
    pk::rules::RuleHarness harness;
    harness.set_provenance(pk::provenance::ProvenanceMode::kFull);
    {
      telemetry::ScopedSpan s("rules.load");
      pk::rules::builtin::use(harness,
                              pk::script::resolve_rulebase("openuh", {}));
    }
    {
      telemetry::ScopedSpan s("analysis.facts");
      pk::analysis::assert_load_balance_facts(harness, *trial);
      if (trial->find_metric("BACK_END_BUBBLE_ALL")) {
        pk::analysis::assert_stall_facts(harness, *trial);
      }
      if (trial->find_metric("L3_MISSES")) {
        pk::analysis::assert_memory_locality_facts(harness, *trial);
      }
    }
    facts += static_cast<double>(harness.memory().size());
    harness.process_rules();  // the library's rules spans time it
    diagnoses += static_cast<double>(harness.diagnoses().size());
    {
      telemetry::ScopedSpan s("provenance.render");
      for (const auto& d : harness.diagnoses()) {
        bytes += static_cast<double>(
            pk::server::wire::diagnosis_line("1", d).size());
        if (d.provenance) {
          bytes += static_cast<double>(
              pk::server::wire::explanation_line("1", *d.provenance).size());
        }
      }
    }
  }
  rec.count("analysis.facts", facts);
  rec.count("rules.diagnoses", diagnoses);
  rec.count("provenance.bytes", bytes);
}

pk::server::ServerOptions server_options(const Options& o) {
  pk::server::ServerOptions opts;  // `pkx serve` defaults
  opts.socket_path = o.work / "pk.sock";
  return opts;
}

/// Set-up: start the daemon and store the case studies and one upload
/// per slot. Returns "" or what failed.
std::string seed_server(const Options& o, pk::server::Server& server) {
  const fs::path inputs = o.work / "inputs";
  pk::server::Client c(server.options().socket_path);
  for (const auto& cs : kCases) {
    const auto r = c.upload_file(cs.app, cs.exp, case_file(inputs, cs));
    if (!r.ok()) return std::string("upload ") + cs.trial + ": " + r.error_message;
  }
  for (int k = 0; k < kUploadSlots; ++k) {
    pk::server::Client u(server.options().socket_path);
    const auto r = u.upload_file(kUploadApp, kUploadExp, upload_file(inputs, k));
    if (!r.ok()) return "seed upload: " + r.error_message;
  }
  return "";
}

struct Worker {
  std::vector<double> ms;
  std::vector<double> lateness;
  std::vector<std::string> failures;
  std::size_t ops = 0;
  double bytes = 0.0;
  std::string error;  ///< an exception that ended the thread early
};

}  // namespace

void prep_serve(const Options& o) {
  namespace machine = pk::machine;
  const fs::path inputs = o.work / "inputs";
  fs::create_directories(inputs / "case");
  fs::create_directories(inputs / "upload");
  std::vector<pk::profile::Trial> trials;
  for (const bool dynamic : {false, true}) {
    machine::Machine mach(machine::MachineConfig::altix300());
    pk::apps::msap::MsapConfig cfg;
    cfg.threads = 16;
    cfg.schedule = dynamic ? pk::runtime::Schedule::dynamic(1)
                           : pk::runtime::Schedule::static_even();
    trials.push_back(pk::apps::msap::run_msap(mach, cfg).trial);
  }
  for (const bool optimized : {false, true}) {
    machine::Machine mach(machine::MachineConfig::altix3600());
    auto cfg = pk::apps::genidlest::GenConfig::rib90();
    cfg.model = pk::apps::genidlest::Model::kOpenMP;
    cfg.optimized = optimized;
    trials.push_back(pk::apps::genidlest::run_genidlest(mach, cfg).trial);
  }
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (trials[i].name() != kCases[i].trial) {
      throw pk::InvalidArgumentError("case study trial named " +
                                     trials[i].name());
    }
    pk::io::save_trial(trials[i], case_file(inputs, kCases[i]));
  }

  pk::profile::Trial up("synthetic");
  up.set_thread_count(kThreads);
  const char* metrics[kMetrics] = {"TIME",      "CPU_CYCLES",
                                   "FP_OPS",    "L1D_STALL_CYCLES",
                                   "L3_MISSES", "REMOTE_MEMORY_ACCESSES",
                                   "LOCAL_MEMORY_ACCESSES", "INSTRUCTIONS"};
  for (const char* m : metrics) up.add_metric(m);
  const auto root = up.add_event("main");
  for (std::size_t e = 1; e < kEvents; ++e) {
    char name[32];
    std::snprintf(name, sizeof name, "main => region_%03zu", e);
    up.add_event(name, root);
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t e = 0; e < kEvents; ++e) {
      up.set_calls(t, e, 1.0, 0.0);
      for (std::size_t m = 0; m < kMetrics; ++m) {
        const double v = synth_value(o.seed, t, e, m);
        up.set_inclusive(t, e, m, v);
        up.set_exclusive(t, e, m, v);
      }
    }
  }
  for (int k = 0; k < kUploadSlots; ++k) {
    pk::io::save_trial(up, upload_file(inputs, k));
  }
  // The self-check's wrong cell.
  fs::create_directories(inputs / "faulty");
  up.set_exclusive(0, 0, 0, -1.0);
  pk::io::save_trial(up, inputs / "faulty" / "upload-0.pkb");
}

void run_serve(const Options& o, Result& r) {
  const fs::path inputs = o.work / "inputs";
  std::vector<double> setups;
  std::unique_ptr<pk::server::Server> server;
  for (int s = 0; s < kSetups; ++s) {
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<pk::server::Server>(server_options(o));
    const std::string why = seed_server(o, *server);
    setups.push_back(ms_since(t0) / 1e3);
    r.invariant(why.empty(), "set-up: " + why);
  }
  for (int k = 0; k < kUploadSlots; ++k) {
    const std::string why =
        check_upload(*server, o.seed, "upload-" + std::to_string(k));
    r.invariant(why.empty(), "set-up readback: " + why);
  }
  const fs::path sock = server->options().socket_path;
  const double upload_bytes =
      static_cast<double>(fs::file_size(upload_file(inputs, 0)));

  std::vector<Worker> analyzers(kAnalyzeConnections);
  Worker uploader;
  std::unique_ptr<Recorder> rec;
  if (o.trace) rec = std::make_unique<Recorder>(o.delay_layer);

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::microseconds(static_cast<long long>(o.seconds * 1e6));

  auto analyze_loop = [&](Worker& w) {
    try {
      pk::server::Client c(sock);
      while (Clock::now() < deadline) {
        std::vector<pk::server::Client::Response> rs;
        {
          OpSpan op(rec.get(), "batch");
          const auto t0 = Clock::now();
          std::optional<telemetry::ScopedSpan> s;
          if (rec) s.emplace("server.batch");
          rs = batch(c);
          w.ms.push_back(ms_since(t0));
        }
        const std::string why = check_batch(rs, remote_memory_events());
        ++w.ops;
        if (!why.empty()) {
          w.failures.push_back(why);
        }
        if (rec && w.ms.size() % kProbeEvery == 0) inproc_probe(*rec, *server);
      }
    } catch (const std::exception& e) {
      w.error = e.what();
    }
  };

  auto upload_loop = [&](Worker& w) {
    for (int k = 0;; ++k) {
      const auto due = start + k * kUploadPeriod;
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      w.lateness.push_back(ms_since(due));
      const std::string name = "upload-" + std::to_string(k % kUploadSlots);
      std::string why;
      try {
        pk::server::Client::Response resp;
        {
          OpSpan op(rec.get(), "upload");
          std::optional<telemetry::ScopedSpan> s;
          if (rec) s.emplace("server.upload");
          pk::server::Client c(sock);
          resp = c.upload_file(kUploadApp, kUploadExp,
                               upload_file(inputs, k % kUploadSlots));
        }
        w.ms.push_back(ms_since(due));
        why = resp.ok() ? check_upload(*server, o.seed, name)
                        : "upload: " + resp.error_message;
        if (rec) {
          // The library's io.open_trial span times the same bytes read
          // in-process.
          telemetry::ScopedSpan probe("probe:upload");
          (void)pk::io::open_trial(upload_file(inputs, k % kUploadSlots));
        }
      } catch (const std::exception& e) {
        why = std::string("upload: ") + e.what();
      }
      ++w.ops;
      w.bytes += upload_bytes;
      if (!why.empty()) {
        w.failures.push_back(why);
      }
    }
  };

  {
    std::vector<std::thread> threads;
    for (auto& w : analyzers) threads.emplace_back(analyze_loop, std::ref(w));
    threads.emplace_back(upload_loop, std::ref(uploader));
    for (auto& t : threads) t.join();
  }
  const double wall_s = ms_since(start) / 1e3;
  server->stop();

  std::vector<double> batch_ms;
  std::size_t ops = 0;
  for (Worker* w : {&analyzers[0], &analyzers[1], &uploader}) {
    r.invariant(w->error.empty(), "connection ended early: " + w->error);
    for (const auto& why : w->failures) r.op(false, why);
    for (std::size_t i = w->failures.size(); i < w->ops; ++i) r.op(true);
    ops += w->ops - w->failures.size();
    if (w != &uploader) {
      batch_ms.insert(batch_ms.end(), w->ms.begin(), w->ms.end());
    }
  }
  const double ops_per_s = static_cast<double>(ops) / wall_s;
  r.note("batches " + std::to_string(batch_ms.size()) + " over " +
         std::to_string(kAnalyzeConnections) + " connections, uploads " +
         std::to_string(uploader.ms.size()) + " every " +
         std::to_string(kUploadPeriod.count()) + " ms, server workers " +
         std::to_string(server->options().workers));
  if (!o.trace) {
    r.metric("setup_s", median(setups), "s");
    r.metric("ops_per_s", ops_per_s, "1/s");
    r.metric("write_mb_per_s",
             uploader.bytes / 1e6 / (sum(uploader.ms) / 1e3), "MB/s");
    r.metric("read_p50_ms", percentile(batch_ms, 0.5), "ms");
    r.metric("read_p90_ms", percentile(batch_ms, 0.9), "ms");
    r.metric("write_p50_ms", percentile(uploader.ms, 0.5), "ms");
    r.metric("write_p90_ms", percentile(uploader.ms, 0.9), "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  Recorder& t = *rec;
  t.finish();
  std::map<std::string, double> v;
  v["io.open_trial_ms.pkb"] =
      median(t.durations("io.open_trial", "probe:upload"));
  v["analysis.facts_ms"] = median(t.durations("analysis.facts"));
  v["analysis.facts"] = mean(t.values("analysis.facts"));
  v["rules.load_ms"] = median(t.durations("rules.load"));
  v["rules.match_ms"] =
      median(t.durations("rules.process_rules", "probe:inproc"));
  v["rules.diagnoses"] = mean(t.values("rules.diagnoses"));
  v["provenance.render_ms"] = median(t.durations("provenance.render"));
  v["provenance.bytes"] = mean(t.values("provenance.bytes"));
  v["server.request_ms"] = median(t.durations("server.request"));
  v["server.inproc_analyze_ms"] = median(t.durations("probe:inproc"));
  v["server.analyze_overhead_ms"] =
      median(t.durations("server.batch")) - v["server.inproc_analyze_ms"];
  v["server.upload_overhead_ms"] =
      median(t.durations("server.upload")) - v["io.open_trial_ms.pkb"];
  v["server.upload_lateness_ms"] = mean(uploader.lateness);
  finish_trace(o, r, t,
               {{"batch", "server", "inproc", ""},
                {"upload", "server", "upload", ""}},
               v, ops_per_s);
}

bool self_check_serve(const Options& o) {
  const fs::path inputs = o.work / "inputs";
  pk::server::Server server(server_options(o));
  if (!seed_server(o, server).empty()) return false;
  bool all = true;
  // Wrong cell: upload the copy with one changed value.
  {
    pk::server::Client c(server.options().socket_path);
    const auto resp = c.upload_file(kUploadApp, kUploadExp,
                                    inputs / "faulty" / "upload-0.pkb");
    const std::string why = check_upload(server, o.seed, "upload-0");
    const bool detected = resp.ok() && !why.empty();
    std::cerr << "self-check serve wrong cell: "
              << (detected ? "detected (" + why + ")" : "NOT detected")
              << "\n";
    all = all && detected;
  }
  // Dropped plant: one of GenIDLEST's remote-memory events left out.
  {
    pk::server::Client c(server.options().socket_path);
    const auto rs = batch(c);
    auto dropped = remote_memory_events();
    dropped.erase(dropped.begin());
    const std::string ok_why = check_batch(rs, remote_memory_events());
    const std::string why = check_batch(rs, dropped);
    const bool detected = ok_why.empty() && !why.empty();
    std::cerr << "self-check serve dropped plant: "
              << (detected ? "detected (" + why + ")" : "NOT detected")
              << "\n";
    all = all && detected;
  }
  server.stop();
  return all;
}

}  // namespace perfbench
