#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/format.hpp"
#include "profile/profile.hpp"

namespace perfbench {

namespace telemetry = perfknow::telemetry;

namespace {

/// How long the trace self-test stalls the delayed layer per operation.
constexpr auto kLayerDelay = std::chrono::milliseconds(4);
/// Drain period: far below the time a busy thread needs to fill its
/// ring (16384 spans).
constexpr auto kDrainPeriod = std::chrono::milliseconds(50);

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_root_name(const std::string& name) {
  return starts_with(name, "op:") || starts_with(name, "probe:");
}

/// The layer a span's self time belongs to. Thread-pool spans take the
/// layer of the call that fanned out.
std::string layer_of(const std::vector<SpanRow>& rows, std::size_t i) {
  while (starts_with(rows[i].name, "threadpool.") && rows[i].parent >= 0) {
    i = static_cast<std::size_t>(rows[i].parent);
  }
  if (starts_with(rows[i].name, "op:")) return "unattributed";
  return rows[i].name.substr(0, rows[i].name.find('.'));
}

double ms_of(const SpanRow& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

// The per-layer metrics every traced run prints, with their units. A
// workload fills the ones its path reaches; the rest read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"io.open_trial_ms.pkprof", "ms"},
      {"io.open_trial_ms.json", "ms"},
      {"io.open_trial_ms.csv", "ms"},
      {"io.open_trial_ms.tau", "ms"},
      {"io.open_trial_ms.pkb", "ms"},
      {"io.benchjson_ms", "ms"},
      {"perfdmf.load_ms", "ms"},
      {"perfdmf.save_ms", "ms"},
      {"perfdmf.prune_ms", "ms"},
      {"perfdmf.pkb_mb", "MB"},
      {"perfdmf.trials_loaded", "count"},
      {"perfdmf.trials_used", "count"},
      {"perfdmf.load_useful_ratio", "ratio"},
      {"script.session_ms", "ms"},
      {"script.overhead_ms", "ms"},
      {"analysis.derive_ms", "ms"},
      {"analysis.facts_ms", "ms"},
      {"analysis.facts", "count"},
      {"analysis.diff_facts_ms", "ms"},
      {"analysis.diff_us_per_cell", "us"},
      {"rules.load_ms", "ms"},
      {"rules.match_ms", "ms"},
      {"rules.diagnoses", "count"},
      {"provenance.render_ms", "ms"},
      {"provenance.bytes", "bytes"},
      {"server.request_ms", "ms"},
      {"server.inproc_analyze_ms", "ms"},
      {"server.analyze_overhead_ms", "ms"},
      {"server.upload_overhead_ms", "ms"},
      {"server.upload_lateness_ms", "ms"},
  };
  return names;
}

const std::vector<std::string>& layers() {
  static const std::vector<std::string> names = {
      "io",    "perfdmf",    "script", "analysis",
      "rules", "provenance", "server", "unattributed"};
  return names;
}

}  // namespace

Recorder::Recorder(std::string delay_layer) : delay_(std::move(delay_layer)) {
  telemetry::set_enabled(true);
  drain();  // spans from before the run are not the run's
  rows_.clear();
  sampler_ = std::thread([this] {
    while (!stop_.load()) {
      std::this_thread::sleep_for(kDrainPeriod);
      drain();
    }
  });
}

Recorder::~Recorder() {
  stop_.store(true);
  if (sampler_.joinable()) sampler_.join();
}

void Recorder::drain() {
  const telemetry::Snapshot snap = telemetry::snapshot();
  const std::lock_guard lock(mutex_);
  // A snapshot lists each thread's retained spans together, oldest first;
  // the ones after the last record taken from that thread are new.
  std::size_t i = 0;
  while (i < snap.spans.size()) {
    const std::uint32_t thread = snap.spans[i].thread;
    std::size_t end = i;
    while (end < snap.spans.size() && snap.spans[end].thread == thread) ++end;
    std::size_t from = i;
    const auto last = last_.find(thread);
    if (last != last_.end()) {
      std::size_t k = end;
      while (k > i) {
        const auto& s = snap.spans[k - 1];
        if (std::make_tuple(s.start_ns, s.duration_ns, s.name) ==
            last->second) {
          break;
        }
        --k;
      }
      // Not found: the ring wrapped past it and spans in between are gone.
      if (k == i) ++lost_;
      from = k;
    }
    for (std::size_t j = from; j < end; ++j) {
      const auto& s = snap.spans[j];
      SpanRow row;
      row.name = s.name < snap.names.size() ? snap.names[s.name] : "";
      row.thread = s.thread;
      row.start_ns = s.start_ns;
      row.end_ns = s.start_ns + s.duration_ns;
      row.exclusive_ns = s.exclusive_ns;
      rows_.push_back(std::move(row));
    }
    if (end > i) {
      const auto& s = snap.spans[end - 1];
      last_[thread] = {s.start_ns, s.duration_ns, s.name};
    }
    i = end;
  }
}

void Recorder::finish() {
  if (sampler_.joinable()) {
    stop_.store(true);
    sampler_.join();
    drain();
  }
  // Link each span to the innermost span enclosing it on its thread and
  // to the op:/probe: root above it.
  std::vector<std::size_t> order(rows_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = rows_[a];
    const auto& y = rows_[b];
    if (x.thread != y.thread) return x.thread < y.thread;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.end_ns > y.end_ns;
  });
  std::vector<std::size_t> stack;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    SpanRow& s = rows_[i];
    if (k > 0 && rows_[order[k - 1]].thread != s.thread) stack.clear();
    while (!stack.empty() && rows_[stack.back()].end_ns <= s.start_ns) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      s.parent = static_cast<std::int64_t>(stack.back());
      s.root = rows_[stack.back()].root;
    }
    if (s.root < 0 && is_root_name(s.name)) {
      s.root = static_cast<std::int64_t>(i);
    }
    stack.push_back(i);
  }
}

void Recorder::count(const std::string& name, double value) {
  const std::lock_guard lock(mutex_);
  counts_.emplace_back(name, value);
}

std::vector<double> Recorder::durations(const std::string& name,
                                        const std::string& root) const {
  std::vector<double> out;
  for (const auto& s : rows_) {
    if (s.name != name) continue;
    if (!root.empty() &&
        (s.root < 0 || rows_[static_cast<std::size_t>(s.root)].name != root)) {
      continue;
    }
    out.push_back(ms_of(s));
  }
  return out;
}

std::vector<double> Recorder::values(const std::string& name) const {
  std::vector<double> out;
  for (const auto& [n, v] : counts_) {
    if (n == name) out.push_back(v);
  }
  return out;
}

OpSpan::OpSpan(const Recorder* rec, const std::string& kind) {
  if (rec == nullptr) return;
  span_.emplace("op:" + kind);
  if (!rec->delay_layer().empty()) {
    telemetry::ScopedSpan delay(rec->delay_layer() + ".delay");
    std::this_thread::sleep_for(kLayerDelay);
  }
}

std::vector<double> Recorder::outer_ms(const std::string& root,
                                       const std::string& prefix) const {
  std::map<std::int64_t, double> by_root;
  for (const auto& s : rows_) {
    if (s.root < 0) continue;
    const auto r = static_cast<std::size_t>(s.root);
    if (rows_[r].name != root) continue;
    by_root[s.root];  // roots without such spans count as 0
    if (!starts_with(s.name, prefix.c_str())) continue;
    if (s.parent >= 0 &&
        starts_with(rows_[static_cast<std::size_t>(s.parent)].name,
                    prefix.c_str())) {
      continue;
    }
    by_root[s.root] += ms_of(s);
  }
  std::vector<double> out;
  for (const auto& [r, ms] : by_root) out.push_back(ms);
  return out;
}

namespace {

std::uint64_t process_bytes_read() {
  std::ifstream is("/proc/self/io");
  for (std::string key; is >> key;) {
    std::uint64_t v = 0;
    is >> v;
    if (key == "rchar:") return v;
  }
  return 0;
}

telemetry::Counter& bytes_mapped() {
  static telemetry::Counter& c =
      telemetry::counter("perfdmf.repository.bytes_mapped");
  return c;
}

telemetry::Histogram& lazy_load_ns() {
  static telemetry::Histogram& h =
      telemetry::histogram("perfdmf.repository.load_ns");
  return h;
}

}  // namespace

double bytes_read_by(const std::function<void()>& fn) {
  const std::uint64_t before = process_bytes_read();
  fn();
  return static_cast<double>(process_bytes_read() - before);
}

LoadProbe::LoadProbe(const fs::path& dir, const std::string& kind) {
  telemetry::ScopedSpan probe("probe:" + kind + ".load");
  telemetry::ScopedSpan span("perfdmf.load");
  const auto t0 = Clock::now();
  if (fs::exists(dir / "index.tsv")) {
    (void)perfknow::perfdmf::Repository::load(dir);
  }
  ms = ms_since(t0);
}

LoadMeter::LoadMeter(const fs::path& dir, double input_bytes)
    : input_bytes_(input_bytes) {
  if (fs::exists(dir)) {
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file() && e.path().extension() == ".pkb") {
        repo_bytes_ += static_cast<double>(e.file_size());
        repo_files_ += 1.0;
      }
    }
  }
  read0_ = process_bytes_read();
  mapped0_ = bytes_mapped().value();
  lazy_count0_ = lazy_load_ns().count();
  lazy_ns0_ = lazy_load_ns().sum();
}

void LoadMeter::done(Recorder& rec, const std::string& kind, double used,
                     const LoadProbe& probe) const {
  const double eager = std::max(
      0.0, static_cast<double>(process_bytes_read() - read0_) - input_bytes_);
  // Whole-repository reads: 1 for one eager load, more when the call
  // loads the repository again.
  const double share = repo_bytes_ > 0.0 ? eager / repo_bytes_ : 0.0;
  const double lazy_trials =
      static_cast<double>(lazy_load_ns().count() - lazy_count0_);
  const double lazy_ms =
      static_cast<double>(lazy_load_ns().sum() - lazy_ns0_) / 1e6;
  rec.count("perfdmf.pkb_bytes",
            eager + static_cast<double>(bytes_mapped().value() - mapped0_));
  rec.count("perfdmf.trials_loaded",
            (repo_files_ > 0.0 ? eager / (repo_bytes_ / repo_files_) : 0.0) +
                lazy_trials);
  rec.count("perfdmf.trials_used", used);
  rec.count("eager." + kind, share);
  rec.count("perfdmf.load_ms." + kind, share * probe.ms + lazy_ms);
}

std::vector<LayerTable> layer_tables(
    const Recorder& rec, const std::vector<Attribution>& attributions) {
  const auto& rows = rec.spans();
  struct Acc {
    std::size_t ops = 0;
    double op_ms = 0.0;
    std::map<std::string, double> self_ms;
    std::map<std::string, double> spans;
  };
  std::map<std::string, Acc> roots;  // by root name
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].root < 0) continue;  // outside any operation or probe
    const std::string& root =
        rows[static_cast<std::size_t>(rows[i].root)].name;
    Acc& acc = roots[root];
    const bool is_root = rows[i].root == static_cast<std::int64_t>(i);
    if (is_root) {
      ++acc.ops;
      acc.op_ms += ms_of(rows[i]);
    }
    // A probe's own glue (opening its inputs) is not the work it stands
    // in for.
    if (is_root && starts_with(root, "probe:")) continue;
    const std::string layer = layer_of(rows, i);
    acc.self_ms[layer] += static_cast<double>(rows[i].exclusive_ns) / 1e6;
    acc.spans[layer] += 1.0;
  }
  std::vector<LayerTable> out;
  for (auto& [root, acc] : roots) {
    if (!starts_with(root, "op:") || acc.ops == 0) continue;
    LayerTable t;
    t.kind = root.substr(3);
    t.ops = acc.ops;
    const double n = static_cast<double>(acc.ops);
    t.op_ms = acc.op_ms / n;
    for (const auto& [layer, ms] : acc.self_ms) t.self_ms[layer] = ms / n;
    for (const auto& [layer, k] : acc.spans) t.spans[layer] = k / n;
    for (const auto& a : attributions) {
      if (a.kind != t.kind) continue;
      const auto it = roots.find("probe:" + a.probe);
      if (it == roots.end() || it->second.ops == 0) continue;
      const double scale = a.scale.empty() ? 1.0 : mean(rec.values(a.scale));
      const double probes = static_cast<double>(it->second.ops);
      // A probe can read slower than the work it stands in for (it runs
      // cold, after the operation); the container never goes below 0.
      for (const auto& [layer, ms] : it->second.self_ms) {
        const double moved =
            std::min(scale * ms / probes, t.self_ms[a.container]);
        t.self_ms[a.container] -= moved;
        t.self_ms[layer] += moved;
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

namespace {

void emit_per_layer(Result& r, const std::map<std::string, double>& values,
                    const std::vector<LayerTable>& tables,
                    double ops_per_s) {
  for (const auto& [name, unit] : per_layer_names()) {
    const auto it = values.find(name);
    r.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  double total = 0.0;
  std::map<std::string, double> by_layer;
  for (const auto& t : tables) {
    total += t.op_ms * static_cast<double>(t.ops);
    for (const auto& [layer, ms] : t.self_ms) {
      by_layer[layer] += ms * static_cast<double>(t.ops);
    }
  }
  for (const auto& layer : layers()) {
    r.metric("share." + layer,
             total > 0.0 ? 100.0 * by_layer[layer] / total : 0.0, "%");
  }
  r.metric("trace.ops_per_s", ops_per_s, "1/s");
}

std::string render_tables(const std::vector<LayerTable>& tables) {
  std::string out = "kind              ops    op_ms";
  for (const auto& l : layers()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %11.11s", l.c_str());
    out += buf;
  }
  out += "\n";
  for (const auto& t : tables) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%-16.16s %5zu %8.2f", t.kind.c_str(),
                  t.ops, t.op_ms);
    out += buf;
    for (const auto& l : layers()) {
      const auto it = t.self_ms.find(l);
      const double ms = it == t.self_ms.end() ? 0.0 : it->second;
      std::snprintf(buf, sizeof buf, " %5.1f%%%5.1f",
                    t.op_ms > 0.0 ? 100.0 * ms / t.op_ms : 0.0, ms);
      out += buf;
    }
    out += "\n";
  }
  out += "(each layer: share of the operation, then mean self ms)\n";
  return out;
}

/// Saves the layer tables as a profile trial (.pkb): under "main", one
/// event per operation kind and below it one "<kind> => <layer>" event
/// per layer, with metric TIME = mean self ms per operation of that kind
/// (0 below 1 % of the operation, 15 % for the unattributed remainder)
/// and SPANS = spans per operation.
void save_layer_trial(const std::vector<LayerTable>& tables,
                      const fs::path& file, const std::string& name) {
  namespace profile = perfknow::profile;
  profile::Trial trial(name);
  trial.set_thread_count(1);
  const auto time = trial.add_metric("TIME", "msec");
  const auto count = trial.add_metric("SPANS", "count");
  const auto main = trial.add_event("main");
  double total = 0.0;
  for (const auto& t : tables) {
    const auto k = trial.add_event(t.kind, main);
    trial.set_inclusive(0, k, time, t.op_ms);
    trial.set_calls(0, k, static_cast<double>(t.ops), 0.0);
    total += t.op_ms;
    // Layers under 1 % of an operation are microseconds of timer and
    // lock noise whose ratio between two runs means nothing; they are
    // written as 0, which `pkx diff` skips. The unattributed remainder
    // is the operation's time less the probes' estimates and carries
    // their jitter, a few % of the operation: it is written only from
    // 15 % of the operation up.
    for (const auto& layer : layers()) {
      const double resolution =
          (layer == "unattributed" ? 0.15 : 0.01) * t.op_ms;
      const auto e = trial.add_event(t.kind + " => " + layer, k);
      const auto it = t.self_ms.find(layer);
      const double ms = it == t.self_ms.end() ? 0.0 : it->second;
      const double v = ms < resolution ? 0.0 : ms;
      const auto sp = t.spans.find(layer);
      const double spans = sp == t.spans.end() ? 0.0 : sp->second;
      trial.set_inclusive(0, e, time, v);
      trial.set_exclusive(0, e, time, v);
      trial.set_inclusive(0, e, count, spans);
      trial.set_exclusive(0, e, count, spans);
      trial.set_calls(0, e, 1.0, 0.0);
    }
  }
  trial.set_inclusive(0, main, time, total);
  trial.set_calls(0, main, 1.0, static_cast<double>(tables.size()));
  perfknow::io::save_trial(trial, file);
}

void write_tsv(const Recorder& rec, const fs::path& file) {
  std::ofstream os(file);
  os << "root\tthread\tname\tstart_ns\tend_ns\tparent\n";
  for (const auto& s : rec.spans()) {
    os << s.root << '\t' << s.thread << '\t' << s.name << '\t' << s.start_ns
       << '\t' << s.end_ns << '\t' << s.parent << '\n';
  }
}

}  // namespace

void finish_trace(const Options& o, Result& r, Recorder& rec,
                  const std::vector<Attribution>& attributions,
                  const std::map<std::string, double>& values,
                  double ops_per_s) {
  rec.finish();
  const auto tables = layer_tables(rec, attributions);
  emit_per_layer(r, values, tables, ops_per_s);
  write_tsv(rec, o.work / "trace-spans.tsv");
  const std::string table = render_tables(tables);
  std::ofstream(o.work / "trace-layers.txt") << table;
  std::istringstream is(table);
  for (std::string line; std::getline(is, line);) r.note(line);
  r.note("spans " + std::to_string(rec.spans().size()) +
         ", ring wrap-arounds between drains " + std::to_string(rec.lost()));
  save_layer_trial(tables, o.work / (o.trace_name + ".pkb"), o.trace_name);
}

}  // namespace perfbench
