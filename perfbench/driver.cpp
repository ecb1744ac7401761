// perfbench_driver: runs one perfbench workload in-process against the
// perfknow library and writes its result as one JSON object.
//
//   perfbench_driver run --workload W --work DIR --seconds S --trace 0|1
//                        --seed N --out FILE [--delay-layer L]
//                        [--trace-name NAME]
//   perfbench_driver prep --workload serve --work DIR --seed N
//   perfbench_driver self-check --workload W --work DIR --seed N
//   perfbench_driver pkx <pkx arguments...>
//   perfbench_driver new-repo DIR
//
// run.py generates the inputs, builds this program and drives it; see
// README.md for the workloads, metrics and checks.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "common.hpp"
#include "common/error.hpp"
#include "perfdmf/repository.hpp"
#include "tools/pkx_cli.hpp"

namespace perfbench {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::op(bool ok, const std::string& why) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  correct_ = false;
  if (failed_ <= 5) notes_.push_back("failed operation: " + why);
}

void Result::invariant(bool ok, const std::string& why) {
  if (ok) return;
  correct_ = false;
  notes_.push_back("failed check: " + why);
}

std::string Result::to_json() const {
  std::string out = "{\"correct\":" + std::string(correct_ ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) +
                    ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) out += ",";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    out += json::quote(name) + ":{\"value\":" + buf +
           ",\"unit\":" + json::quote(vu.second) + "}";
  }
  out += "},\"notes\":[";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i != 0) out += ",";
    out += json::quote(notes_[i]);
  }
  return out + "]}";
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int pkx(const std::vector<std::string>& args, std::string* out) {
  std::ostringstream os;
  std::ostringstream err;
  const int rc = perfknow::tools::pkx_main(args, os, err);
  if (out != nullptr) *out = os.str() + err.str();
  return rc;
}

json::Value read_json_file(const fs::path& file) {
  std::ifstream is(file);
  if (!is) throw perfknow::IoError("cannot read " + file.string());
  std::ostringstream ss;
  ss << is.rdbuf();
  return json::parse(ss.str());
}

std::vector<std::string> strings_of(const json::Value& array) {
  std::vector<std::string> out;
  for (const auto& v : array.items) out.push_back(v.text);
  return out;
}

const json::Value& at(const json::Value& obj, const std::string& key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) {
    throw perfknow::ParseError("manifest: missing '" + key + "'");
  }
  return *v;
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: perfbench_driver run|prep|self-check --workload W "
               "--work DIR [--seconds S] [--trace 0|1] [--seed N] "
               "[--out FILE] [--delay-layer L] [--trace-name NAME]\n"
               "       perfbench_driver pkx <pkx arguments...>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  if (args[0] == "new-repo" && args.size() == 2) {
    // `pkx import` needs an existing repository; this starts an empty one.
    perfknow::perfdmf::Repository{}.save(args[1]);
    return 0;
  }
  if (args[0] == "pkx") {
    return perfknow::tools::pkx_main(
        std::vector<std::string>(args.begin() + 1, args.end()), std::cout,
        std::cerr);
  }
  Options o;
  fs::path out;
  for (std::size_t i = 1; i + 1 < args.size(); i += 2) {
    const std::string& k = args[i];
    const std::string& v = args[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--work") o.work = v;
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--seed") o.seed = std::stoi(v);
    else if (k == "--out") out = v;
    else if (k == "--delay-layer") o.delay_layer = v;
    else if (k == "--trace-name") o.trace_name = v;
    else return usage();
  }
  if (o.workload.empty() || o.work.empty()) return usage();
  if (o.trace_name.empty()) o.trace_name = "trace-" + o.workload;

  try {
    if (args[0] == "prep") {
      if (o.workload == "serve") prep_serve(o);
      return 0;
    }
    if (args[0] == "self-check") {
      bool ok = false;
      if (o.workload == "import-analyze") ok = self_check_import_analyze(o);
      else if (o.workload == "perf-history") ok = self_check_perf_history(o);
      else if (o.workload == "serve") ok = self_check_serve(o);
      else return usage();
      return ok ? 0 : 1;
    }
    if (args[0] != "run" || out.empty()) return usage();
    Result r;
    if (o.workload == "import-analyze") run_import_analyze(o, r);
    else if (o.workload == "perf-history") run_perf_history(o, r);
    else if (o.workload == "serve") run_serve(o, r);
    else return usage();
    std::ofstream os(out);
    os << r.to_json() << "\n";
    return os ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
