// Shared pieces of the perfbench driver: options, the result record,
// timing and percentile helpers, and the in-process `pkx` entry point.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace json = perfknow::json;
using Clock = std::chrono::steady_clock;

/// Milliseconds from `t0` to now.
[[nodiscard]] double ms_since(Clock::time_point t0);

struct Options {
  std::string workload;
  fs::path work;        ///< the workload's working directory
  double seconds = 10;  ///< measured interval
  bool trace = false;   ///< per-layer (traced) run instead of end-to-end
  int seed = 1;
  /// Traced runs: layer whose calls the benchmark's own wrapper delays
  /// (the trace self-test), and the name of the saved layer trial.
  std::string delay_layer;
  std::string trace_name;
};

/// One workload run's outcome, written as JSON for run.py.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records an attempted operation and whether its checks passed; a
  /// failed one makes the run incorrect. `why` is reported (first few
  /// only) when the operation failed.
  void op(bool ok, const std::string& why = "");
  /// A check outside any counted operation (set-up, final state).
  void invariant(bool ok, const std::string& why);
  /// Extra lines run.py echoes to stderr (sample counts, settings).
  void note(const std::string& line) { notes_.push_back(line); }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::string to_json() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::string> notes_;
};

/// Linear-interpolated percentile (p in [0, 1]); 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(const std::vector<double>& v);
[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double sum(const std::vector<double>& v);

/// This process's peak resident set, MB.
[[nodiscard]] double peak_rss_mb();

/// Runs one `pkx` invocation in-process; stdout text lands in `out`.
int pkx(const std::vector<std::string>& args, std::string* out = nullptr);

[[nodiscard]] json::Value read_json_file(const fs::path& file);
[[nodiscard]] std::vector<std::string> strings_of(const json::Value& array);

/// Throws when a required manifest member is missing.
[[nodiscard]] const json::Value& at(const json::Value& obj,
                                    const std::string& key);

// ---- workloads -----------------------------------------------------------

void run_import_analyze(const Options& o, Result& r);
void run_perf_history(const Options& o, Result& r);
void run_serve(const Options& o, Result& r);
/// Simulates serve's case-study trials and writes its upload trials.
void prep_serve(const Options& o);

/// Self-check: plants one wrong cell and one dropped plant per workload
/// and returns true when both checks report them.
bool self_check_import_analyze(const Options& o);
bool self_check_perf_history(const Options& o);
bool self_check_serve(const Options& o);

}  // namespace perfbench
