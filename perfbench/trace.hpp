// The traced run's span collection and per-layer attribution.
//
// The traced run makes the same public calls as the untraced run with
// perfknow's own telemetry switched on. The library's spans (io.open_trial,
// io.read.*, perfdmf.load_trial, analysis.diff, rules.process_rules,
// script.statement, server.request, ...) time the layers inside each
// call. The benchmark adds only:
//   * "op:<kind>" around each operation, so the library's spans can be
//     grouped by the operation they ran in;
//   * wrapper spans "<layer>.<call>" around public calls it makes itself;
//   * "probe:<name>" roots: direct calls, made outside any operation, for
//     work telemetry does not cover (an eager Repository::load, save,
//     rulebase parsing, fact assertion inside a PerfScript host call,
//     provenance rendering). Their time moves out of the layer the call
//     sits in ("unattributed" or "script") into their own layers.
// Spans are drained from telemetry's per-thread rings into memory while
// the run goes on and written out at the end.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "perfdmf/repository.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

/// One span the traced run kept.
struct SpanRow {
  std::string name;
  std::uint32_t thread = 0;  ///< telemetry's dense thread index
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t exclusive_ns = 0;  ///< minus the spans it encloses
  std::int64_t parent = -1;  ///< enclosing span on the same thread
  std::int64_t root = -1;    ///< the op:/probe: span it ran under
};

/// Collects telemetry spans for one traced run. Construction switches
/// telemetry on and starts a thread that drains the rings often enough
/// that they never wrap; finish() stops it and links the spans.
class Recorder {
 public:
  explicit Recorder(std::string delay_layer);
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Stops draining, takes the last spans and links parents and roots.
  void finish();
  /// Records a benchmark-side value (bytes, trials, ...); thread-safe.
  void count(const std::string& name, double value);

  [[nodiscard]] const std::vector<SpanRow>& spans() const { return rows_; }
  /// Durations (ms) of the spans with this name, optionally only those
  /// under roots of this name ("op:diff", "probe:inproc").
  [[nodiscard]] std::vector<double> durations(
      const std::string& name, const std::string& root = "") const;
  [[nodiscard]] std::vector<double> values(const std::string& name) const;
  /// Per root of this name, in order: summed ms of the outermost spans
  /// under it whose names start with `prefix`.
  [[nodiscard]] std::vector<double> outer_ms(const std::string& root,
                                             const std::string& prefix) const;
  /// Spans lost to ring wrap-around between two drains.
  [[nodiscard]] std::uint64_t lost() const { return lost_; }
  [[nodiscard]] const std::string& delay_layer() const { return delay_; }

 private:
  void drain();

  std::string delay_;
  std::mutex mutex_;
  std::vector<SpanRow> rows_;
  std::vector<std::pair<std::string, double>> counts_;
  /// Per telemetry thread: the last record taken (start, duration, name).
  std::map<std::uint32_t, std::tuple<std::uint64_t, std::uint64_t,
                                     std::uint32_t>> last_;
  std::uint64_t lost_ = 0;
  std::atomic<bool> stop_{false};
  std::thread sampler_;
};

/// "op:<kind>" on the calling thread while it lives; nothing without a
/// recorder. In the trace self-test it first stalls the delayed layer
/// for 4 ms inside a "<layer>.delay" span.
class OpSpan {
 public:
  OpSpan(const Recorder* rec, const std::string& kind);

 private:
  std::optional<perfknow::telemetry::ScopedSpan> span_;
};

/// The load probe, made just before a CLI call that opens `dir`:
/// Repository::load(dir) in a "perfdmf.load" span under
/// probe:<kind>.load. The repository is dropped before the call, so the
/// call loads into the memory the probe freed, as it does untraced into
/// the memory its predecessor freed.
struct LoadProbe {
  LoadProbe(const fs::path& dir, const std::string& kind);
  double ms = 0.0;
};

/// Bytes this process read through read(2) (/proc/self/io rchar) while
/// `fn` ran: what parsing a call's input file costs it, so that the
/// rest of the call's reads can be told to be snapshot reads.
[[nodiscard]] double bytes_read_by(const std::function<void()>& fn);

/// What one CLI call loaded, measured around it: the snapshot bytes the
/// process read through read(2) (rchar, less the call's input reads),
/// which is how an eager Repository::load reads, and the library's own
/// lazy-load telemetry (perfdmf.repository.load_ns and .bytes_mapped).
class LoadMeter {
 public:
  /// Before the call; `input_bytes` is what the call reads besides the
  /// repository (bytes_read_by its input parsing).
  LoadMeter(const fs::path& dir, double input_bytes);
  /// After the call: records perfdmf.pkb_bytes, perfdmf.trials_loaded,
  /// perfdmf.trials_used (what the command reads values of: a property
  /// of the command), eager.<kind> (how many times over it read the
  /// repository eagerly: snapshot bytes read / repository bytes) and
  /// perfdmf.load_ms.<kind> (the probe's load time times that, plus the
  /// call's lazy load time).
  void done(Recorder& rec, const std::string& kind, double used,
            const LoadProbe& probe) const;

 private:
  double input_bytes_;
  double repo_bytes_ = 0.0;
  double repo_files_ = 0.0;
  std::uint64_t read0_;
  std::uint64_t mapped0_;
  std::uint64_t lazy_count0_;
  std::uint64_t lazy_ns0_;
};

/// Mean self time per operation of each layer, for one operation kind.
struct LayerTable {
  std::string kind;
  std::size_t ops = 0;
  double op_ms = 0.0;  ///< mean operation duration
  std::map<std::string, double> self_ms;  ///< layer -> mean self ms per op
  std::map<std::string, double> spans;    ///< layer -> spans per op
};

/// Time inside the `container` layer of `kind` operations that the
/// probe:<probe> roots split by layer. With `scale`, the probe's times
/// are multiplied by the mean of that count (how much of the probed work
/// the operation really did).
struct Attribution {
  std::string kind;
  std::string container;
  std::string probe;
  std::string scale;
};

/// Per-kind layer tables. Self time of an "op:" span is "unattributed".
[[nodiscard]] std::vector<LayerTable> layer_tables(
    const Recorder& rec, const std::vector<Attribution>& attributions);

/// Ends a traced run: adds every per-layer metric to `r` (the named
/// values, 0 for those a workload's path does not reach, each layer's
/// share of all operation time and the traced operation rate), and writes
/// the spans (trace-spans.tsv), the share table (trace-layers.txt) and
/// the layer trial (<trace_name>.pkb) under the working directory.
void finish_trace(const Options& o, Result& r, Recorder& rec,
                  const std::vector<Attribution>& attributions,
                  const std::map<std::string, double>& values,
                  double ops_per_s);

}  // namespace perfbench
