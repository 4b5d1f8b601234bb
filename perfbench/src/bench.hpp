// Shared plumbing for the perfbench workloads: arguments, seed streams,
// sample statistics, the result record every workload fills, and the
// in-memory span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Error bound every workload compresses with (the paper's usual setting).
inline constexpr double kEbRel = 1e-4;
/// `sz14 serve` default decoded-block cache budget.
inline constexpr std::size_t kServeCacheBytes = 64u << 20;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch files (archives, span dumps)
};

/// Independent, reproducible sub-seed number `stream` of the run seed:
/// every generator call and every pick stream draws from one of these, so
/// the run seed alone fixes all inputs.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Linear-interpolated quantile q in [0, 1] of `v` (copied and sorted);
/// NaN for an empty set.
[[nodiscard]] double quantile(std::vector<double> v, double q);

// ---------------------------------------------------------------- tracing
//
// Spans are recorded around the calls the benchmark makes into each
// library layer, kept in per-thread memory, and written out when the run
// ends.  With tracing disabled a Span is one predictable branch.

namespace trace {

struct SpanRecord {
  const char* name;  // string literal
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t id;
  std::uint32_t parent;  // 0 = root
  std::uint64_t request;
};

void set_enabled(bool on);
[[nodiscard]] bool enabled();

class Span {
 public:
  Span(const char* name, std::uint64_t request);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  bool on_;
};

/// Move out every span recorded since the last take() (all threads, in no
/// particular order).  Call it only while no other thread records spans.
[[nodiscard]] std::vector<SpanRecord> take();

/// Sum of the durations (seconds) and count of spans named `name`.
struct Total {
  double seconds = 0.0;
  std::size_t count = 0;
};
[[nodiscard]] Total total(const std::vector<SpanRecord>& spans,
                          const char* name);

/// Seconds per op spent in spans named `name`.
[[nodiscard]] inline double per_op(const std::vector<SpanRecord>& spans,
                                   const char* name, double ops) {
  return ops > 0 ? total(spans, name).seconds / ops : 0.0;
}

/// Write `spans` as JSON lines to `path`; false on I/O failure.
bool dump(const std::vector<SpanRecord>& spans, const std::string& path);

}  // namespace trace

/// One reported metric: its median over `n` samples and the quartiles.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;  // the median unless the name says otherwise
  std::size_t n = 0;
  double q1 = 0.0;
  double q3 = 0.0;
};

/// What a workload run hands back to main(): the operation counts behind
/// `correct`, the metrics, and a free-form context record.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> context;
  /// Per-layer values of a traced run, keyed by kLayerMetrics name; a
  /// layer the workload never calls is absent and reported as 0 (idle).
  std::map<std::string, double> layers;
  /// Every span of the traced run, written out when the run ends.
  std::vector<trace::SpanRecord> spans;

  /// Count one checked operation; `ok` false counts it as failed.
  void check(bool ok, const std::string& what);

  /// Report quantile `q` (default: the median) of `samples`, with their
  /// count and quartiles.
  void add(const std::string& name, const std::string& unit,
           const std::vector<double>& samples, double q = 0.5);
  /// Report one value measured once per run (n = 1).
  void add_value(const std::string& name, const std::string& unit,
                 double value);

  void note(const std::string& key, double value) {
    context.emplace_back(key, value);
  }
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload with tracing off (the
/// context record adds throughput_mbps and the op_p90_ms and op_p99_ms
/// tails, ungated).  An "op" is the workload's unit of work: one round trip
/// of all three fields (field-codec), one sealed archive (archive-ingest),
/// one region read measured at the client (serve-*).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"compression_factor", "ratio"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, reported by every workload with tracing on.  Times
/// are seconds per op of the replayed calls (see perfbench/README.md).
inline constexpr MetricDef kLayerMetrics[] = {
    {"core.range_scan_s", "s/op"},
    {"core.pq_walk_s", "s/op"},
    {"core.hit_rate", "ratio"},
    {"core.recon_walk_s", "s/op"},
    {"encoding.histogram_s", "s/op"},
    {"encoding.table_build_s", "s/op"},
    {"encoding.emit_s", "s/op"},
    {"encoding.decode_s", "s/op"},
    {"encoding.bits_per_code", "bits"},
    {"parallel.pool_efficiency", "ratio"},
    {"archive.append_s", "s/op"},
    {"archive.finish_s", "s/op"},
    {"archive.bytes_written", "bytes"},
    {"archive.fetch_s", "s/op"},
    {"archive.crc_s", "s/op"},
    {"archive.block_decode_s", "s/op"},
    {"archive.blocks_per_read", "count"},
    {"archive.decoded_bytes_per_returned_byte", "ratio"},
    {"archive.cache_hit_rate", "ratio"},
    {"archive.cache_evictions", "1/op"},
    {"archive.coalesced_reads", "1/op"},
    {"serve.overhead_ms", "ms"},
    {"serve.frame_encode_s", "s/op"},
    {"serve.bytes_out_per_read", "bytes"},
    {"trace.overhead_pct", "%"},
    {"trace.layer_gap_pct", "%"},
    {"trace.spans", "count"},
};

/// Largest gap between the summed stage spans of a replayed compress and
/// the wall time of the real call, as a share of that wall time, that the
/// traced run accepts (the replay allocates what compress() reuses).
inline constexpr double kLayerGapTolerancePct = 25.0;

/// Hand freed heap pages back to the OS (malloc_trim).  Called between
/// set-ups and before timing, so peak RSS does not depend on what earlier
/// set-ups left in the allocator's arenas.
void release_free_memory();

/// Peak resident set size of this process so far, in MB (1e6 bytes).
[[nodiscard]] double peak_rss_mb();

/// Median of the set-up times of a run.
[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

// --------------------------------------------------------------- workloads

Result run_field_codec(const Args& args);
Result run_archive_ingest(const Args& args);
Result run_serve(const Args& args, bool cold);

}  // namespace perfbench
