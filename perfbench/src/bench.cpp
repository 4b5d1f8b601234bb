#include "bench.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): distinct streams of one seed and equal
  // streams of distinct seeds both land far apart.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || v[lo] == v[hi]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 16) failures.push_back(what);
}

void Result::add(const std::string& name, const std::string& unit,
                 const std::vector<double>& samples, double q) {
  metrics.push_back(Metric{name, unit, quantile(samples, q),
                           samples.size(), quantile(samples, 0.25),
                           quantile(samples, 0.75)});
}

void Result::add_value(const std::string& name, const std::string& unit,
                       double value) {
  metrics.push_back(Metric{name, unit, value, 1, value, value});
}

void release_free_memory() { malloc_trim(0); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

namespace trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Each thread appends to its own buffer; the registry only grows, and a
// buffer outlives its thread so take() can read it after the join.
struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::uint32_t current = 0;  // innermost open span on this thread
};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    const std::lock_guard<std::mutex> lk(g_registry_mutex);
    g_registry.push_back(std::move(owned));
    return raw;
  }();
  return *buf;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request), on_(enabled()) {
  if (!on_) return;
  ThreadBuffer& buf = local_buffer();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = buf.current;
  buf.current = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!on_) return;
  const std::uint64_t end = now_ns();
  ThreadBuffer& buf = local_buffer();
  buf.current = parent_;
  buf.spans.push_back(
      SpanRecord{name_, start_ns_, end, id_, parent_, request_});
}

std::vector<SpanRecord> take() {
  std::vector<SpanRecord> all;
  const std::lock_guard<std::mutex> lk(g_registry_mutex);
  for (const auto& buf : g_registry) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
    buf->spans.clear();
  }
  return all;
}

Total total(const std::vector<SpanRecord>& spans, const char* name) {
  Total t;
  for (const auto& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    t.seconds += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    ++t.count;
  }
  return t;
}

bool dump(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& s : spans)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"id\":%u,\"parent\":%u,\"request\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.id, s.parent,
                 static_cast<unsigned long long>(s.request));
  return std::fclose(f) == 0;
}

}  // namespace trace
}  // namespace perfbench
