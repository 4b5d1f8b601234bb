// perfbench: the repository benchmark.  One workload per invocation:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir D
//
// Prints a context record, a report line with every metric's median,
// sample count and quartiles, and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}.  Exit code 1 when any
// checked operation failed, 2 on bad arguments or an aborted run.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Args;
using perfbench::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "field-codec|archive-ingest|serve-warm|serve-cold --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool seeded = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
        seeded = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (flag == "--work-dir") {
        a.work_dir = v;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.workload.empty() || !seeded || a.work_dir.empty())
    usage("--workload, --seed and --work-dir are required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// JSON number with every digit; non-finite values (a failed request's
/// latency) become the largest finite double so the line stays JSON.
std::string num(double v) {
  if (!std::isfinite(v)) v = v < 0 ? -1.0e308 : 1.0e308;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  out += '"';
  return out;
}

/// Append `pieces` to `out` one by one (also keeps GCC 12's -Wrestrict
/// false positive on `"literal" + std::string` out of the build).
void append(std::string& out, std::initializer_list<std::string_view> pieces) {
  for (const auto p : pieces) out += p;
}

void print_context(const Args& a, const Result& r) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const double cache = static_cast<double>(perfbench::kServeCacheBytes);
  std::string line = "{\"context\":{";
  append(line, {"\"workload\":", json_string(a.workload)});
  append(line, {",\"seed\":", std::to_string(a.seed)});
  append(line, {",\"seconds\":", num(a.seconds)});
  append(line, {",\"trace\":", a.trace ? "1" : "0"});
  append(line, {",\"nproc\":",
                std::to_string(std::thread::hardware_concurrency())});
  append(line, {",\"llc_bytes\":", std::to_string(llc > 0 ? llc : 0)});
  append(line, {",\"serve_cache_bytes\":", num(cache)});
  append(line, {",\"compiler\":", json_string(PERFBENCH_COMPILER)});
  append(line, {",\"build_type\":", json_string(PERFBENCH_BUILD_TYPE)});
  append(line, {",\"eb_rel\":", num(perfbench::kEbRel)});
  for (const auto& [key, value] : r.context) {
    append(line, {",", json_string(key), ":", num(value)});
    if (key == "input_bytes" && llc > 0) {
      append(line, {",\"input_over_llc\":",
                    num(value / static_cast<double>(llc))});
      append(line, {",\"input_over_serve_cache\":", num(value / cache)});
    }
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Result r;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "field-codec") {
      r = perfbench::run_field_codec(args);
    } else if (args.workload == "archive-ingest") {
      r = perfbench::run_archive_ingest(args);
    } else if (args.workload == "serve-warm") {
      r = perfbench::run_serve(args, false);
    } else if (args.workload == "serve-cold") {
      r = perfbench::run_serve(args, true);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n",
                 args.workload.c_str(), e.what());
    return 2;
  }
  for (const auto& f : r.failures)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());

  if (args.trace) {
    r.layers["trace.spans"] = static_cast<double>(r.spans.size());
    r.metrics.clear();
    for (const auto& def : perfbench::kLayerMetrics) {
      const auto it = r.layers.find(def.name);
      r.add_value(def.name, def.unit, it == r.layers.end() ? 0.0 : it->second);
    }
    std::string path;
    append(path, {args.work_dir, "/trace-", args.workload, "-seed",
                  std::to_string(args.seed), ".jsonl"});
    if (perfbench::trace::dump(r.spans, path))
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                   r.spans.size(), path.c_str());
  }

  print_context(args, r);
  std::string report;
  std::string metrics;
  for (const auto& m : r.metrics) {
    const char* sep = report.empty() ? "" : ",";
    append(report, {sep, "{\"name\":", json_string(m.name), ",\"unit\":",
                    json_string(m.unit), ",\"median\":", num(m.value), ",\"n\":",
                    std::to_string(m.n), ",\"q1\":", num(m.q1), ",\"q3\":",
                    num(m.q3), "}"});
    append(metrics, {sep, json_string(m.name), ":{\"value\":", num(m.value),
                     ",\"unit\":", json_string(m.unit), "}"});
  }
  std::printf("{\"report\":[%s]}\n", report.c_str());
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
