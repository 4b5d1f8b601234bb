// field-codec: the paper's algorithm at the per-process rate.  One thread
// runs compress() (default policy, relative bound, so the range scan is
// included) then decompress_into() on each of three paper-shaped fields,
// one per rank-specialised kernel; one op is that round over all three.
// core and encoding do all the work.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/compressor.hpp"
#include "data/generators.hpp"
#include "replay.hpp"

namespace perfbench {
namespace {

using sz14::Options;

struct Inputs {
  std::vector<sz14::data::Field> fields;
  std::vector<std::vector<float>> outs;  // decompress_into targets
  std::size_t raw_bytes = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  namespace data = sz14::data;
  // The generators are single-threaded and independent; running them side
  // by side keeps set-up short without changing a value.
  auto smooth = std::async(std::launch::async, [seed] {
    return data::smooth1d(std::size_t{1} << 24, derive_seed(seed, 1));
  });
  auto climate = std::async(std::launch::async, [seed] {
    return data::climate2d(1800, 3600, derive_seed(seed, 2));
  });
  data::Field hurricane = data::hurricane3d(100, 500, 500,
                                            derive_seed(seed, 3));
  Inputs in;
  in.fields.push_back(smooth.get());
  in.fields.push_back(climate.get());
  in.fields.push_back(std::move(hurricane));
  for (const auto& f : in.fields) {
    // Zero-filled up front so no page fault lands inside a timed call.
    in.outs.emplace_back(f.values.size(), 0.0f);
    in.raw_bytes += f.values.size() * sizeof(float);
  }
  return in;
}

Options codec_options() {
  Options o;
  o.eb_rel = kEbRel;
  return o;
}

struct Round {
  double seconds = 0.0;  // compress + decompress_into, all fields
  bool ok = true;
  std::size_t stream_bytes = 0;
};

/// One round trip of every field; each output is checked against the
/// resolved bound.  With tracing on, the two calls get their spans.
Round run_round(Inputs& in, std::uint64_t first_request, Result& result) {
  Round round;
  for (std::size_t k = 0; k < in.fields.size(); ++k) {
    const sz14::data::Field& f = in.fields[k];
    const std::uint64_t request = first_request + k;
    sz14::CompressStats stats;
    std::vector<std::uint8_t> stream;
    const auto t0 = Clock::now();
    try {
      {
        trace::Span s("codec.compress", request);
        stream = sz14::compress(std::span<const float>(f.values), f.dims,
                                codec_options(), &stats);
      }
      trace::Span s("codec.decompress", request);
      (void)sz14::decompress_into(stream, std::span<float>(in.outs[k]));
    } catch (const std::exception& e) {
      result.check(false, std::string(f.name) + ": " + e.what());
      round.ok = false;
      continue;
    }
    round.seconds += seconds_between(t0, Clock::now());
    round.stream_bytes += stream.size();
    result.check(within_bound(f.values, in.outs[k], stats.resolved_eb),
                 std::string(f.name) + ": round trip exceeds the bound");
  }
  return round;
}

/// Rounds until `budget` seconds have passed (at least `min_rounds`).
std::vector<Round> run_rounds(Inputs& in, double budget, int min_rounds,
                              std::uint64_t& request, Result& result) {
  std::vector<Round> rounds;
  const auto start = Clock::now();
  while (static_cast<int>(rounds.size()) < min_rounds ||
         seconds_between(start, Clock::now()) < budget) {
    rounds.push_back(run_round(in, request, result));
    request += in.fields.size();
  }
  return rounds;
}

double median_round_seconds(const std::vector<Round>& rounds) {
  std::vector<double> s;
  for (const auto& r : rounds) s.push_back(r.seconds);
  return median(s);
}

/// The traced replay: each field is compressed and decompressed through
/// the real calls and then stage by stage; the replayed stream must equal
/// compress()'s byte for byte and the replayed decode must equal
/// decompress_into()'s bit for bit.
void replay_layers(Inputs& in, std::uint64_t request, Result& result) {
  double compress_wall = 0.0;
  std::size_t symbols = 0, predictable = 0;
  std::uint64_t payload_bytes = 0;
  std::vector<float> replayed;
  for (std::size_t k = 0; k < in.fields.size(); ++k, ++request) {
    const sz14::data::Field& f = in.fields[k];
    const std::span<const float> values(f.values);
    const auto t0 = Clock::now();
    const std::vector<std::uint8_t> stream =
        sz14::compress(values, f.dims, codec_options());
    compress_wall += seconds_between(t0, Clock::now());
    const EncodeReplay enc =
        replay_compress(values, f.dims, codec_options(), request);
    result.check(enc.stream == stream,
                 std::string(f.name) + ": replayed stream differs");
    symbols += enc.symbols;
    predictable += enc.predictable;
    payload_bytes += enc.payload_bytes;

    (void)sz14::decompress_into(stream, std::span<float>(in.outs[k]));
    replayed.assign(f.values.size(), 0.0f);
    (void)replay_decompress(stream, std::span<float>(replayed), request);
    result.check(std::memcmp(replayed.data(), in.outs[k].data(),
                             replayed.size() * sizeof(float)) == 0,
                 std::string(f.name) + ": replayed decode differs");
  }
  const std::vector<trace::SpanRecord> spans = trace::take();
  const double ops = 1.0;  // the replay is one round, i.e. one op
  double stages = 0.0;
  for (const char* name :
       {"core.range_scan", "core.pq_walk", "encoding.histogram",
        "encoding.table_build", "encoding.emit"}) {
    const double s = trace::total(spans, name).seconds;
    stages += s;
    result.layers[std::string(name) + "_s"] = s / ops;
  }
  result.layers["core.recon_walk_s"] =
      trace::per_op(spans, "core.recon_walk", ops);
  result.layers["encoding.decode_s"] =
      trace::per_op(spans, "encoding.decode", ops);
  result.layers["core.hit_rate"] =
      static_cast<double>(predictable) / static_cast<double>(symbols);
  result.layers["encoding.bits_per_code"] =
      8.0 * static_cast<double>(payload_bytes) / static_cast<double>(symbols);
  const double gap = 100.0 * std::abs(stages - compress_wall) / compress_wall;
  result.layers["trace.layer_gap_pct"] = gap;
  result.check(gap <= kLayerGapTolerancePct,
               "replayed stages do not add up to the compress() wall time");
  result.spans.insert(result.spans.end(), spans.begin(), spans.end());
}

}  // namespace

Result run_field_codec(const Args& args) {
  Result result;
  Inputs in;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    in = Inputs{};  // free the previous set before building the next
    release_free_memory();
    const auto t0 = Clock::now();
    in = make_inputs(args.seed);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  result.note("input_bytes", static_cast<double>(in.raw_bytes));
  release_free_memory();

  std::uint64_t request = 1;
  if (!args.trace) {
    const std::vector<Round> rounds =
        run_rounds(in, args.seconds, 2, request, result);
    std::vector<double> mbps, op_ms;
    for (const auto& r : rounds) {
      mbps.push_back(static_cast<double>(in.raw_bytes) / 1e6 / r.seconds);
      op_ms.push_back(r.ok ? r.seconds * 1e3
                           : std::numeric_limits<double>::infinity());
    }
    result.add("setup_s", "s", setups);
    result.add("op_p50_ms", "ms", op_ms);
    result.note("throughput_mbps", median(mbps));
    result.note("op_p90_ms", quantile(op_ms, 0.9));
    result.note("op_p99_ms", quantile(op_ms, 0.99));
    result.add_value("compression_factor", "ratio",
                     static_cast<double>(in.raw_bytes) /
                         static_cast<double>(rounds.front().stream_bytes));
    result.add_value("peak_rss_mb", "MB", peak_rss_mb());
    return result;
  }

  // Traced run: the same rounds untraced then traced give the tracing
  // overhead; the replay gives the layer split.
  const double untraced =
      median_round_seconds(run_rounds(in, 0.3 * args.seconds, 1, request,
                                      result));
  trace::set_enabled(true);
  const double traced =
      median_round_seconds(run_rounds(in, 0.3 * args.seconds, 1, request,
                                      result));
  std::vector<trace::SpanRecord> spans = trace::take();
  result.layers["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced;
  result.spans = std::move(spans);
  replay_layers(in, request, result);
  trace::set_enabled(false);
  return result;
}

}  // namespace perfbench
