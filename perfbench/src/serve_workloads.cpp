// serve-warm and serve-cold: a serve::Server with the `sz14 serve`
// defaults (64 MiB decoded-block cache, coalescing on) and 2 pool workers
// on the loopback transport, driven by a closed loop of 2 serve::Client
// threads reading 16^3 regions.  The client is synchronous, so each caller
// waits for its reply and a closed loop is the honest model.
//
//   serve-warm: a hot set of 8 regions, each inside one block, so every
//     block fits in the cache after one warm-up sweep; protocol, transport,
//     event loop, dispatch and region assembly carry the request.
//   serve-cold: a 256x500x500 field (256 MB decoded, 4x the cache) read
//     uniformly over 4096 regions after the cache has filled; most reads
//     miss, so payload fetch, CRC, Huffman decode and the reconstruction
//     walk carry the request.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "archive/block_cache.hpp"
#include "archive/blocking.hpp"
#include "archive/codec.hpp"
#include "archive/reader.hpp"
#include "archive/writer.hpp"
#include "bench.hpp"
#include "common/bytebuffer.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "core/compressor.hpp"
#include "core/format.hpp"
#include "data/generators.hpp"
#include "replay.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using sz14::Dims;
using sz14::archive::Region;

constexpr std::size_t kRegionEdge = 16;
constexpr std::size_t kRegionValues = kRegionEdge * kRegionEdge * kRegionEdge;
constexpr std::size_t kRegionBytes = kRegionValues * sizeof(float);
constexpr std::size_t kClients = 2;
constexpr std::size_t kPoolWorkers = 2;
constexpr std::size_t kBlockEdge = 64;  // `archive create` default
const char* const kField = "v";

struct Spec {
  const char* name;
  std::size_t levels;   // hurricane3d levels x 500 x 500
  std::size_t regions;  // distinct regions the reads pick from
  bool in_block;        // each region inside one block (the hot set)
};

constexpr Spec kWarm{"warm", 100, 8, true};
constexpr Spec kCold{"cold", 256, 4096, false};

std::vector<Region> make_regions(const Spec& spec, const Dims& dims,
                                 sz14::Rng& rng) {
  const sz14::archive::BlockGrid grid(dims,
                                      Dims{kBlockEdge, kBlockEdge, kBlockEdge});
  std::vector<Region> rs;
  for (std::size_t i = 0; i < spec.regions; ++i) {
    Region r;
    r.rank = 3;
    std::array<std::size_t, sz14::kMaxDims> base{};
    Dims span = dims;
    if (spec.in_block) {
      const std::size_t b = rng.below(grid.block_count());
      grid.block_origin(b, base);
      span = grid.block_extents(b);
    }
    for (std::size_t a = 0; a < 3; ++a) {
      r.extent[a] = kRegionEdge;
      r.origin[a] = base[a] + rng.below(span.extent(a) - kRegionEdge + 1);
    }
    rs.push_back(r);
  }
  return rs;
}

/// Everything one set-up builds; the last set-up of a run is measured.
struct Setup {
  std::string path;
  Dims dims;
  std::size_t raw_bytes = 0;
  std::size_t archive_bytes = 0;
  std::vector<Region> regions;
  std::vector<float> expected;  // direct read_region of every region
  std::vector<std::size_t> warmup;  // region indices read before timing
  std::unique_ptr<sz14::serve::Server> server;
  std::vector<std::unique_ptr<sz14::serve::Client>> clients;
};

void build_setup(const Spec& spec, const Args& args, int attempt,
                 Setup& s, Result& result) {
  s.path = args.work_dir + "/serve-" + spec.name + ".sza";
  {
    const sz14::data::Field f = sz14::data::hurricane3d(
        spec.levels, 500, 500, derive_seed(args.seed, 21));
    s.dims = f.dims;
    s.raw_bytes = f.values.size() * sizeof(float);
    sz14::Options rel;
    rel.eb_rel = kEbRel;
    const double eb = sz14::resolve_error_bound_for(
        std::span<const float>(f.values), rel);
    sz14::archive::ArchiveWriter writer(s.path,
                                        std::thread::hardware_concurrency());
    writer.append_field(kField, std::span<const float>(f.values), f.dims,
                        Dims{kBlockEdge, kBlockEdge, kBlockEdge}, "sz14", eb);
    writer.finish();
  }
  s.archive_bytes = std::filesystem::file_size(s.path);
  sz14::Rng rng(derive_seed(args.seed, 22));
  s.regions = make_regions(spec, s.dims, rng);

  // Ground truth from a direct reader whose cache holds the whole field,
  // so each block is decoded once.  One worker keeps its decoded blocks in
  // one malloc arena, which keeps peak RSS from depending on scheduling.
  s.expected.assign(s.regions.size() * kRegionValues, 0.0f);
  {
    sz14::archive::ArchiveReader direct(s.path, 1);
    direct.set_cache_capacity(2 * s.raw_bytes);
    for (std::size_t i = 0; i < s.regions.size(); ++i) {
      const std::vector<float> v = direct.read_region(kField, s.regions[i]);
      std::memcpy(s.expected.data() + i * kRegionValues, v.data(),
                  kRegionBytes);
    }
  }

  sz14::serve::ServerConfig cfg;
  cfg.transport = "loopback";
  cfg.endpoint = std::string("perfbench-") + spec.name + "-" +
                 std::to_string(attempt);
  cfg.threads = kPoolWorkers;
  cfg.cache_bytes = kServeCacheBytes;
  cfg.coalescing = true;
  s.server = std::make_unique<sz14::serve::Server>(s.path, cfg);
  s.server->start();
  for (std::size_t c = 0; c < kClients; ++c)
    s.clients.push_back(std::make_unique<sz14::serve::Client>(
        "loopback", s.server->endpoint()));

  // Warm-up: the hot set is swept once; the cold set is read at random
  // until the cache is (nearly) full.
  s.warmup.clear();
  const auto warm_read = [&](std::size_t i) {
    s.warmup.push_back(i);
    const std::vector<float> v =
        s.clients[0]->read_region(kField, s.regions[i]);
    result.check(v.size() == kRegionValues &&
                     std::memcmp(v.data(), &s.expected[i * kRegionValues],
                                 kRegionBytes) == 0,
                 "warm-up read differs from the direct read");
  };
  if (spec.in_block) {
    for (std::size_t i = 0; i < s.regions.size(); ++i) warm_read(i);
  } else {
    sz14::Rng pick(derive_seed(args.seed, 23));
    while (s.warmup.size() < s.regions.size() &&
           s.server->reader().cache_resident_bytes() <
               kServeCacheBytes * 9 / 10)
      warm_read(pick.below(s.regions.size()));
  }
}

struct Request {
  std::uint64_t start_ns = 0;
  std::size_t region = 0;
  std::uint64_t id = 0;
};

struct Phase {
  double seconds = 0.0;
  std::vector<double> latency_ms;  // +inf for a failed read
  std::vector<double> done_s;      // completion times from phase start
  std::vector<Request> requests;   // issue order across both clients
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

/// The closed loop: every client issues its next read when the previous
/// one has been answered and checked, until `seconds` have passed.
Phase run_clients(Setup& s, double seconds, std::uint64_t pick_seed,
                  std::uint64_t first_request) {
  std::vector<Phase> per(kClients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Phase& out = per[c];
        sz14::Rng rng(derive_seed(pick_seed, c));
        sz14::serve::Client& client = *s.clients[c];
        std::uint64_t id = first_request + (static_cast<std::uint64_t>(c) << 40);
        while (Clock::now() < deadline) {
          const std::size_t i = rng.below(s.regions.size());
          const auto t0 = Clock::now();
          bool ok = false;
          std::string why = "served read differs from the direct read";
          std::vector<float> v;
          try {
            trace::Span span("serve.read", id);
            v = client.read_region(kField, s.regions[i]);
            ok = true;
          } catch (const std::exception& e) {
            why = std::string("served read failed: ") + e.what();
          }
          const auto t1 = Clock::now();
          ok = ok && v.size() == kRegionValues &&
               std::memcmp(v.data(), &s.expected[i * kRegionValues],
                           kRegionBytes) == 0;
          ++out.attempted;
          if (!ok) {
            ++out.failed;
            if (out.failures.size() < 4) out.failures.push_back(why);
          }
          out.latency_ms.push_back(
              ok ? seconds_between(t0, t1) * 1e3
                 : std::numeric_limits<double>::infinity());
          out.done_s.push_back(seconds_between(start, t1));
          out.requests.push_back(Request{
              static_cast<std::uint64_t>((t0 - start).count()), i, id++});
        }
      });
    }
  }
  Phase all;
  all.seconds = seconds_between(start, Clock::now());
  for (auto& p : per) {
    all.latency_ms.insert(all.latency_ms.end(), p.latency_ms.begin(),
                          p.latency_ms.end());
    all.done_s.insert(all.done_s.end(), p.done_s.begin(), p.done_s.end());
    all.requests.insert(all.requests.end(), p.requests.begin(),
                        p.requests.end());
    all.attempted += p.attempted;
    all.failed += p.failed;
    all.failures.insert(all.failures.end(), p.failures.begin(),
                        p.failures.end());
  }
  std::sort(all.requests.begin(), all.requests.end(),
            [](const Request& a, const Request& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

void merge_checks(const Phase& p, Result& result) {
  result.attempted += p.attempted;
  result.failed += p.failed;
  for (const auto& f : p.failures)
    if (result.failures.size() < 16) result.failures.push_back(f);
}

/// Completed reads per second in each of 50 equal windows of the phase.
/// Hypervisor steal on a shared host stalls reads in bursts; the median
/// window keeps a burst from moving the whole run's figure.
std::vector<double> window_rates(const Phase& p) {
  constexpr int kWindows = 50;
  const double w = p.seconds / kWindows;
  std::vector<double> counts(kWindows, 0.0);
  for (const double t : p.done_s)
    counts[std::min(kWindows - 1, static_cast<int>(t / w))] += 1.0;
  for (double& c : counts) c /= w;
  return counts;
}

struct Replay {
  std::size_t reads = 0;
  std::size_t blocks_touched = 0;
  std::uint64_t decoded_bytes = 0;
  std::size_t symbols = 0;
  std::size_t predictable = 0;
  std::uint64_t payload_bytes = 0;
  std::vector<double> direct_ms;
};

/// Replays the traced request sequence on a direct ArchiveReader set up
/// like the server's.  Each read is timed whole (archive.read_region);
/// the blocks it would decode, found with a BlockCache of the same budget
/// and warm-up, are fetched, checksummed and decoded again one call at a
/// time, and the response body is encoded once more (serve.frame_encode).
Replay replay_reads(const Setup& s, const std::vector<Request>& requests,
                    double budget, Result& result) {
  namespace ar = sz14::archive;
  ar::ArchiveReader direct(s.path, kPoolWorkers);
  direct.set_cache_capacity(kServeCacheBytes);
  direct.set_coalescing(true);
  const ar::FieldEntry& fe = direct.field(kField);
  const ar::BlockGrid grid(fe.dims, fe.block_dims);
  const ar::CodecOps& ops = *ar::codec_by_id(fe.codec);
  sz14::CodecScratch scratch;
  sz14::ExecPolicy exec;
  exec.mode = exec.resolved_mode();
  exec.scratch = &scratch;
  ar::BlockCache shadow;
  shadow.set_capacity(kServeCacheBytes);

  const auto touched = [&](const Region& r) {
    std::vector<std::size_t> t;
    for (std::size_t b = 0; b < grid.block_count(); ++b)
      if (grid.intersects(b, r)) t.push_back(b);
    return t;
  };
  for (const std::size_t i : s.warmup) {
    (void)direct.read_region(kField, s.regions[i]);
    for (const std::size_t b : touched(s.regions[i]))
      if (!shadow.get<float>(0, b))
        shadow.put<float>(0, b,
                          std::make_shared<const std::vector<float>>(
                              grid.block_extents(b).count()));
  }

  Replay rp;
  std::vector<std::uint8_t> payload;
  std::vector<float> replayed;
  const auto start = Clock::now();
  for (const Request& q : requests) {
    if (rp.reads > 0 && seconds_between(start, Clock::now()) >= budget) break;
    const Region& region = s.regions[q.region];
    std::vector<float> v;
    const auto t0 = Clock::now();
    {
      trace::Span span("archive.read_region", q.id);
      v = direct.read_region(kField, region);
    }
    rp.direct_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    result.check(std::memcmp(v.data(), &s.expected[q.region * kRegionValues],
                             kRegionBytes) == 0,
                 "direct replay read differs from the ground truth");
    const std::vector<std::size_t> blocks = touched(region);
    rp.blocks_touched += blocks.size();
    for (const std::size_t b : blocks) {
      if (shadow.get<float>(0, b)) continue;
      const ar::BlockEntry& be = fe.blocks[b];
      payload.resize(be.size);
      {
        trace::Span span("archive.fetch", q.id);
        direct.source().read_at(be.offset, payload);
      }
      std::uint32_t crc = 0;
      {
        trace::Span span("archive.crc", q.id);
        crc = sz14::crc32(payload);
      }
      result.check(crc == be.crc, "replayed block failed its CRC");
      std::vector<float> decoded;
      {
        trace::Span span("archive.block_decode", q.id);
        decoded = ops.decompress32(payload, exec);
      }
      replayed.assign(decoded.size(), 0.0f);
      const DecodeReplay d =
          replay_decompress(payload, std::span<float>(replayed), q.id);
      result.check(std::memcmp(replayed.data(), decoded.data(),
                               decoded.size() * sizeof(float)) == 0,
                   "replayed block decode differs from the codec");
      rp.symbols += d.symbols;
      rp.predictable += d.predictable;
      rp.payload_bytes += d.payload_bytes;
      rp.decoded_bytes += decoded.size() * sizeof(float);
      shadow.put<float>(
          0, b, std::make_shared<const std::vector<float>>(std::move(decoded)));
    }
    sz14::serve::ReadResponse resp;
    resp.dtype = sz14::kDtypeF32;
    resp.shape = region.shape();
    resp.values.resize(kRegionBytes);
    std::memcpy(resp.values.data(), v.data(), kRegionBytes);
    {
      trace::Span span("serve.frame_encode", q.id);
      sz14::ByteWriter w;
      sz14::serve::encode_read_response(resp, w);
    }
    ++rp.reads;
  }
  return rp;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Result run_serve(const Args& args, bool cold) {
  const Spec& spec = cold ? kCold : kWarm;
  Result result;
  Setup s;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s.clients.clear();
    s.server.reset();
    s.expected = {};
    release_free_memory();
    const auto t0 = Clock::now();
    build_setup(spec, args, i, s, result);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  result.note("input_bytes", static_cast<double>(s.raw_bytes));
  result.note("archive_bytes", static_cast<double>(s.archive_bytes));
  result.note("regions", static_cast<double>(s.regions.size()));
  result.note("warmup_reads", static_cast<double>(s.warmup.size()));
  release_free_memory();

  if (!args.trace) {
    const sz14::serve::ServerStats before = s.server->stats();
    const Phase p = run_clients(s, args.seconds, derive_seed(args.seed, 30), 1);
    const sz14::serve::ServerStats after = s.server->stats();
    merge_checks(p, result);
    const std::vector<double> rates = window_rates(p);
    std::vector<double> mbps;
    for (const double r : rates) mbps.push_back(r * kRegionBytes / 1e6);
    result.note("reads_per_s", median(rates));
    result.note("cache_hit_rate",
                ratio(static_cast<double>(after.cache_hits - before.cache_hits),
                      static_cast<double>(after.cache_hits - before.cache_hits +
                                          after.cache_misses -
                                          before.cache_misses)));
    result.add("setup_s", "s", setups);
    result.add("op_p50_ms", "ms", p.latency_ms);
    result.note("throughput_mbps", median(mbps));
    result.note("op_p90_ms", quantile(p.latency_ms, 0.9));
    result.note("op_p99_ms", quantile(p.latency_ms, 0.99));
    result.add_value("compression_factor", "ratio",
                     static_cast<double>(s.raw_bytes) /
                         static_cast<double>(s.archive_bytes));
    result.add_value("peak_rss_mb", "MB", peak_rss_mb());
    s.clients.clear();
    s.server.reset();
    std::filesystem::remove(s.path);
    return result;
  }

  const sz14::serve::ServerStats before = s.server->stats();
  const Phase untraced =
      run_clients(s, 0.3 * args.seconds, derive_seed(args.seed, 31), 1);
  trace::set_enabled(true);
  const Phase traced =
      run_clients(s, 0.3 * args.seconds, derive_seed(args.seed, 32), 1);
  const sz14::serve::ServerStats after = s.server->stats();
  merge_checks(untraced, result);
  merge_checks(traced, result);
  result.spans = trace::take();
  const double served_p50 = median(traced.latency_ms);
  result.layers["trace.overhead_pct"] =
      100.0 * (served_p50 - median(untraced.latency_ms)) /
      median(untraced.latency_ms);
  const double reads = static_cast<double>(after.requests_ok -
                                           before.requests_ok);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  result.layers["archive.cache_hit_rate"] = ratio(hits, hits + misses);
  result.layers["archive.cache_evictions"] = ratio(
      static_cast<double>(after.cache_evictions - before.cache_evictions),
      reads);
  result.layers["archive.coalesced_reads"] = ratio(
      static_cast<double>(after.coalesced_reads - before.coalesced_reads),
      reads);
  result.layers["serve.bytes_out_per_read"] =
      ratio(static_cast<double>(after.bytes_out - before.bytes_out), reads);

  const Replay rp = replay_reads(s, traced.requests, 0.3 * args.seconds,
                                 result);
  const std::vector<trace::SpanRecord> spans = trace::take();
  trace::set_enabled(false);
  const double n = static_cast<double>(rp.reads);
  result.layers["archive.fetch_s"] = trace::per_op(spans, "archive.fetch", n);
  result.layers["archive.crc_s"] = trace::per_op(spans, "archive.crc", n);
  result.layers["archive.block_decode_s"] =
      trace::per_op(spans, "archive.block_decode", n);
  result.layers["encoding.decode_s"] =
      trace::per_op(spans, "encoding.decode", n);
  result.layers["core.recon_walk_s"] =
      trace::per_op(spans, "core.recon_walk", n);
  result.layers["serve.frame_encode_s"] =
      trace::per_op(spans, "serve.frame_encode", n);
  result.layers["archive.blocks_per_read"] =
      ratio(static_cast<double>(rp.blocks_touched), n);
  result.layers["archive.decoded_bytes_per_returned_byte"] =
      ratio(static_cast<double>(rp.decoded_bytes), n * kRegionBytes);
  result.layers["core.hit_rate"] = ratio(static_cast<double>(rp.predictable),
                                         static_cast<double>(rp.symbols));
  result.layers["encoding.bits_per_code"] =
      ratio(8.0 * static_cast<double>(rp.payload_bytes),
            static_cast<double>(rp.symbols));
  result.layers["serve.overhead_ms"] = served_p50 - median(rp.direct_ms);
  result.spans.insert(result.spans.end(), spans.begin(), spans.end());
  s.clients.clear();
  s.server.reset();
  std::filesystem::remove(s.path);
  return result;
}

}  // namespace perfbench
