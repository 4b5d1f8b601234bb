// archive-ingest: the same codec used at block granularity.  An
// ArchiveWriter with one worker per core (the `archive create` default)
// appends three hurricane3d variables and one climate2d field in 64-per-axis
// blocks and seals the archive.  parallel and the archive writer show here
// and nowhere else.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <future>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "archive/blocking.hpp"
#include "archive/codec.hpp"
#include "archive/reader.hpp"
#include "archive/writer.hpp"
#include "bench.hpp"
#include "core/compressor.hpp"
#include "data/generators.hpp"
#include "replay.hpp"

namespace perfbench {
namespace {

using sz14::Dims;

struct Inputs {
  std::vector<sz14::data::Field> fields;
  std::vector<std::string> names;
  std::vector<double> ebs;  // eb_rel resolved against each field
  std::size_t raw_bytes = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  namespace data = sz14::data;
  std::vector<std::future<data::Field>> parts;
  for (unsigned v = 0; v < 3; ++v)
    parts.push_back(std::async(std::launch::async, [seed, v] {
      return data::hurricane3d(100, 500, 500, derive_seed(seed, 11 + v), v);
    }));
  parts.push_back(std::async(std::launch::async, [seed] {
    return data::climate2d(1800, 3600, derive_seed(seed, 14));
  }));
  Inputs in;
  for (auto& p : parts) in.fields.push_back(p.get());
  in.names = {"wind", "pressure", "moisture", "atm"};
  sz14::Options rel;
  rel.eb_rel = kEbRel;
  for (const auto& f : in.fields) {
    in.ebs.push_back(sz14::resolve_error_bound_for(
        std::span<const float>(f.values), rel));
    in.raw_bytes += f.values.size() * sizeof(float);
  }
  return in;
}

/// `archive create`'s default block: 64 per axis, clipped to the field.
Dims default_block(const Dims& dims) {
  std::vector<std::size_t> ext;
  for (std::size_t a = 0; a < dims.rank(); ++a)
    ext.push_back(std::min<std::size_t>(64, dims.extent(a)));
  return Dims(std::span<const std::size_t>(ext));
}

struct Ingest {
  double seconds = 0.0;  // first append_field() until finish() returns
  bool ok = false;
};

/// Build one sealed archive at `path`, then reopen it in kStrict mode.
Ingest ingest_once(const Inputs& in, const std::string& path,
                   std::size_t workers, std::uint64_t request,
                   Result& result) {
  Ingest r;
  try {
    sz14::archive::ArchiveWriter writer(path, workers);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < in.fields.size(); ++i) {
      const auto& f = in.fields[i];
      trace::Span s("archive.append", request);
      writer.append_field(in.names[i], std::span<const float>(f.values),
                          f.dims, default_block(f.dims), "sz14", in.ebs[i]);
    }
    {
      trace::Span s("archive.finish", request);
      writer.finish();
    }
    r.seconds = seconds_between(t0, Clock::now());
    const sz14::archive::ArchiveReader reopened(path, 1);
    r.ok = reopened.fields().size() == in.fields.size();
    result.check(r.ok, "sealed archive reopened with the wrong field count");
  } catch (const std::exception& e) {
    result.check(false, std::string("ingest: ") + e.what());
  }
  return r;
}

std::vector<Ingest> ingest_for(const Inputs& in, const std::string& path,
                               std::size_t workers, double budget,
                               int min_ops, std::uint64_t& request,
                               Result& result) {
  std::vector<Ingest> ops;
  const auto start = Clock::now();
  while (static_cast<int>(ops.size()) < min_ops ||
         seconds_between(start, Clock::now()) < budget)
    ops.push_back(ingest_once(in, path, workers, request++, result));
  return ops;
}

double median_seconds(const std::vector<Ingest>& ops) {
  std::vector<double> s;
  for (const auto& o : ops) s.push_back(o.seconds);
  return median(s);
}

/// Every field of the sealed archive must round-trip within its bound.
void verify_archive(const Inputs& in, const std::string& path,
                    std::size_t workers, Result& result) {
  const sz14::archive::ArchiveReader reader(path, workers);
  for (std::size_t i = 0; i < in.fields.size(); ++i) {
    const std::vector<float> back = reader.read_field(in.names[i]);
    result.check(within_bound(in.fields[i].values, back, in.ebs[i]),
                 in.names[i] + ": archive round trip exceeds the bound");
  }
}

/// Single-thread replay of the writer's block work: every block is
/// gathered as the writer does, compressed through the codec table
/// (parallel.block_compress) and then stage by stage; the stage replay
/// must rebuild each block stream byte for byte.
void replay_blocks(const Inputs& in, std::uint64_t request, Result& result) {
  const sz14::archive::CodecOps& ops = *sz14::archive::codec_by_name("sz14");
  sz14::CodecScratch scratch;
  sz14::ExecPolicy exec;
  exec.mode = exec.resolved_mode();
  exec.scratch = &scratch;
  std::size_t symbols = 0, predictable = 0, mismatched = 0;
  std::uint64_t payload_bytes = 0;
  std::vector<float> block;
  for (std::size_t i = 0; i < in.fields.size(); ++i) {
    const auto& f = in.fields[i];
    const sz14::archive::BlockGrid grid(f.dims, default_block(f.dims));
    const std::size_t rank = f.dims.rank();
    for (std::size_t b = 0; b < grid.block_count(); ++b) {
      std::array<std::size_t, sz14::kMaxDims> origin{};
      std::array<std::size_t, sz14::kMaxDims> zero{};
      grid.block_origin(b, origin);
      const Dims bd = grid.block_extents(b);
      std::array<std::size_t, sz14::kMaxDims> ext{};
      for (std::size_t a = 0; a < rank; ++a) ext[a] = bd.extent(a);
      block.resize(bd.count());
      sz14::archive::copy_subcuboid(
          f.values.data(), f.dims,
          std::span<const std::size_t>(origin.data(), rank), block.data(), bd,
          std::span<const std::size_t>(zero.data(), rank),
          std::span<const std::size_t>(ext.data(), rank));
      std::vector<std::uint8_t> stream;
      {
        trace::Span s("parallel.block_compress", request);
        stream = ops.compress32(block, bd, in.ebs[i], exec);
      }
      sz14::Options opts;
      opts.eb_abs = in.ebs[i];
      const EncodeReplay enc = replay_compress(block, bd, opts, request);
      if (enc.stream != stream) ++mismatched;
      symbols += enc.symbols;
      predictable += enc.predictable;
      payload_bytes += enc.payload_bytes;
    }
  }
  result.check(mismatched == 0, "replayed block streams differ from the codec");
  result.layers["core.hit_rate"] =
      static_cast<double>(predictable) / static_cast<double>(symbols);
  result.layers["encoding.bits_per_code"] =
      8.0 * static_cast<double>(payload_bytes) / static_cast<double>(symbols);
}

}  // namespace

Result run_archive_ingest(const Args& args) {
  Result result;
  const std::size_t workers =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::string path = args.work_dir + "/ingest.sza";
  std::uint64_t request = 1;
  Inputs in;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    in = Inputs{};
    release_free_memory();
    const auto t0 = Clock::now();
    in = make_inputs(args.seed);
    // Warm-up: one untimed ingest (pool start, allocator, page cache).
    (void)ingest_once(in, path, workers, request++, result);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  result.note("input_bytes", static_cast<double>(in.raw_bytes));
  result.note("workers", static_cast<double>(workers));
  release_free_memory();

  if (!args.trace) {
    const std::vector<Ingest> ops =
        ingest_for(in, path, workers, args.seconds, 3, request, result);
    std::vector<double> mbps, op_ms;
    for (const auto& o : ops) {
      if (!o.ok) {
        op_ms.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      mbps.push_back(static_cast<double>(in.raw_bytes) / 1e6 / o.seconds);
      op_ms.push_back(o.seconds * 1e3);
    }
    const double archive_bytes =
        static_cast<double>(std::filesystem::file_size(path));
    verify_archive(in, path, workers, result);
    result.add("setup_s", "s", setups);
    result.add("op_p50_ms", "ms", op_ms);
    result.note("throughput_mbps", median(mbps));
    result.note("op_p90_ms", quantile(op_ms, 0.9));
    result.note("op_p99_ms", quantile(op_ms, 0.99));
    result.add_value("compression_factor", "ratio",
                     static_cast<double>(in.raw_bytes) / archive_bytes);
    result.add_value("peak_rss_mb", "MB", peak_rss_mb());
    std::filesystem::remove(path);
    return result;
  }

  const double untraced = median_seconds(
      ingest_for(in, path, workers, 0.25 * args.seconds, 2, request, result));
  trace::set_enabled(true);
  const std::vector<Ingest> traced_ops =
      ingest_for(in, path, workers, 0.25 * args.seconds, 2, request, result);
  const double traced = median_seconds(traced_ops);
  std::vector<trace::SpanRecord> spans = trace::take();
  const double n_ops = static_cast<double>(traced_ops.size());
  const double append_s = trace::per_op(spans, "archive.append", n_ops);
  result.layers["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced;
  result.layers["archive.append_s"] = append_s;
  result.layers["archive.finish_s"] =
      trace::per_op(spans, "archive.finish", n_ops);
  result.layers["archive.bytes_written"] =
      static_cast<double>(std::filesystem::file_size(path));
  result.spans = std::move(spans);

  replay_blocks(in, request, result);
  spans = trace::take();
  trace::set_enabled(false);
  const double block_compress =
      trace::total(spans, "parallel.block_compress").seconds;
  result.layers["parallel.pool_efficiency"] =
      block_compress / (static_cast<double>(workers) * append_s);
  double stages = 0.0;
  for (const char* name :
       {"core.range_scan", "core.pq_walk", "encoding.histogram",
        "encoding.table_build", "encoding.emit"}) {
    const double s = trace::total(spans, name).seconds;
    stages += s;
    result.layers[std::string(name) + "_s"] = s;  // one archive = one op
  }
  const double gap = 100.0 * std::abs(stages - block_compress) /
                     block_compress;
  result.layers["trace.layer_gap_pct"] = gap;
  result.check(gap <= kLayerGapTolerancePct,
               "replayed block stages do not add up to the codec time");
  result.spans.insert(result.spans.end(), spans.begin(), spans.end());
  std::filesystem::remove(path);
  return result;
}

}  // namespace perfbench
