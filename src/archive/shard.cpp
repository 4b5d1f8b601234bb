#include "archive/shard.hpp"

#include "archive/archive_format.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

namespace sz14::archive {

std::string shard_table_name(const std::string& manifest_path,
                             std::size_t index) {
  char suffix[16];
  std::snprintf(suffix, sizeof suffix, ".s%04zu", index);
  return std::filesystem::path(manifest_path).filename().string() + suffix;
}

std::string shard_file_name(const std::string& manifest_path,
                            std::size_t index) {
  const std::filesystem::path p(manifest_path);
  return (p.parent_path() / shard_table_name(manifest_path, index)).string();
}

void write_manifest_superblock(ByteWriter& out, std::uint8_t flags) {
  out.put<std::uint32_t>(kManifestMagic);
  out.put<std::uint8_t>(kManifestVersion);
  out.put<std::uint8_t>(flags);
  out.put<std::uint16_t>(0);  // reserved
}

std::uint8_t read_manifest_superblock(ByteReader& in) {
  if (in.get<std::uint32_t>() != kManifestMagic)
    throw std::runtime_error("archive: bad magic (not an SZM manifest)");
  const auto version = in.get<std::uint8_t>();
  if (version != kManifestVersion)
    throw std::runtime_error("archive: unsupported manifest version " +
                             std::to_string(version));
  const auto flags = in.get<std::uint8_t>();
  if (flags & ~kFlagParity)
    throw std::runtime_error("archive: unknown manifest flags " +
                             std::to_string(flags));
  (void)in.get<std::uint16_t>();  // reserved
  return flags;
}

void write_shard_header(ByteWriter& out, std::uint32_t index) {
  out.put<std::uint32_t>(kShardMagic);
  out.put<std::uint8_t>(kShardVersion);
  out.put<std::uint8_t>(0);
  out.put<std::uint16_t>(0);
  out.put<std::uint32_t>(index);
  out.put<std::uint32_t>(0);  // reserved
}

void read_shard_header(ByteReader& in, std::uint32_t expect) {
  if (in.get<std::uint32_t>() != kShardMagic)
    throw std::runtime_error("archive: bad shard magic (not an SZS shard)");
  const auto version = in.get<std::uint8_t>();
  if (version != kShardVersion)
    throw std::runtime_error("archive: unsupported shard version " +
                             std::to_string(version));
  (void)in.get<std::uint8_t>();
  (void)in.get<std::uint16_t>();
  const auto index = in.get<std::uint32_t>();
  if (index != expect)
    throw std::runtime_error("archive: shard claims index " +
                             std::to_string(index) + ", manifest expects " +
                             std::to_string(expect) +
                             " (shard file renamed or swapped?)");
  (void)in.get<std::uint32_t>();
}

void write_shard_table(const std::vector<ShardEntry>& shards,
                       ByteWriter& out) {
  out.put_varint(shards.size());
  for (const auto& s : shards) {
    out.put_string(s.file);
    out.put_varint(s.size);
    out.put<std::uint32_t>(s.crc);
  }
}

std::vector<ShardEntry> read_shard_table(ByteReader& in) {
  const auto n = static_cast<std::size_t>(in.get_varint());
  std::vector<ShardEntry> shards;
  shards.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ShardEntry s;
    s.file = in.get_string();
    if (s.file.empty())
      throw std::runtime_error("archive: empty shard file name in manifest");
    // Names are resolved against the manifest's directory; a separator
    // would let a hostile manifest reach outside it.
    if (s.file.find('/') != std::string::npos ||
        s.file.find('\\') != std::string::npos)
      throw std::runtime_error(
          "archive: shard file name must be directory-free: " + s.file);
    s.size = in.get_varint();
    s.crc = in.get<std::uint32_t>();
    shards.push_back(std::move(s));
  }
  return shards;
}

void ShardSet::open_single(const std::string& path) {
  parts_.clear();
  sharded_ = false;
  Part p;
  p.file = std::make_unique<PreadFile>(path);
  p.info.path = path;
  p.info.logical_start = 0;
  p.info.header = 0;  // logical offsets ARE absolute file offsets
  p.info.size = p.file->size();
  p.info.file_bytes = p.file->size();
  logical_size_ = p.info.size;
  parts_.push_back(std::move(p));
}

void ShardSet::open_shards(const std::string& manifest_path,
                           const std::vector<ShardEntry>& shards) {
  std::vector<Part> parts;
  parts.reserve(shards.size());
  std::uint64_t logical = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const auto& s = shards[i];
    Part p;
    p.info.path =
        (std::filesystem::path(manifest_path).parent_path() / s.file)
            .string();
    p.file = std::make_unique<PreadFile>(p.info.path);
    if (p.file->size() < kShardHeaderSize + s.size)
      throw std::runtime_error(
          "archive: shard " + p.info.path + " holds " +
          std::to_string(p.file->size()) + " bytes, manifest expects " +
          std::to_string(kShardHeaderSize + s.size));
    std::array<std::uint8_t, kShardHeaderSize> hdr{};
    p.file->read_at(0, hdr);
    ByteReader hr(hdr);
    read_shard_header(hr, static_cast<std::uint32_t>(i));
    p.info.logical_start = logical;
    p.info.header = kShardHeaderSize;
    p.info.size = s.size;
    p.info.file_bytes = p.file->size();
    p.info.crc = s.crc;
    logical += s.size;
    parts.push_back(std::move(p));
  }
  parts_ = std::move(parts);
  logical_size_ = logical;
  sharded_ = true;
}

const ShardSet::Part& ShardSet::part_at(std::uint64_t offset) const {
  // Last part whose logical_start <= offset.
  auto it = std::upper_bound(
      parts_.begin(), parts_.end(), offset,
      [](std::uint64_t off, const Part& p) { return off < p.info.logical_start; });
  if (it == parts_.begin())
    throw std::runtime_error("archive: logical offset " +
                             std::to_string(offset) + " before first shard");
  return *std::prev(it);
}

void ShardSet::read_at(std::uint64_t offset,
                       std::span<std::uint8_t> out) const {
  std::uint64_t pos = offset;
  std::size_t done = 0;
  while (done < out.size()) {
    if (pos >= logical_size_)
      throw std::runtime_error(
          "archive: read past end of payload space (logical offset " +
          std::to_string(pos) + " of " + std::to_string(logical_size_) + ")");
    const Part& p = part_at(pos);
    const std::uint64_t local = pos - p.info.logical_start;
    const std::uint64_t avail = p.info.size - local;
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(avail, out.size() - done));
    p.file->read_at(p.info.header + local, out.subspan(done, take));
    pos += take;
    done += take;
  }
}

ShardSet::Location ShardSet::locate(std::uint64_t offset) const {
  if (offset >= logical_size_)
    throw std::runtime_error("archive: logical offset " +
                             std::to_string(offset) +
                             " past end of payload space");
  const Part& p = part_at(offset);
  const std::uint64_t local = offset - p.info.logical_start;
  Location loc;
  loc.part = static_cast<std::size_t>(&p - parts_.data());
  loc.path = p.info.path;
  loc.offset = p.info.header + local;
  loc.available = p.info.size - local;
  return loc;
}

}  // namespace sz14::archive
