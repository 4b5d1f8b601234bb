// Sharded archive container: one small manifest file (`.szm`) indexing N
// shard files that together hold the payload bytes of what a single-file
// `.sza` would store.  The manifest is the crash-consistency anchor — it
// carries the superblock, a shard table (per-shard payload byte count and
// running CRC-32), the regular field footer, and the same self-delimiting
// checkpoint trailer discipline as the single-file format, so
// salvage-open, fsck and scrub work unchanged in spirit:
//
//   manifest (.szm):
//     [superblock: magic "SZM1" u32 | version u8 | flags u8 | reserved u16]
//     [checkpoint: shard table || field footer]  (appended per field)
//     [trailer: footer_size u64 | crc32 u32 | magic "SZMF" u32]
//     ... newer checkpoints appended behind older ones; the one whose
//     trailer ends at EOF wins, salvage scans backward for "SZMF" ...
//
//   shard table (inside each checkpoint, before the field footer):
//     shard_count varint | per shard: file-name string | payload varint |
//     crc32 u32
//
//   shard file (manifest name + ".s####"):
//     [header: magic "SZS1" u32 | version u8 | pad u8[3] | index u32 |
//      reserved u32]                                            16 bytes
//     [payload bytes ...]
//
// Block index offsets in a sharded archive are LOGICAL: the address space
// is the concatenation of every shard's payload region (header excluded),
// starting at 0 in shard table order.  The writer never splits one payload
// across a shard boundary, so a block always lives in exactly one shard —
// but ShardSet::read_at() supports spanning reads anyway, defensively.
//
// ShardSet is the one payload-access abstraction the reader, parity
// read-repair, fsck and scrub all share: it hides whether the archive is
// a single `.sza` (a degenerate one-part set whose logical offsets ARE
// absolute file offsets) or a manifest + N shards.  Every part is a
// PreadFile; read_at() copies payload bytes into the caller's buffer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytebuffer.hpp"
#include "common/pread_file.hpp"

namespace sz14::archive {

inline constexpr std::uint32_t kManifestMagic = 0x31'4D'5A'53u;  // "SZM1"
inline constexpr std::uint32_t kManifestFooterMagic =
    0x46'4D'5A'53u;                                              // "SZMF"
inline constexpr std::uint32_t kShardMagic = 0x31'53'5A'53u;     // "SZS1"
inline constexpr std::uint8_t kManifestVersion = 1;
inline constexpr std::uint8_t kShardVersion = 1;
inline constexpr std::size_t kShardHeaderSize = 16;

/// One shard in the manifest's table.  `file` is the shard's file name
/// relative to the manifest's directory (shards move with their manifest);
/// `size` counts payload bytes only (the fixed header is excluded);
/// `crc` is the running CRC-32 of those payload bytes.
struct ShardEntry {
  std::string file;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

/// File name of shard `index` for manifest `manifest_path` (same
/// directory, manifest file name + ".s####").
[[nodiscard]] std::string shard_file_name(const std::string& manifest_path,
                                          std::size_t index);

/// The name as stored in the manifest (no directory component).
[[nodiscard]] std::string shard_table_name(const std::string& manifest_path,
                                           std::size_t index);

void write_manifest_superblock(ByteWriter& out, std::uint8_t flags = 0);

/// Returns the manifest flags byte (same flag space as the single-file
/// superblock — kFlagParity etc).  Throws std::runtime_error on bad
/// magic, unsupported version, or unknown flag bits.
std::uint8_t read_manifest_superblock(ByteReader& in);

void write_shard_header(ByteWriter& out, std::uint32_t index);

/// Validates magic/version and that the stored index equals `expect`.
/// Throws std::runtime_error on any mismatch (a shard renamed into the
/// wrong slot must not be silently served).
void read_shard_header(ByteReader& in, std::uint32_t expect);

void write_shard_table(const std::vector<ShardEntry>& shards,
                       ByteWriter& out);

/// Throws std::runtime_error on malformed input (empty or
/// path-qualified file names, absurd counts).
[[nodiscard]] std::vector<ShardEntry> read_shard_table(ByteReader& in);

/// Payload byte source shared by the reader, parity repair, fsck and
/// scrub: a logical address space over one single-file archive or a
/// manifest's shard files.  Thread-safe for reads after open (the parts
/// are immutable PreadFiles).
class ShardSet {
 public:
  ShardSet() = default;
  ShardSet(ShardSet&&) = default;
  ShardSet& operator=(ShardSet&&) = default;

  /// Degenerate single-file archive: logical offsets are absolute file
  /// offsets (the `.sza` block index already stores absolute offsets).
  void open_single(const std::string& path);

  /// Manifest mode: opens every shard named by `shards` relative to
  /// `manifest_path`'s directory, validating each header and that the
  /// file holds at least the recorded payload bytes.  Throws
  /// std::runtime_error when a shard is missing, misnumbered, or shorter
  /// than the checkpoint says — the caller treats that as an invalid
  /// checkpoint and salvages an earlier one.
  void open_shards(const std::string& manifest_path,
                   const std::vector<ShardEntry>& shards);

  [[nodiscard]] bool opened() const noexcept { return !parts_.empty(); }
  [[nodiscard]] bool sharded() const noexcept { return sharded_; }

  /// One past the highest addressable logical offset.
  [[nodiscard]] std::uint64_t logical_size() const noexcept {
    return logical_size_;
  }

  /// Fill `out` from logical offset `offset`, crossing part boundaries
  /// if needed.  Throws std::runtime_error past logical_size() or on I/O
  /// failure, naming the shard file and offset.
  void read_at(std::uint64_t offset, std::span<std::uint8_t> out) const;

  /// Where logical offset `offset` lives on disk — for heal rewrites and
  /// error attribution.  Throws std::runtime_error past logical_size().
  struct Location {
    std::size_t part = 0;        ///< part index (0 for single-file)
    std::string path;            ///< file holding the byte
    std::uint64_t offset = 0;    ///< offset within that file
    std::uint64_t available = 0; ///< contiguous bytes in this part from here
  };
  [[nodiscard]] Location locate(std::uint64_t offset) const;

  /// Per-part on-disk facts for fsck/ls/stat.
  struct PartInfo {
    std::string path;              ///< resolved file path
    std::uint64_t logical_start = 0;
    std::uint64_t header = 0;      ///< bytes before the payload region
    std::uint64_t size = 0;        ///< payload bytes per the checkpoint
    std::uint64_t file_bytes = 0;  ///< actual file size at open
    std::uint32_t crc = 0;         ///< checkpoint's running payload CRC
  };
  [[nodiscard]] std::size_t part_count() const noexcept {
    return parts_.size();
  }
  [[nodiscard]] const PartInfo& part(std::size_t i) const {
    return parts_[i].info;
  }

 private:
  struct Part {
    std::unique_ptr<PreadFile> file;
    PartInfo info;
  };
  /// Part containing logical `offset` (parts are sorted by logical_start).
  [[nodiscard]] const Part& part_at(std::uint64_t offset) const;

  std::vector<Part> parts_;
  std::uint64_t logical_size_ = 0;
  bool sharded_ = false;
};

}  // namespace sz14::archive
