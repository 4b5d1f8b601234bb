// Read-only file with positional (offset-addressed) reads: every read_at()
// names its own absolute offset, so there is no shared cursor to race on —
// one open handle serves any number of concurrent readers.  POSIX builds
// use pread(2) on a single descriptor; the portable fallback keeps one
// std::ifstream behind a mutex (correct, merely serialized).
//
// This is what lets ArchiveReader::read_region() be const and thread-safe:
// the old shared-ifstream path interleaved seekg/read pairs from different
// threads, which is a data race on the stream state AND silently pairs one
// thread's seek with another's read.
//
// Every read copies into a caller-owned span; ArchiveReader stages block
// payloads through its per-worker arena, so there is exactly one way a
// payload byte reaches the decoder.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#if defined(_WIN32)
#include <fstream>
#include <mutex>
#endif

namespace sz14 {

class PreadFile {
 public:
  /// Opens `path` and captures its size.  Throws std::runtime_error when
  /// the file cannot be opened or its size cannot be determined.
  explicit PreadFile(const std::string& path);
  ~PreadFile();

  PreadFile(const PreadFile&) = delete;
  PreadFile& operator=(const PreadFile&) = delete;

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Fill `out` completely from absolute offset `offset`.  Throws
  /// std::runtime_error on I/O failure or short read (reading past EOF is
  /// a short read, not silence).  Safe from any number of threads.
  void read_at(std::uint64_t offset, std::span<std::uint8_t> out) const;

 private:
  std::string path_;
  std::uint64_t size_ = 0;
#if defined(_WIN32)
  mutable std::mutex mutex_;  // the fallback stream has a shared cursor
  mutable std::ifstream in_;
#else
  int fd_ = -1;
#endif
};

}  // namespace sz14
