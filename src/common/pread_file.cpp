#include "common/pread_file.hpp"

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "common/failpoint.hpp"

#if defined(_WIN32)
#include <ios>
#else
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace sz14 {
namespace {

/// Failpoint site "pread_file.read": every positional read in the process
/// funnels through here, so tests can inject EIO (error), truncated-file
/// short reads (short), or slow storage (stall) under every reader —
/// archive block fetches included — without touching a real disk.
/// Enacted locally (not via fail::trigger) so injected failures carry the
/// same path + offset attribution real ones do.
void maybe_inject_read_fault(const std::string& path, std::uint64_t offset) {
  if (const auto f = fail::check("pread_file.read")) {
    switch (f->kind) {
      case fail::Kind::kShort:
        throw std::runtime_error("short read (truncated file?): " + path +
                                 " at offset " + std::to_string(offset) +
                                 " (failpoint)");
      case fail::Kind::kError:
      case fail::Kind::kEnospc:
        throw std::runtime_error("read failed: " + path + " at offset " +
                                 std::to_string(offset) +
                                 " (injected I/O error, failpoint)");
      case fail::Kind::kStall:
        std::this_thread::sleep_for(std::chrono::milliseconds(f->arg));
        break;
      case fail::Kind::kAbort:
        std::_Exit(fail::kAbortExitCode);
      default:
        break;  // torn/drop are write-side kinds; ignore on a read site
    }
  }
}

}  // namespace

#if defined(_WIN32)

PreadFile::PreadFile(const std::string& path)
    : path_(path), in_(path, std::ios::binary | std::ios::ate) {
  if (!in_) throw std::runtime_error("cannot open: " + path);
  size_ = static_cast<std::uint64_t>(in_.tellg());
}

PreadFile::~PreadFile() = default;

void PreadFile::read_at(std::uint64_t offset,
                        std::span<std::uint8_t> out) const {
  maybe_inject_read_fault(path_, offset);
  std::lock_guard lock(mutex_);
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(offset));
  in_.read(reinterpret_cast<char*>(out.data()),
           static_cast<std::streamsize>(out.size()));
  if (!in_ ||
      in_.gcount() != static_cast<std::streamsize>(out.size()))
    throw std::runtime_error("read failed: " + path_ + " at offset " +
                             std::to_string(offset));
}

#else

PreadFile::PreadFile(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0)
    throw std::runtime_error("cannot open: " + path + " (" +
                             std::strerror(errno) + ")");
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("cannot stat: " + path + " (" +
                             std::strerror(err) + ")");
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
}

PreadFile::~PreadFile() {
  if (fd_ >= 0) ::close(fd_);
}

void PreadFile::read_at(std::uint64_t offset,
                        std::span<std::uint8_t> out) const {
  maybe_inject_read_fault(path_, offset);
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n =
        ::pread(fd_, out.data() + done, out.size() - done,
                static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;  // retry interrupted reads, not fail
      throw std::runtime_error("read failed: " + path_ + " at offset " +
                               std::to_string(offset + done) + " (" +
                               std::strerror(errno) + ")");
    }
    if (n == 0)  // EOF before the span was filled
      throw std::runtime_error("short read (truncated file?): " + path_ +
                               " at offset " + std::to_string(offset + done));
    done += static_cast<std::size_t>(n);
  }
}

#endif

}  // namespace sz14
