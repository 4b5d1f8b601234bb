// Bounded LRU cache of DECODED blocks for the archive serving path, keyed
// by (field index, block index).  A hot-region read that hits skips the
// pread, the CRC pass, and the whole entropy+reconstruction decode — the
// scatter copies straight out of the cached vector.
//
// Thread-safety: one mutex guards the recency list + index map; the cached
// vectors themselves are immutable and handed out as shared_ptr<const ...>,
// so readers scatter from them without holding the lock, and eviction can
// never free a block another thread is still copying from.
//
// Capacity is in decoded BYTES.  Capacity 0 (the default) disables the
// cache outright: get() always misses and put() is a no-op, so a reader
// that never opts in pays one branch per block and nothing else.  An entry
// larger than the whole capacity is never admitted.
//
// An entry may hold only a corner of a block: its leading box [0, c_a) on
// every axis (the reader decodes just the box a read needs when a whole
// block would not fit without evicting).  Each entry keeps its shape.  The
// shape-taking get() hits only when the entry covers the needed corner on
// EVERY axis — otherwise it counts a miss and the caller's decode replaces
// it — and put() never replaces an entry that covers the newcomer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/dims.hpp"

namespace sz14::archive {

/// Does a corner shaped `have` contain the corner `need` (same rank, at
/// least as long on every axis)?
[[nodiscard]] bool covers(const Dims& have, const Dims& need) noexcept;

/// A resident entry: `values` row-major in `shape`, the leading box of its
/// block.  Null `values` is a miss.
template <typename T>
struct CachedBlock {
  std::shared_ptr<const std::vector<T>> values;
  Dims shape;
  explicit operator bool() const noexcept { return values != nullptr; }
};

class BlockCache {
 public:
  /// Resize the budget; shrinking evicts LRU-first until resident bytes
  /// fit.  Safe to call concurrently with get()/put().
  void set_capacity(std::size_t bytes);

  [[nodiscard]] std::size_t capacity() const noexcept {
    return capacity_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept { return capacity() > 0; }

  /// Decoded bytes currently resident.
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// Could an entry of `bytes` be admitted now without evicting anything?
  /// (false when disabled; a snapshot — concurrent puts may change it).
  [[nodiscard]] bool has_room(std::size_t bytes) const noexcept {
    const std::size_t cap = capacity();
    const std::size_t used = resident_bytes();
    return cap > 0 && used <= cap && bytes <= cap - used;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  void reset_stats() noexcept {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
  }

  /// Lookup of whatever is resident; null on miss.  The element type is
  /// pinned per field (the reader validates dtype before decoding), and a
  /// stored-type mismatch is treated as a miss rather than a cast.
  template <typename T>
  [[nodiscard]] std::shared_ptr<const std::vector<T>> get(std::size_t field,
                                                          std::size_t block) {
    return get<T>(field, block, Dims()).values;
  }

  /// Lookup that hits only when the entry covers the corner `need` on every
  /// axis (an empty `need` takes any entry); anything else counts a miss.
  template <typename T>
  [[nodiscard]] CachedBlock<T> get(std::size_t field, std::size_t block,
                                   const Dims& need) {
    CachedBlock<T> hit;
    hit.values = std::static_pointer_cast<const std::vector<T>>(
        get_erased(field, block, sizeof(T), need, hit.shape));
    return hit;
  }

  /// Insert (or refresh) a decoded corner of a block, `data` row-major in
  /// `shape`.  No-op when disabled or when the entry alone exceeds the
  /// capacity; when the resident entry for the block covers `shape`, it
  /// stays and only its recency is refreshed.
  template <typename T>
  void put(std::size_t field, std::size_t block,
           std::shared_ptr<const std::vector<T>> data, const Dims& shape) {
    const std::size_t bytes = data->size() * sizeof(T);
    put_erased(field, block, sizeof(T),
               std::static_pointer_cast<const void>(std::move(data)), bytes,
               shape);
  }

  /// put() of a flat run of values (a rank-1 shape of its length).
  template <typename T>
  void put(std::size_t field, std::size_t block,
           std::shared_ptr<const std::vector<T>> data) {
    const Dims flat{data->size()};
    put<T>(field, block, std::move(data), flat);
  }

  /// Drop every entry (stats are kept; use reset_stats() for those).
  void clear();

 private:
  struct Key {
    std::size_t field;
    std::size_t block;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      // Fibonacci-mix the field id so (f, b) and (b, f) don't collide.
      return k.field * 0x9E3779B97F4A7C15ull ^ k.block;
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const void> data;
    std::size_t bytes;
    std::size_t elem_size;
    Dims shape;
  };

  /// On a hit, `shape` receives the entry's shape.
  [[nodiscard]] std::shared_ptr<const void> get_erased(std::size_t field,
                                                       std::size_t block,
                                                       std::size_t elem_size,
                                                       const Dims& need,
                                                       Dims& shape);
  void put_erased(std::size_t field, std::size_t block, std::size_t elem_size,
                  std::shared_ptr<const void> data, std::size_t bytes,
                  const Dims& shape);

  /// Drop LRU entries until resident bytes fit `budget`.  Caller holds
  /// mutex_; freed vectors are moved into `graveyard` so their (possibly
  /// large) deallocation happens after the lock is released.
  void evict_to(std::size_t budget,
                std::vector<std::shared_ptr<const void>>& graveyard);

  std::mutex mutex_;                // guards lru_ + map_
  std::list<Entry> lru_;            // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
  std::atomic<std::size_t> capacity_{0};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace sz14::archive
