#include "archive/block_cache.hpp"

namespace sz14::archive {

bool covers(const Dims& have, const Dims& need) noexcept {
  if (have.rank() != need.rank()) return false;
  for (std::size_t a = 0; a < need.rank(); ++a)
    if (have.extents()[a] < need.extents()[a]) return false;
  return true;
}

void BlockCache::set_capacity(std::size_t bytes) {
  std::vector<std::shared_ptr<const void>> graveyard;
  {
    std::lock_guard lock(mutex_);
    capacity_.store(bytes, std::memory_order_relaxed);
    evict_to(bytes, graveyard);
  }
}

void BlockCache::clear() {
  std::vector<std::shared_ptr<const void>> graveyard;
  {
    std::lock_guard lock(mutex_);
    evict_to(0, graveyard);
  }
}

std::shared_ptr<const void> BlockCache::get_erased(std::size_t field,
                                                   std::size_t block,
                                                   std::size_t elem_size,
                                                   const Dims& need,
                                                   Dims& shape) {
  if (!enabled()) {
    // Disabled caches don't count misses: the counters should describe
    // cache behaviour, not reads that never opted in.
    return nullptr;
  }
  std::lock_guard lock(mutex_);
  const auto it = map_.find(Key{field, block});
  if (it == map_.end() || it->second->elem_size != elem_size ||
      (!need.empty() && !covers(it->second->shape, need))) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  hits_.fetch_add(1, std::memory_order_relaxed);
  shape = it->second->shape;
  return it->second->data;
}

void BlockCache::put_erased(std::size_t field, std::size_t block,
                            std::size_t elem_size,
                            std::shared_ptr<const void> data,
                            std::size_t bytes, const Dims& shape) {
  std::vector<std::shared_ptr<const void>> graveyard;
  {
    std::lock_guard lock(mutex_);
    const std::size_t cap = capacity_.load(std::memory_order_relaxed);
    if (cap == 0 || bytes > cap) return;
    const Key key{field, block};
    const auto it = map_.find(key);
    if (it != map_.end()) {
      // A resident entry that covers the newcomer stays (refreshed): the
      // newcomer's values are a corner of it.  Otherwise a decode reaching
      // further on some axis replaces it, even one holding more values;
      // keep the newcomer and fix the accounting.
      if (it->second->elem_size == elem_size &&
          covers(it->second->shape, shape)) {
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
      }
      bytes_.fetch_sub(it->second->bytes, std::memory_order_relaxed);
      graveyard.push_back(std::move(it->second->data));
      lru_.erase(it->second);
      map_.erase(it);
    }
    lru_.push_front(Entry{key, std::move(data), bytes, elem_size, shape});
    map_.emplace(key, lru_.begin());
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    evict_to(cap, graveyard);
  }
}

void BlockCache::evict_to(std::size_t budget,
                          std::vector<std::shared_ptr<const void>>& graveyard) {
  while (bytes_.load(std::memory_order_relaxed) > budget && !lru_.empty()) {
    Entry& victim = lru_.back();
    bytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
    graveyard.push_back(std::move(victim.data));
    map_.erase(victim.key);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace sz14::archive
