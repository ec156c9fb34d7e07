// Flat open-addressed hash map keyed by ChunkKey: the resident-object index
// of every cache level and eviction policy, the LFU history, and the dedupe
// set of the warm archive build.
//
// A warm archive holds ~590k resident objects; with node-based maps each
// one cost a heap node in the level index and another in the policy index,
// which dominated both the archive build and its teardown.  Here all
// entries live in one slot array:
//
//   * linear probing over a power-of-two slot count, load <= 3/4;
//   * backward-shift deletion (Knuth 6.4, Algorithm R): an erase moves
//     later members of its probe run back into the hole, so there are no
//     tombstones and steady insert/erase churn never lengthens probes;
//   * each slot keeps 31 bits of its key's hash (top bit set marks the
//     slot used), so probes compare one word before the key, and shifts
//     and rehashes never recompute a hash;
//   * no iteration API.  Slot order is a function of the hash and of the
//     insertion history, so nothing the simulator outputs may depend on
//     it; without iterators nothing can (DESIGN.md, "Flat cache indexes").
//
// Pointers returned by find/try_emplace stay valid until the next
// try_emplace, erase or reserve.  The load bound guarantees an empty slot,
// so every probe loop terminates.  Concurrent const lookups are safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cdn/chunk.h"

namespace vstream::cdn {

/// `V` must be default-constructible and movable.  `Hash` is a template
/// parameter only so tests can force exact probe positions.
template <typename V, typename Hash = ChunkKeyHash>
class ChunkKeyMap {
 public:
  std::size_t size() const { return size_; }
  /// Slot count (0 or a power of two); grows only when the load would
  /// exceed 3/4.
  std::size_t capacity() const { return slots_.size(); }

  /// Size the table so that `count` entries fit without a rehash.
  void reserve(std::size_t count) {
    std::size_t want = kMinCapacity;
    while (max_load(want) < count) want *= 2;
    if (want > slots_.size()) rehash(want);
  }

  const V* find(const ChunkKey& key) const {
    const std::size_t i = find_slot(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  V* find(const ChunkKey& key) {
    const std::size_t i = find_slot(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }

  /// Insert `key` with a value built from `args` unless it is present.
  /// Returns the entry's value and whether it was inserted.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(const ChunkKey& key, Args&&... args) {
    if (size_ + 1 > max_load(slots_.size())) {
      const std::size_t found = find_slot(key);
      if (found != kAbsent) return {&slots_[found].value, false};
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const std::uint32_t tag = tag_of(key);
    std::size_t i = tag & mask();
    for (; slots_[i].tag != kEmpty; i = (i + 1) & mask()) {
      if (slots_[i].tag == tag && slots_[i].key == key) {
        return {&slots_[i].value, false};
      }
    }
    Slot& slot = slots_[i];
    slot.key = key;
    slot.tag = tag;
    slot.value = V(std::forward<Args>(args)...);
    ++size_;
    return {&slot.value, true};
  }

  /// Remove `key`; returns its value, or nothing if it was absent.
  std::optional<V> erase(const ChunkKey& key) {
    std::size_t hole = find_slot(key);
    if (hole == kAbsent) return std::nullopt;
    std::optional<V> removed(std::move(slots_[hole].value));
    for (std::size_t next = (hole + 1) & mask();; next = (next + 1) & mask()) {
      Slot& slot = slots_[next];
      if (slot.tag == kEmpty) break;
      // Move the entry back into the hole unless its home lies cyclically
      // in (hole, next]: then the hole is not on its probe path.
      const std::size_t displacement = (next - slot.tag) & mask();
      const std::size_t gap = (next - hole) & mask();
      if (displacement >= gap) {
        slots_[hole] = std::move(slot);
        hole = next;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return removed;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  // Largest table whose slot indexes fit in a tag's 31 hash bits.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 31;
  static constexpr std::size_t kAbsent = ~std::size_t{0};
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kUsedBit = 0x80000000u;

  struct Slot {
    ChunkKey key;
    std::uint32_t tag = kEmpty;  // kUsedBit | low 31 bits of the hash
    [[no_unique_address]] V value{};
  };

  static std::uint32_t tag_of(const ChunkKey& key) {
    return static_cast<std::uint32_t>(Hash{}(key)) | kUsedBit;
  }
  static std::size_t max_load(std::size_t capacity) {
    return capacity / 4 * 3;
  }
  std::size_t mask() const { return slots_.size() - 1; }

  std::size_t find_slot(const ChunkKey& key) const {
    if (size_ == 0) return kAbsent;
    const std::uint32_t tag = tag_of(key);
    for (std::size_t i = tag & mask();; i = (i + 1) & mask()) {
      const Slot& slot = slots_[i];
      if (slot.tag == kEmpty) return kAbsent;
      if (slot.tag == tag && slot.key == key) return i;
    }
  }

  void rehash(std::size_t capacity) {
    if (capacity > kMaxCapacity) {
      throw std::length_error("ChunkKeyMap: more than 2^31 slots");
    }
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    for (Slot& slot : old) {
      if (slot.tag == kEmpty) continue;
      std::size_t i = slot.tag & mask();
      while (slots_[i].tag != kEmpty) i = (i + 1) & mask();
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace vstream::cdn
