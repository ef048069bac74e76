// util/id_map.hpp — a flat open-addressing map from a small key (a
// 64-bit id, a connection tuple) to a small trivially-copyable value,
// for bookkeeping on the hot path.
//
// std::unordered_map pays a node allocation per insert and a free per
// erase — two mallocs per recorded packet in LatencyRecorder, one per
// tracked connection in ConnTracker — and a pointer chase per probe.
// This map stores keys and values in two flat arrays with linear
// probing and backward-shift deletion, so steady-state
// find/insert/erase touch a couple of cache lines and never allocate.
//
// The default-constructed key (id 0, the all-zero tuple) marks an
// empty slot; that key itself is carried in a side slot, so every key
// value is legal — hash keys, snapshot tuples and replicated deltas
// included.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace harmless::util {

/// Fibonacci hashing: multiply by 2^64/phi. The map indexes with the
/// product's top bits, which spreads sequential packet ids across the
/// table while keeping the probe computation two instructions.
struct IdHash {
  [[nodiscard]] std::uint64_t operator()(std::uint64_t key) const {
    return key * 0x9E3779B97F4A7C15ull;
  }
};

/// `Hash` maps a key to a u64 whose *top* bits are well mixed (the
/// probe start is the top log2(capacity) bits).
template <typename Key, typename Value, typename Hash = IdHash>
class IdMap {
 public:
  IdMap() { rehash(kMinCapacity); }

  [[nodiscard]] std::size_t size() const { return size_ + (has_empty_key_ ? 1 : 0); }
  [[nodiscard]] bool empty() const { return size() == 0; }

  void clear() {
    std::fill(keys_.begin(), keys_.end(), Key{});
    size_ = 0;
    has_empty_key_ = false;
  }

  /// Insert `key` -> `value`, overwriting any existing entry.
  void insert_or_assign(const Key& key, Value value) {
    if (key == Key{}) {
      has_empty_key_ = true;
      empty_key_value_ = value;
      return;
    }
    if ((size_ + 1) * 8 > keys_.size() * 7) rehash(keys_.size() * 2);
    std::size_t slot = probe_start(key);
    while (keys_[slot] != Key{} && keys_[slot] != key) slot = (slot + 1) & mask_;
    if (keys_[slot] == Key{}) {
      keys_[slot] = key;
      ++size_;
    }
    values_[slot] = value;
  }

  /// Pointer to `key`'s value, or nullptr when absent. Invalidated by
  /// any mutation.
  [[nodiscard]] Value* find(const Key& key) {
    if (key == Key{}) return has_empty_key_ ? &empty_key_value_ : nullptr;
    const std::size_t slot = slot_of(key);
    return slot == kAbsent ? nullptr : &values_[slot];
  }

  [[nodiscard]] const Value* find(const Key& key) const {
    if (key == Key{}) return has_empty_key_ ? &empty_key_value_ : nullptr;
    const std::size_t slot = slot_of(key);
    return slot == kAbsent ? nullptr : &values_[slot];
  }

  [[nodiscard]] bool contains(const Key& key) const {
    return key == Key{} ? has_empty_key_ : slot_of(key) != kAbsent;
  }

  /// Remove `key` if present.
  void erase(const Key& key) {
    Value value;
    take(key, &value);
  }

  /// Find `key`; on a hit, store its value in `*value`, erase the
  /// entry, and return true.
  bool take(const Key& key, Value* value) {
    if (key == Key{}) {
      if (!has_empty_key_) return false;
      *value = empty_key_value_;
      has_empty_key_ = false;
      return true;
    }
    const std::size_t slot = slot_of(key);
    if (slot == kAbsent) return false;
    *value = values_[slot];
    erase_slot(slot);
    --size_;
    return true;
  }

 private:
  static constexpr std::size_t kMinCapacity = 64;
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  [[nodiscard]] std::size_t probe_start(const Key& key) const {
    return static_cast<std::size_t>(hash_(key) >> shift_) & mask_;
  }

  /// Slot holding non-empty `key`, or kAbsent.
  [[nodiscard]] std::size_t slot_of(const Key& key) const {
    std::size_t slot = probe_start(key);
    while (keys_[slot] != key) {
      if (keys_[slot] == Key{}) return kAbsent;
      slot = (slot + 1) & mask_;
    }
    return slot;
  }

  void erase_slot(std::size_t hole) {
    // Backward-shift deletion keeps probe chains dense (no
    // tombstones): pull every displaced follower back over the hole.
    std::size_t slot = hole;
    for (;;) {
      slot = (slot + 1) & mask_;
      if (keys_[slot] == Key{}) break;
      const std::size_t home = probe_start(keys_[slot]);
      if (((slot - home) & mask_) >= ((slot - hole) & mask_)) {
        keys_[hole] = keys_[slot];
        values_[hole] = values_[slot];
        hole = slot;
      }
    }
    keys_[hole] = Key{};
  }

  void rehash(std::size_t capacity) {
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    keys_.assign(capacity, Key{});
    values_.assign(capacity, Value{});
    mask_ = capacity - 1;
    shift_ = 64;
    while ((std::size_t{1} << (64 - shift_)) < capacity) --shift_;
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != Key{}) insert_or_assign(old_keys[i], old_values[i]);
    }
  }

  [[no_unique_address]] Hash hash_;
  std::vector<Key> keys_;
  std::vector<Value> values_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
  bool has_empty_key_ = false;
  Value empty_key_value_{};
};

}  // namespace harmless::util
