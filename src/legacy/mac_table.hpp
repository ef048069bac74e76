// legacy/mac_table.hpp — the 802.1D learning/filtering database.
//
// Entries are keyed by (VLAN, MAC) — independent learning per VLAN, as
// required for HARMLESS where the same host MAC may appear in multiple
// VLAN contexts during migration. Aging is lazy: entries are checked
// against the clock on lookup, so no timer events are needed.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "net/mac.hpp"
#include "net/vlan.hpp"
#include "sim/time.hpp"

namespace harmless::legacy {

class MacTable {
 public:
  explicit MacTable(sim::SimNanos aging = 300u * 1000u * 1000u * 1000u,
                    std::size_t capacity = 8192)
      : aging_(aging), capacity_(capacity) {}

  /// Record (vlan, mac) -> port. Refreshes the timestamp on re-learn;
  /// a station move (same key, new port) overwrites. When full, new
  /// entries are not inserted (the real TCAM behaviour: flood instead).
  void learn(net::VlanId vlan, net::MacAddr mac, int port, sim::SimNanos now);

  /// Port for (vlan, mac), if known and not aged out.
  [[nodiscard]] std::optional<int> lookup(net::VlanId vlan, net::MacAddr mac,
                                          sim::SimNanos now) const;

  /// One 802.1D bridging step for a frame `src` -> `dst` arriving on
  /// `in_port`: learn the source (unicast, non-zero only), then return
  /// the port the destination was learned on (unicast only). nullopt
  /// means flood; `in_port` itself means filter.
  std::optional<int> bridge(net::VlanId vlan, net::MacAddr src, net::MacAddr dst, int in_port,
                            sim::SimNanos now);

  /// Drop all entries pointing at `port` (link-down handling); returns
  /// how many were flushed.
  std::size_t flush_port(int port);

  void clear() { table_.clear(); }
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] std::uint64_t moves() const { return moves_; }

  void set_aging(sim::SimNanos aging) { aging_ = aging; }
  [[nodiscard]] sim::SimNanos aging() const { return aging_; }

 private:
  struct Key {
    net::VlanId vlan;
    net::MacAddr mac;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      return std::hash<std::uint64_t>{}(key.mac.to_u64() ^
                                        (static_cast<std::uint64_t>(key.vlan) << 48));
    }
  };
  struct Entry {
    int port;
    sim::SimNanos learned_at;
  };

  sim::SimNanos aging_;
  std::size_t capacity_;
  std::uint64_t moves_ = 0;
  std::unordered_map<Key, Entry, KeyHash> table_;
};

}  // namespace harmless::legacy
