#include "legacy/mac_table.hpp"

namespace harmless::legacy {

void MacTable::learn(net::VlanId vlan, net::MacAddr mac, int port, sim::SimNanos now) {
  const Key key{vlan, mac};
  const auto it = table_.find(key);
  if (it != table_.end()) {
    if (it->second.port != port) ++moves_;
    it->second = Entry{port, now};
    return;
  }
  if (table_.size() >= capacity_) return;  // table full: keep flooding
  table_.emplace(key, Entry{port, now});
}

std::optional<int> MacTable::lookup(net::VlanId vlan, net::MacAddr mac,
                                    sim::SimNanos now) const {
  const auto it = table_.find(Key{vlan, mac});
  if (it == table_.end()) return std::nullopt;
  if (aging_ > 0 && now - it->second.learned_at > aging_) return std::nullopt;  // aged out
  return it->second.port;
}

std::optional<int> MacTable::bridge(net::VlanId vlan, net::MacAddr src, net::MacAddr dst,
                                   int in_port, sim::SimNanos now) {
  if (!src.is_multicast() && !src.is_zero()) learn(vlan, src, in_port, now);
  if (dst.is_multicast()) return std::nullopt;
  return lookup(vlan, dst, now);
}

std::size_t MacTable::flush_port(int port) {
  std::size_t flushed = 0;
  for (auto it = table_.begin(); it != table_.end();) {
    if (it->second.port == port) {
      it = table_.erase(it);
      ++flushed;
    } else {
      ++it;
    }
  }
  return flushed;
}

}  // namespace harmless::legacy
