// perfbench/cpp/taps.hpp — channel taps of the traced run.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Channel taps that turn delivery timestamps into per-hop residence
/// samples and capture each layer's inputs for the host replays.
struct HopTaps {
  enum class Role : std::uint8_t { kHostToLegacy, kLegacyToS4, kS4ToLegacy, kLegacyToHost };
  static constexpr std::size_t kCaptureCap = 40'000;

  std::unordered_map<std::uint64_t, SimNanos> hops;  // packet id -> last tap time
  ExactCounts residence_legacy;
  ExactCounts residence_s4;
  ExactCounts wire;  // one sample per tapped delivery
  std::vector<SimNanos> delivery_times;
  std::uint64_t legacy_ingress = 0;  // frames delivered into the legacy switch
  /// Legacy ingress: (sim in-port, frame).
  std::vector<std::pair<int, net::Packet>> legacy_in;
  /// Trunk frames arriving at SS_1 (VLAN-tagged).
  std::vector<net::Packet> s4_in;
};

}  // namespace perfbench
