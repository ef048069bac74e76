// sim/time.hpp — simulated time and line rates.
//
// The simulator counts nanoseconds in a signed 64-bit integer (≈292
// years of headroom). Rates are stored as bits-per-nanosecond doubles;
// serialization delay is rounded up to a whole nanosecond so that a
// zero-cost wire is impossible unless explicitly configured.
#pragma once

#include <cmath>
#include <cstdint>

namespace harmless::sim {

using SimNanos = std::int64_t;

constexpr SimNanos operator""_ns(unsigned long long v) { return static_cast<SimNanos>(v); }
constexpr SimNanos operator""_us(unsigned long long v) { return static_cast<SimNanos>(v) * 1000; }
constexpr SimNanos operator""_ms(unsigned long long v) {
  return static_cast<SimNanos>(v) * 1000 * 1000;
}
constexpr SimNanos operator""_s(unsigned long long v) {
  return static_cast<SimNanos>(v) * 1000 * 1000 * 1000;
}

/// A transmission rate. Rate::gbps(10).serialization_ns(1500) is the
/// time the last bit leaves the NIC after the first one.
class Rate {
 public:
  constexpr Rate() = default;

  static constexpr Rate gbps(double gigabits_per_second) {
    return Rate(gigabits_per_second);  // 1 Gb/s == 1 bit/ns
  }
  static constexpr Rate mbps(double megabits_per_second) {
    return Rate(megabits_per_second / 1000.0);
  }

  /// Time to clock `bytes` onto the wire. 0 only for infinite rate.
  [[nodiscard]] SimNanos serialization_ns(std::size_t bytes) const {
    if (bits_per_ns_ <= 0) return 0;
    const double ns = static_cast<double>(bytes) * 8.0 / bits_per_ns_;
    return static_cast<SimNanos>(std::ceil(ns));
  }

 private:
  constexpr explicit Rate(double bits_per_ns) : bits_per_ns_(bits_per_ns) {}
  double bits_per_ns_ = 0;  // <= 0 means "infinitely fast"
};

}  // namespace harmless::sim
