// util/stats.hpp — counters and latency/size distributions.
//
// Benchmarks and the simulator record per-port packet/byte counters and
// full latency distributions. `Histogram` keeps exact samples up to a
// cap (enough for every bench in this repo) and reports quantiles and
// moments; `RateCounter` converts (count, simulated duration) into
// packets/s and bits/s.
#pragma once

#include <cstdint>
#include <vector>

namespace harmless::util {

/// Exact-sample distribution. Stores every sample (up to `max_samples`,
/// after which it reservoir-samples to stay bounded) and answers
/// quantile/mean/min/max queries.
class Histogram {
 public:
  explicit Histogram(std::size_t max_samples = 1 << 20);

  void add(double sample);

  [[nodiscard]] std::size_t count() const { return total_count_; }
  [[nodiscard]] bool empty() const { return total_count_ == 0; }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  /// q in [0,1]; linear interpolation between order statistics.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p95() const { return quantile(0.95); }
  [[nodiscard]] double p99() const { return quantile(0.99); }

  void clear();

 private:
  void ensure_sorted() const;

  std::size_t max_samples_;
  std::size_t total_count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  mutable bool sorted_ = true;
  mutable std::vector<double> samples_;
  std::uint64_t reservoir_state_ = 0x853c49e6748fea9bULL;  // cheap LCG for reservoir
};

/// Monotonic packet/byte tally with simulated-time rate conversion.
struct RateCounter {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;

  void add(std::size_t packet_bytes) {
    ++packets;
    bytes += packet_bytes;
  }
  void merge(const RateCounter& other) {
    packets += other.packets;
    bytes += other.bytes;
  }

  /// Packets per second over `duration_ns` of simulated time.
  [[nodiscard]] double pps(std::uint64_t duration_ns) const;
  /// Bits per second over `duration_ns` of simulated time.
  [[nodiscard]] double bps(std::uint64_t duration_ns) const;
};

}  // namespace harmless::util
