#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace harmless::util {

Histogram::Histogram(std::size_t max_samples) : max_samples_(max_samples) {
  samples_.reserve(std::min<std::size_t>(max_samples_, 4096));
}

void Histogram::add(double sample) {
  if (total_count_ == 0) {
    min_ = max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++total_count_;
  sum_ += sample;
  sum_sq_ += sample * sample;

  if (samples_.size() < max_samples_) {
    samples_.push_back(sample);
    sorted_ = false;
    return;
  }
  // Reservoir sampling keeps quantiles approximately right if a bench
  // ever exceeds the cap (none in this repo does by default).
  reservoir_state_ = reservoir_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
  const std::uint64_t slot = reservoir_state_ % total_count_;
  if (slot < samples_.size()) {
    samples_[slot] = sample;
    sorted_ = false;
  }
}

double Histogram::min() const { return empty() ? 0.0 : min_; }
double Histogram::max() const { return empty() ? 0.0 : max_; }

double Histogram::mean() const {
  return empty() ? 0.0 : sum_ / static_cast<double>(total_count_);
}

double Histogram::stddev() const {
  if (total_count_ < 2) return 0.0;
  const double n = static_cast<double>(total_count_);
  const double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1);
  return var > 0 ? std::sqrt(var) : 0.0;
}

void Histogram::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Histogram::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] + (samples_[hi] - samples_[lo]) * frac;
}

void Histogram::clear() {
  total_count_ = 0;
  sum_ = sum_sq_ = min_ = max_ = 0.0;
  samples_.clear();
  sorted_ = true;
}

double RateCounter::pps(std::uint64_t duration_ns) const {
  if (duration_ns == 0) return 0.0;
  return static_cast<double>(packets) * 1e9 / static_cast<double>(duration_ns);
}

double RateCounter::bps(std::uint64_t duration_ns) const {
  if (duration_ns == 0) return 0.0;
  return static_cast<double>(bytes) * 8.0 * 1e9 / static_cast<double>(duration_ns);
}

}  // namespace harmless::util
