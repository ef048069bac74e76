// sim/wire.hpp — the one failable message wire.
//
// The control channel, the replication stream and every witness link
// are message transports with the same failure semantics, and the
// chaos suite's at-most-one-active guarantee depends on them dropping
// messages the same way. A Wire owns that rule once: up/down state (a
// partition loses everything handed over *and* everything in flight)
// and a seeded loss-and-jitter impairment. Subclasses add what differs
// — framing, pacing, per-kind drop buckets, handlers — and hand each
// message to send(). With the wire up and no impairment configured the
// Rng is never consulted, so a pristine wire replays byte-identically.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/event.hpp"
#include "sim/faults.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace harmless::sim {

/// Per-message loss probability plus up to `jitter_ns` of uniform extra
/// latency (default-constructed = pristine).
struct WireImpairment {
  double loss = 0.0;
  SimNanos jitter_ns = 0;
};

class Wire : public FaultPoint {
 public:
  // In-flight messages hold `this`.
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  /// Partition / heal the wire (every direction it carries).
  void set_up(bool up) { up_ = up; }
  [[nodiscard]] bool is_up() const { return up_; }
  void fault_set_up(bool up) override { set_up(up); }

 protected:
  /// Replace the impairment. Protected: only the transports whose
  /// experiments run lossy (control, replication) re-export it.
  void set_impairment(WireImpairment impairment) { impairment_ = impairment; }

  Wire(Engine& engine, std::uint64_t seed, WireImpairment impairment = {})
      : engine_(engine), rng_(seed), impairment_(impairment) {}

  /// The one send rule. A message dies at departure if the wire is down
  /// (`dropped_down`) or the loss draw takes it (`dropped_loss`);
  /// otherwise it arrives at depart + latency + a jitter draw and runs
  /// `deliver`, unless the wire went down in flight (`dropped_down`).
  /// Loss is drawn before jitter, and jitter only for survivors: the
  /// seeded streams depend on that order. Returns whether the message
  /// departed.
  template <typename Deliver>
  bool send(SimNanos depart, SimNanos latency, std::uint64_t& dropped_down,
            std::uint64_t& dropped_loss, Deliver&& deliver) {
    if (!up_) {
      ++dropped_down;
      return false;
    }
    if (impairment_.loss > 0.0 && rng_.chance(impairment_.loss)) {
      ++dropped_loss;
      return false;
    }
    SimNanos arrive = depart + latency;
    if (impairment_.jitter_ns > 0) {
      // Jitter can reorder deliveries — deliberate: an impaired network
      // gives no ordering guarantees either.
      arrive += static_cast<SimNanos>(
          rng_.below(static_cast<std::uint64_t>(impairment_.jitter_ns) + 1));
    }
    engine_.schedule_at(arrive, [this, &dropped_down,
                                 deliver = std::forward<Deliver>(deliver)]() mutable {
      if (!up_) {
        ++dropped_down;  // in flight when the partition hit
        return;
      }
      deliver();
    });
    return true;
  }

  Engine& engine_;

 private:
  util::Rng rng_;
  WireImpairment impairment_;
  bool up_ = true;
};

}  // namespace harmless::sim
