// openflow/channel.hpp — the control channel between a datapath and
// its controller.
//
// In the paper SS_2 connects to the SDN controller over TCP; here the
// transport is the event engine with a configurable one-way latency
// (management networks are not free) and strictly FIFO delivery per
// direction — which is what the barrier semantics rely on.
//
// The channel is a failable sim::Wire (PR 7): a management-network
// partition loses everything handed over *and* everything in flight,
// one seeded loss-and-jitter impairment covers both directions, and an
// optional per-message minimum gap models TCP + controller
// serialization (what makes a 10^3-flow resync take wall time instead
// of arriving as one instantaneous blob). Every loss is attributed per
// direction: downed-channel drops, random loss, and messages that
// arrived while no handler was registered (a crashed controller's
// receive window) are counted separately — nothing is silently lost.
// With the channel up and no impairment configured delivery is
// byte-identical to the infallible PR-6 channel.
#pragma once

#include <cstdint>
#include <functional>

#include "openflow/messages.hpp"
#include "sim/event.hpp"
#include "sim/wire.hpp"

namespace harmless::openflow {

class ControlChannel : public sim::Wire {
 public:
  explicit ControlChannel(sim::Engine& engine,
                          sim::SimNanos one_way_latency = 50'000 /*50 us*/)
      : Wire(engine, /*seed=*/0xc0a7'0150'0fULL), latency_(one_way_latency) {}

  // ---- datapath side ----
  void send_to_controller(Message message);
  void set_controller_handler(std::function<void(Message&&)> handler) {
    controller_handler_ = std::move(handler);
  }

  // ---- controller side ----
  void send_to_switch(Message message);
  void set_switch_handler(std::function<void(Message&&)> handler) {
    switch_handler_ = std::move(handler);
  }

  /// Minimum spacing between message *deliveries* per direction — the
  /// serialization + processing budget of the management network and
  /// controller I/O loop. 0 (default) = the historical instantaneous
  /// pipe. This is what makes full-state resync time scale with the
  /// number of re-installed flows.
  void set_min_gap(sim::SimNanos gap_ns) { min_gap_ns_ = gap_ns; }

  /// One loss-and-jitter impairment for both directions.
  using sim::Wire::set_impairment;

  /// Per-direction delivery accounting. sent == delivered + dropped_down
  /// + dropped_loss + dropped_no_handler + (messages still in flight).
  struct DirectionStats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_down = 0;        // channel down at send or delivery
    std::uint64_t dropped_loss = 0;        // random impairment loss
    std::uint64_t dropped_no_handler = 0;  // arrived with no handler registered
  };
  [[nodiscard]] const DirectionStats& to_controller() const { return to_controller_stats_; }
  [[nodiscard]] const DirectionStats& to_switch() const { return to_switch_stats_; }

  [[nodiscard]] sim::SimNanos latency() const { return latency_; }

 private:
  void send_on(Message&& message, DirectionStats& stats, sim::SimNanos& next_free,
               std::function<void(Message&&)>& handler);

  sim::SimNanos latency_;
  sim::SimNanos min_gap_ns_ = 0;
  sim::SimNanos to_controller_free_ = 0;
  sim::SimNanos to_switch_free_ = 0;
  std::function<void(Message&&)> controller_handler_;
  std::function<void(Message&&)> switch_handler_;
  DirectionStats to_controller_stats_;
  DirectionStats to_switch_stats_;
};

}  // namespace harmless::openflow
