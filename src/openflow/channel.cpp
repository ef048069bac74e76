#include "openflow/channel.hpp"

#include <algorithm>

namespace harmless::openflow {

void ControlChannel::send_on(Message&& message, DirectionStats& stats, sim::SimNanos& next_free,
                             std::function<void(Message&&)>& handler) {
  ++stats.sent;
  // Serialization point: min_gap_ns_ spaces departures, so a burst of N
  // flow-mods takes N * gap to drain — the resync-time model. With the
  // default gap of 0 this collapses to depart-now, the historical
  // instantaneous pipe. A message lost at departure takes no slot.
  const sim::SimNanos depart = std::max(engine_.now(), next_free);
  auto deliver = [&stats, &handler, msg = std::move(message)]() mutable {
    if (!handler) {
      ++stats.dropped_no_handler;  // receiver crashed / not attached
      return;
    }
    ++stats.delivered;
    handler(std::move(msg));
  };
  if (send(depart, latency_, stats.dropped_down, stats.dropped_loss, std::move(deliver)))
    next_free = depart + min_gap_ns_;
}

void ControlChannel::send_to_controller(Message message) {
  send_on(std::move(message), to_controller_stats_, to_controller_free_, controller_handler_);
}

void ControlChannel::send_to_switch(Message message) {
  send_on(std::move(message), to_switch_stats_, to_switch_free_, switch_handler_);
}

}  // namespace harmless::openflow
