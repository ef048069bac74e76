#include "sim/witness.hpp"

#include <algorithm>
#include <utility>

namespace harmless::sim {

Witness::Decision Witness::decide(std::uint64_t client, SimNanos now) {
  // Another holder with an unexpired lease: deny. The denial carries
  // the current epoch so a fenced ex-active can learn how far the
  // world moved on.
  if (holder_ != 0 && holder_ != client && expires_at_ > now) {
    ++stats_.denials;
    return Decision{false, epoch_, expires_at_};
  }
  if (holder_ != client) {
    // Holder change (first grant, or takeover after expiry): bump the
    // epoch so every delta stamped under the old lease is refusable.
    ++epoch_;
    ++stats_.epoch_bumps;
    holder_ = client;
    ++stats_.grants;
  } else {
    ++stats_.renewals;
  }
  expires_at_ = now + spec_.lease_validity_ns;
  return Decision{true, epoch_, expires_at_};
}

void WitnessLink::request_lease(GrantHandler handler) {
  ++stats_.requests_sent;
  const SimNanos fwd = std::max<SimNanos>(witness_.spec().rtt_ns / 2, 1);
  // Response leg is never zero: a grant decision made at t can only be
  // *known* to the client strictly after t, which is what keeps an
  // expiry-fence at t and a new grant learned after t from overlapping.
  const SimNanos back = std::max<SimNanos>(witness_.spec().rtt_ns - fwd, 1);
  send(engine_.now(), fwd, stats_.requests_dropped, stats_.requests_dropped,
       [this, handler = std::move(handler), back]() mutable {
         if (witness_.crashed()) {
           ++stats_.requests_dropped;
           return;
         }
         const Witness::Decision decision = witness_.decide(client_id_, engine_.now());
         send(engine_.now(), back, stats_.responses_dropped, stats_.responses_dropped,
              [this, handler = std::move(handler), decision] {
                if (decision.granted)
                  ++stats_.granted;
                else
                  ++stats_.denied;
                handler(decision.granted, decision.epoch, decision.expires_at);
              });
       });
}

}  // namespace harmless::sim
