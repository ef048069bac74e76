#include "controller/controller.hpp"

namespace harmless::controller {

using namespace openflow;

Session::Session(Controller& owner, ControlChannel& channel, std::string label)
    : owner_(owner), channel_(channel), label_(std::move(label)) {}

void Session::start_handshake() {
  channel_.set_controller_handler([this](Message&& message) { handle(std::move(message)); });
  channel_.send_to_switch(HelloMsg{});
  channel_.send_to_switch(FeaturesRequestMsg{});
}

void Session::detach() { channel_.set_controller_handler(nullptr); }

void Session::restart_handshake() {
  // A session that was ready before the crash must resync, not just
  // connect: the datapath kept (some of) its state while we lost ours.
  if (ready_) resync_pending_ = true;
  start_handshake();
}

void Session::run_resync() {
  ++resyncs_;
  ++owner_.stats_.resyncs;
  // Audit what survived on the datapath (observability: apps reinstall
  // idempotently regardless; the audit tells Table 8 how much state
  // outlived the outage)...
  request_flow_stats([this](const FlowStatsReplyMsg& reply) {
    last_audit_flows_ = reply.flows.size();
    // Warm/cold classification (PR 9): a datapath that still holds flow
    // state across the outage (controller-side crash, or a stateful
    // restart that restored it) resyncs warm — its surviving flows will
    // not storm packet-ins, so recovery tooling can deprioritize it. An
    // empty audit is a cold (wiped) switch.
    if (last_audit_flows_ > 0) {
      ++warm_resyncs_;
      ++owner_.stats_.warm_resyncs;
    } else {
      ++cold_resyncs_;
      ++owner_.stats_.cold_resyncs;
    }
  });
  // ...re-run the apps' programming...
  owner_.dispatch_reconnect(*this);
  // ...and fence it: FIFO delivery means the barrier reaches the
  // switch after every re-installed mod, closing its resync window.
  barrier();
}

void Session::send(Message message) { channel_.send_to_switch(std::move(message)); }

void Session::flow_add(std::uint8_t table, std::uint16_t priority, Match match,
                       Instructions instructions, std::uint64_t cookie,
                       sim::SimNanos idle_timeout, sim::SimNanos hard_timeout) {
  FlowModMsg mod;
  mod.command = FlowModMsg::Command::kAdd;
  mod.table_id = table;
  mod.priority = priority;
  mod.match = std::move(match);
  mod.instructions = std::move(instructions);
  mod.cookie = cookie;
  mod.idle_timeout = idle_timeout;
  mod.hard_timeout = hard_timeout;
  mod.send_flow_removed = (idle_timeout > 0 || hard_timeout > 0);
  channel_.send_to_switch(std::move(mod));
}

void Session::flow_delete(std::uint8_t table, const Match& match) {
  FlowModMsg mod;
  mod.command = FlowModMsg::Command::kDelete;
  mod.table_id = table;
  mod.match = match;
  channel_.send_to_switch(std::move(mod));
}

void Session::group_add(GroupEntry entry) {
  GroupModMsg mod;
  mod.command = GroupModMsg::Command::kAdd;
  mod.entry = std::move(entry);
  channel_.send_to_switch(std::move(mod));
}

void Session::packet_out(net::Packet packet, ActionList actions, std::uint32_t in_port) {
  PacketOutMsg out;
  out.packet = std::move(packet);
  out.actions = std::move(actions);
  out.in_port = in_port;
  channel_.send_to_switch(std::move(out));
}

void Session::barrier() { channel_.send_to_switch(BarrierRequestMsg{next_xid_++}); }

void Session::ping(std::uint64_t payload) { channel_.send_to_switch(EchoRequestMsg{payload}); }

void Session::request_flow_stats(std::function<void(const FlowStatsReplyMsg&)> callback) {
  stats_callbacks_.push_back(std::move(callback));
  channel_.send_to_switch(FlowStatsRequestMsg{});
}

void Session::handle(Message&& message) {
  if (std::holds_alternative<HelloMsg>(message)) {
    // A Hello on an already-ready session is a switch asking to come
    // back (its reconnect-backoff probe). Accept by re-running the
    // features handshake; the resync fires when the reply lands.
    // (During the initial handshake ready_ is still false and the
    // switch's Hello reply is ignored, as it always was.)
    if (ready_ && !resync_pending_) {
      resync_pending_ = true;
      channel_.send_to_switch(FeaturesRequestMsg{});
    }
    return;
  }
  if (std::holds_alternative<EchoReplyMsg>(message)) {
    ++echo_replies_;
    return;
  }
  if (const auto* echo = std::get_if<EchoRequestMsg>(&message)) {
    // Datapath-side liveness probe: answer it (a dead controller
    // can't — its handler is detached, so the probe counts as
    // dropped_no_handler and the switch's miss counter grows).
    channel_.send_to_switch(EchoReplyMsg{echo->payload});
    return;
  }
  if (const auto* features = std::get_if<FeaturesReplyMsg>(&message)) {
    features_ = *features;
    const bool first = !ready_;
    ready_ = true;
    if (first) {
      owner_.dispatch_connect(*this);
    } else if (resync_pending_) {
      resync_pending_ = false;
      run_resync();
    }
    return;
  }
  if (const auto* stats = std::get_if<FlowStatsReplyMsg>(&message)) {
    if (!stats_callbacks_.empty()) {
      auto callback = std::move(stats_callbacks_.front());
      stats_callbacks_.erase(stats_callbacks_.begin());
      callback(*stats);
    }
    return;
  }
  owner_.dispatch(*this, std::move(message));
}

Session& Controller::connect(ControlChannel& channel, std::string label) {
  sessions_.push_back(std::make_unique<Session>(*this, channel, std::move(label)));
  Session& session = *sessions_.back();
  session.start_handshake();
  return session;
}

void Controller::dispatch_connect(Session& session) {
  for (const auto& app : apps_) app->on_connect(session);
}

void Controller::dispatch_reconnect(Session& session) {
  for (const auto& app : apps_) app->on_reconnect(session);
}

void Controller::fault_crash() {
  if (crashed_) return;
  crashed_ = true;
  ++stats_.crashes;
  // The process is gone: nothing receives. In-flight and future
  // messages to the controller count as dropped_no_handler on their
  // channels — the observable difference between a dead controller and
  // a partitioned one (dropped_down).
  for (const auto& session : sessions_) session->detach();
}

void Controller::fault_restart() {
  if (!crashed_) return;
  crashed_ = false;
  ++stats_.restarts;
  // Supervised restart: apps are still registered (their state is code
  // plus what on_reconnect re-derives); every known datapath gets a
  // fresh handshake with the resync path armed.
  for (const auto& session : sessions_) session->restart_handshake();
}

void Controller::dispatch(Session& session, Message&& message) {
  if (const auto* packet_in = std::get_if<PacketInMsg>(&message)) {
    ++stats_.packet_ins;
    for (const auto& app : apps_) app->on_packet_in(session, *packet_in);
    return;
  }
  if (const auto* port_status = std::get_if<PortStatusMsg>(&message)) {
    for (const auto& app : apps_) app->on_port_status(session, *port_status);
    return;
  }
  if (const auto* flow_removed = std::get_if<FlowRemovedMsg>(&message)) {
    ++stats_.flow_removed;
    for (const auto& app : apps_) app->on_flow_removed(session, *flow_removed);
    return;
  }
  if (const auto* error = std::get_if<ErrorMsg>(&message)) {
    ++stats_.errors;
    for (const auto& app : apps_) app->on_error(session, *error);
    return;
  }
  // barrier replies / echo replies need no app dispatch
}

}  // namespace harmless::controller
