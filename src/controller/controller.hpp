// controller/controller.hpp — the SDN controller framework.
//
// A Controller owns one Session per datapath (per control channel) and
// dispatches events to registered Apps — the structure of Ryu/ONOS in
// miniature. Apps never see channels; they program switches through
// the Session helpers (flow_add, group_add, packet_out, ...), which is
// what makes them reusable between a native SS_2 and any other
// datapath, the property HARMLESS's translator exists to protect.
//
// Failure semantics (PR 7): a switch that lost its session sends Hello
// over the (healed) channel; a ready Session answers with a features
// handshake and, when the FeaturesReply lands, runs a full-state
// resync — a flow-stats audit of what survived on the datapath,
// App::on_reconnect on every app (default: re-run on_connect, since
// well-written apps install idempotently), and a barrier fencing the
// re-installed state. The Controller is itself a sim::FaultPoint:
// fault_crash detaches every session's receive handler (messages then
// count as dropped_no_handler on the channel) and fault_restart
// re-handshakes every session with the resync path armed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "openflow/channel.hpp"
#include "openflow/messages.hpp"
#include "sim/faults.hpp"

namespace harmless::controller {

class Controller;

class Session {
 public:
  Session(Controller& owner, openflow::ControlChannel& channel, std::string label);

  /// Datapath identity (valid after the features handshake).
  [[nodiscard]] std::uint64_t datapath_id() const { return features_.datapath_id; }
  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] const openflow::FeaturesReplyMsg& features() const { return features_; }
  [[nodiscard]] const std::string& label() const { return label_; }

  // ---- programming helpers -------------------------------------------
  void flow_add(std::uint8_t table, std::uint16_t priority, openflow::Match match,
                openflow::Instructions instructions, std::uint64_t cookie = 0,
                sim::SimNanos idle_timeout = 0, sim::SimNanos hard_timeout = 0);
  void flow_delete(std::uint8_t table, const openflow::Match& match);
  void group_add(openflow::GroupEntry entry);
  void packet_out(net::Packet packet, openflow::ActionList actions,
                  std::uint32_t in_port = openflow::kPortAny);
  void barrier();
  /// Async flow-stats dump; `callback` fires when the reply arrives.
  void request_flow_stats(std::function<void(const openflow::FlowStatsReplyMsg&)> callback);

  /// Liveness probe: sends an EchoRequest; replies are counted in
  /// echo_replies(). A healthy datapath answers every ping.
  void ping(std::uint64_t payload = 0);
  [[nodiscard]] std::uint64_t echo_replies() const { return echo_replies_; }

  /// Raw message escape hatch.
  void send(openflow::Message message);

  // Used by Controller.
  void handle(openflow::Message&& message);
  void start_handshake();
  /// Stop receiving (controller crash): the channel delivers into
  /// nothing and counts dropped_no_handler.
  void detach();
  /// Re-handshake after a controller restart; a previously-ready
  /// session arms the resync path.
  void restart_handshake();

  /// Resyncs completed (reconnect handshakes that re-ran the apps).
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }
  /// Flow entries the pre-resync audit found still installed on the
  /// datapath (what survived the outage).
  [[nodiscard]] std::uint64_t last_audit_flows() const { return last_audit_flows_; }
  /// Resyncs whose audit found surviving flow state (the datapath kept
  /// its tables — e.g. a controller-side outage, or a stateful restore).
  [[nodiscard]] std::uint64_t warm_resyncs() const { return warm_resyncs_; }
  /// Resyncs against an empty (wiped/rebooted) datapath.
  [[nodiscard]] std::uint64_t cold_resyncs() const { return cold_resyncs_; }

 private:
  /// Full-state resync: audit the surviving flow table, re-run the
  /// apps, fence with a barrier.
  void run_resync();

  Controller& owner_;
  openflow::ControlChannel& channel_;
  std::string label_;
  openflow::FeaturesReplyMsg features_;
  bool ready_ = false;
  bool resync_pending_ = false;
  std::uint32_t next_xid_ = 1;
  std::uint64_t echo_replies_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t last_audit_flows_ = 0;
  std::uint64_t warm_resyncs_ = 0;
  std::uint64_t cold_resyncs_ = 0;
  std::vector<std::function<void(const openflow::FlowStatsReplyMsg&)>> stats_callbacks_;
};

/// Controller application interface (Ryu-style event callbacks).
class App {
 public:
  virtual ~App() = default;
  [[nodiscard]] virtual const char* name() const = 0;

  /// Datapath completed the handshake: install your rules here.
  virtual void on_connect(Session& session) { (void)session; }
  /// Datapath re-established a lost session. Default: re-run
  /// on_connect — correct for apps whose installs are idempotent
  /// (flow_add of an existing rule overwrites). Override to
  /// reconcile incrementally instead.
  virtual void on_reconnect(Session& session) { on_connect(session); }
  virtual void on_packet_in(Session& session, const openflow::PacketInMsg& event) {
    (void)session;
    (void)event;
  }
  virtual void on_port_status(Session& session, const openflow::PortStatusMsg& event) {
    (void)session;
    (void)event;
  }
  virtual void on_flow_removed(Session& session, const openflow::FlowRemovedMsg& event) {
    (void)session;
    (void)event;
  }
  virtual void on_error(Session& session, const openflow::ErrorMsg& event) {
    (void)session;
    (void)event;
  }
};

class Controller : public sim::FaultPoint {
 public:
  explicit Controller(std::string name = "ctrl") : name_(std::move(name)) {}

  /// Register an app (kept for the controller's lifetime). Dispatch
  /// order == registration order.
  template <typename AppT, typename... Args>
  AppT& add_app(Args&&... args) {
    auto app = std::make_unique<AppT>(std::forward<Args>(args)...);
    AppT& ref = *app;
    apps_.push_back(std::move(app));
    return ref;
  }

  /// Adopt a datapath: starts the hello/features handshake over
  /// `channel` and dispatches its events from then on.
  Session& connect(openflow::ControlChannel& channel, std::string label = "dp");

  [[nodiscard]] const std::vector<std::unique_ptr<Session>>& sessions() const {
    return sessions_;
  }
  [[nodiscard]] const std::string& name() const { return name_; }

  struct Stats {
    std::uint64_t packet_ins = 0;
    std::uint64_t flow_removed = 0;
    std::uint64_t errors = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t resyncs = 0;       // across all sessions
    std::uint64_t warm_resyncs = 0;  // audits that found surviving flow state
    std::uint64_t cold_resyncs = 0;  // audits against a wiped datapath
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // sim::FaultPoint: process death and supervised restart. Crash stops
  // every session from receiving; restart re-handshakes them all with
  // full-state resync.
  void fault_crash() override;
  void fault_restart() override;
  void fault_set_up(bool up) override {
    if (up) fault_restart();
    else fault_crash();
  }
  [[nodiscard]] bool crashed() const { return crashed_; }

 private:
  friend class Session;
  void dispatch_connect(Session& session);
  void dispatch_reconnect(Session& session);
  void dispatch(Session& session, openflow::Message&& message);

  std::string name_;
  std::vector<std::unique_ptr<App>> apps_;
  std::vector<std::unique_ptr<Session>> sessions_;
  Stats stats_;
  bool crashed_ = false;
};

}  // namespace harmless::controller
