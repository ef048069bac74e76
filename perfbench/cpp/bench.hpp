// perfbench/cpp/bench.hpp — shared pieces of the HARMLESS benchmark.
//
// The benchmark drives the simulator only through its public API: it
// builds a legacy estate, migrates it with core::HarmlessManager,
// programs SS_2 through a controller::Controller, offers traffic from
// hosts on the legacy access ports, and reads the public stats structs
// afterwards. Everything here is the benchmark's own machinery: the
// span recorder, the output checks, and the metric sheet.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "controller/controller.hpp"
#include "harmless/manager.hpp"
#include "legacy/legacy_switch.hpp"
#include "mgmt/driver.hpp"
#include "mgmt/mib.hpp"
#include "mgmt/snmp.hpp"
#include "net/build.hpp"
#include "sim/network.hpp"
#include "sim/recorder.hpp"
#include "softswitch/soft_switch.hpp"

namespace perfbench {

using namespace harmless;
using sim::SimNanos;

inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- spans -------------------------------------------------------------

/// In-memory span recorder. Spans are recorded around the benchmark's
/// own calls into each layer (the program itself is not instrumented);
/// a layer's self time is its spans' duration minus the part covered
/// by their child spans. Disabled recorders cost one branch per call.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t request = 0;  // packet or connection id; 0 = none
    std::uint64_t ops = 0;      // operations the span covered
  };
  struct Totals {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t ops = 0;
    std::uint64_t spans = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; returns its index (or -1 when disabled or when
  /// `name` is empty — how callers skip unsampled requests).
  std::int32_t begin(std::string_view name, std::uint64_t request = 0);
  /// Close the innermost open span, crediting it `ops` operations.
  void end(std::int32_t id, std::uint64_t ops = 1);

  /// Per-name totals with self time derived from the span tree.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Write every span as one JSON line each.
  bool write(const std::string& path) const;

 private:
  std::uint32_t intern(std::string_view name);

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.begin(name, request)) {}
  ~Scope() { tracer_.end(id_, ops_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void set_ops(std::uint64_t ops) { ops_ = ops; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
  std::uint64_t ops_ = 1;
};

// ---- output checks -------------------------------------------------------

/// Named correctness checks. Every failed check is reported with the
/// workload name; any failure makes the run exit non-zero.
class Checks {
 public:
  explicit Checks(std::string workload) : workload_(std::move(workload)) {}
  /// Record `ok`; on failure remember `name` and the detail.
  bool expect(bool ok, const std::string& name, const std::string& detail = {});
  [[nodiscard]] bool passed() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::string workload_;
  std::vector<std::string> failures_;
};

// ---- metric sheet ----------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Sheet = std::map<std::string, Metric>;

/// Exact distribution of non-negative integer samples (ns): one counter
/// per value, so percentiles are exact over every sample while memory
/// stays proportional to the value range, not the sample count.
class ExactCounts {
 public:
  void add(std::int64_t value);
  [[nodiscard]] std::uint64_t size() const { return total_; }
  /// Nearest-rank percentile: the ceil(q*n)-th smallest sample.
  [[nodiscard]] double percentile(double q) const;

 private:
  static constexpr std::int64_t kDense = 1 << 20;  // values below: dense array
  std::vector<std::uint64_t> dense_;
  std::map<std::int64_t, std::uint64_t> sparse_;
  std::uint64_t total_ = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test: down one access link mid-run (the checks must fail).
  bool fault_link_down = false;
  std::string source_id = "unknown";
  std::string trace_dir;
};

// ---- the scenario --------------------------------------------------------

/// Datapath counters captured at the edges of the measured window.
struct Snapshot {
  std::uint64_t events = 0;
  std::uint64_t frame_copies = 0;
  std::uint64_t delivered = 0;
  std::uint64_t opened = 0;  // connections opened (nat_conn_churn)
  std::vector<softswitch::SoftSwitch::CoreStats> ss1_cores;
  std::vector<softswitch::SoftSwitch::CoreStats> ss2_cores;
  softswitch::SoftSwitch::Counters ss1;
  softswitch::SoftSwitch::Counters ss2;
  openflow::FlowCache::Stats ss2_cache;
  std::uint64_t ctl_sent = 0;
  std::uint64_t ctl_dropped = 0;
  std::uint64_t packet_ins = 0;
  std::uint64_t repl_deltas = 0;
  std::uint64_t checkpoint_bytes = 0;
  SimNanos at = 0;
};

/// Host-side hop bookkeeping for the traced run's residence numbers.
struct HopTaps;

/// One workload instance: the legacy estate, its migration, the
/// controller, the traffic and the checks. Built fresh for every setup
/// repetition; the last instance runs the measured phase.
class Scenario {
 public:
  Scenario(const Options& options, Tracer& tracer);
  virtual ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// migrate() + controller programming + warm-up to steady state.
  void setup();
  /// The measured phase: a fixed amount of simulated work scaled by
  /// --seconds, timed on the host.
  void measure();
  /// Stop offering new work and let everything in flight complete.
  void drain();
  /// Run every output check.
  void check(Checks& checks);

  /// Deterministic counts and modelled (sim_*) values of this run.
  void count_metrics(Sheet& sheet) const;
  /// Host end-to-end numbers of the measured phase: the median over
  /// equal slices of the window of delivered Mpps per host second.
  [[nodiscard]] double host_mpps() const;
  /// Operations offered (packets expected delivered, or connections
  /// opened) and those that did not complete correctly.
  [[nodiscard]] virtual std::uint64_t attempted() const = 0;
  [[nodiscard]] virtual std::uint64_t failed() const = 0;
  [[nodiscard]] std::uint64_t window_packets() const;

  /// Traced run only: the host-time replays of captured layer inputs.
  void replay_layers(Sheet& sheet, double measured_ns_per_pkt);

  // Setup step timings (host ms), for the harmless.* / mgmt.* rows.
  double migrate_ms = 0;
  double fabric_build_ms = 0;
  double mgmt_push_ms = 0;

 protected:
  static constexpr int kAccessPorts = 8;
  static constexpr int kTrunkPort = kAccessPorts + 1;

  // ---- per-workload hooks ----
  [[nodiscard]] virtual std::string name() const = 0;
  /// Access link of host `index` (0-based).
  [[nodiscard]] virtual sim::LinkSpec access_link(int index) const;
  virtual void shape_fabric(core::FabricSpec& spec) const { (void)spec; }
  virtual void install_apps() = 0;
  /// After migration and the OF handshake: extra datapath state.
  virtual void after_migration() {}
  virtual void start_traffic() = 0;
  virtual void stop_traffic() = 0;
  [[nodiscard]] virtual SimNanos warmup_ns() const = 0;
  /// Simulated time of measured work per requested host second.
  [[nodiscard]] virtual SimNanos sim_ns_per_second() const = 0;
  virtual void check_workload(Checks& checks) = 0;
  /// Called between measured slices (no simulated events).
  virtual void sample() {}
  virtual void workload_counts(Sheet& sheet) const { (void)sheet; }
  /// Stamp `count` frames from the workload's templates (the traced
  /// run's generator replay); returns a checksum of what was built.
  virtual std::uint64_t stamp_replay(std::size_t count) = 0;
  /// Workload-owned counters captured with the window snapshots.
  virtual void snapshot_extra(Snapshot& snap) const { (void)snap; }

  /// Record one delivered packet's latency if it belongs to the window.
  void note_delivery(const net::Packet& packet);
  [[nodiscard]] bool sample_span(std::uint64_t seq) const {
    return tracer_.enabled() && (seq & 63) == 0;
  }
  void take_snapshot(Snapshot& snap) const;

  [[nodiscard]] softswitch::SoftSwitch& ss1() { return deployment_->fabric().ss1(); }
  [[nodiscard]] softswitch::SoftSwitch& ss2() { return deployment_->fabric().ss2(); }
  [[nodiscard]] const softswitch::SoftSwitch& ss1() const {
    return const_cast<Scenario*>(this)->deployment_->fabric().ss1();
  }
  [[nodiscard]] const softswitch::SoftSwitch& ss2() const {
    return const_cast<Scenario*>(this)->deployment_->fabric().ss2();
  }
  [[nodiscard]] controller::Session& session() { return deployment_->session(); }
  [[nodiscard]] sim::Engine& engine() { return network_.engine(); }

  const Options options_;
  Tracer& tracer_;
  // Declaration order is destruction order in reverse: the network
  // (and every node in it) outlives the management plane, the
  // controller and the deployment that point into it.
  sim::Network network_;
  legacy::LegacySwitch* device_ = nullptr;
  std::vector<sim::Host*> hosts_;
  std::unique_ptr<mgmt::SnmpAgent> agent_;
  std::unique_ptr<mgmt::SwitchMib> mib_;
  std::unique_ptr<mgmt::SnmpDriver> driver_;
  controller::Controller controller_{"perfbench-ctrl"};
  std::optional<core::Deployment> deployment_;
  sim::LatencyRecorder recorder_;
  std::unique_ptr<sim::FaultInjector> faults_;

  std::uint64_t delivered_ = 0;   // on_receive hook calls (data frames)
  std::uint64_t gen_seq_ = 0;     // packets stamped by the generators
  ExactCounts latencies_;
  SimNanos window_begin_ = -1;
  SimNanos window_end_ = -1;
  std::vector<double> chunk_mpps_;  // delivered Mpps of each measured slice
  Snapshot before_;
  Snapshot after_;
  std::unique_ptr<HopTaps> taps_;

 private:
  void build_estate();
  void run_for(SimNanos duration);
};

std::unique_ptr<Scenario> make_scenario(const Options& options, Tracer& tracer);
bool known_workload(const std::string& name);

}  // namespace perfbench
