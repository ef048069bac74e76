// perfbench/cpp/scenario.cpp — the part every workload shares: the
// legacy estate, its migration, the measured phase, the common output
// checks and the count/sim metrics read from the public stats.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"
#include "taps.hpp"
#include "mgmt/dialects.hpp"
#include "sim/faults.hpp"
#include "util/strings.hpp"

namespace perfbench {

// ---- Tracer ----------------------------------------------------------------

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return i;
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t Tracer::begin(std::string_view name, std::uint64_t request) {
  if (!enabled_ || name.empty()) return -1;
  Span span;
  span.name = intern(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request;
  span.start_ns = host_now_ns();
  spans_.push_back(span);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id, std::uint64_t ops) {
  if (!enabled_ || id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = host_now_ns();
  span.ops = ops;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_)
    if (span.parent >= 0) child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Totals& totals = out[names_[span.name]];
    totals.total_ns += span.end_ns - span.start_ns;
    totals.self_ns += span.end_ns - span.start_ns - child_ns[i];
    totals.ops += span.ops;
    ++totals.spans;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << names_[span.name] << "\",\"parent\":" << span.parent
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"request\":" << span.request << ",\"ops\":" << span.ops << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- Checks / percentiles --------------------------------------------------

bool Checks::expect(bool ok, const std::string& name, const std::string& detail) {
  if (!ok) {
    failures_.push_back(name);
    std::fprintf(stderr, "CHECK FAILED [%s] %s%s%s\n", workload_.c_str(), name.c_str(),
                 detail.empty() ? "" : ": ", detail.c_str());
  }
  return ok;
}

void ExactCounts::add(std::int64_t value) {
  if (value < 0) throw std::logic_error("negative duration sample");
  ++total_;
  if (value >= kDense) {
    ++sparse_[value];
    return;
  }
  const auto index = static_cast<std::size_t>(value);
  if (index >= dense_.size()) dense_.resize(std::max(index + 1, dense_.size() * 2), 0);
  ++dense_[index];
}

double ExactCounts::percentile(double q) const {
  if (total_ == 0) return 0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))), 1, total_);
  std::uint64_t seen = 0;
  for (std::size_t value = 0; value < dense_.size(); ++value)
    if ((seen += dense_[value]) >= rank) return static_cast<double>(value);
  for (const auto& [value, count] : sparse_)
    if ((seen += count) >= rank) return static_cast<double>(value);
  return 0;  // unreachable: the counts sum to total_
}

// ---- Scenario ----------------------------------------------------------

namespace {

net::MacAddr host_mac(int index) {
  return net::MacAddr::from_u64(0x020000000001ULL + static_cast<std::uint64_t>(index));
}
net::Ipv4Addr host_ip(int index) {
  return net::Ipv4Addr(0x0a000001u + static_cast<std::uint32_t>(index));
}

SimNanos wire_ns(const sim::LinkSpec& spec, std::size_t bytes) {
  return spec.rate.serialization_ns(bytes) + spec.propagation_delay;
}

}  // namespace

Scenario::Scenario(const Options& options, Tracer& tracer) : options_(options), tracer_(tracer) {}

Scenario::~Scenario() = default;

sim::LinkSpec Scenario::access_link(int index) const {
  (void)index;
  return sim::LinkSpec::gbps(1);
}

void Scenario::build_estate() {
  // A factory-default access switch: every port in VLAN 1.
  legacy::SwitchConfig factory;
  factory.hostname = util::format("closet-%s", name().c_str());
  for (int port = 1; port <= kTrunkPort; ++port) factory.ports[port] = legacy::PortConfig{};
  device_ = &network_.add_node<legacy::LegacySwitch>("legacy", factory);
  for (int i = 0; i < kAccessPorts; ++i) {
    sim::Host& host = network_.add_host(util::format("h%d", i + 1), host_mac(i), host_ip(i));
    network_.connect(host, 0, *device_, static_cast<std::size_t>(i), access_link(i));
    host.set_recorder(&recorder_);
    hosts_.push_back(&host);
  }
  agent_ = std::make_unique<mgmt::SnmpAgent>();
  mib_ = std::make_unique<mgmt::SwitchMib>(*agent_, *device_);
  driver_ = std::make_unique<mgmt::SnmpDriver>(*agent_, mgmt::make_ios_like_dialect());
}

void Scenario::run_for(SimNanos duration) { network_.run_until(network_.now() + duration); }

void Scenario::setup() {
  Scope setup_span(tracer_, "setup");
  build_estate();
  install_apps();

  core::MigrationRequest request;
  for (int port = 1; port <= kAccessPorts; ++port) request.access_ports.push_back(port);
  request.trunk_port = kTrunkPort;
  request.fabric.trunk_link = sim::LinkSpec::gbps(10);
  request.fabric.expected_pending_events = 1 << 15;
  shape_fabric(request.fabric);

  core::HarmlessManager manager(*driver_, *device_, network_);
  const std::int64_t t0 = host_now_ns();
  std::pair<core::MigrationReport, std::optional<core::Deployment>> migrated;
  {
    Scope span(tracer_, "harmless.migrate");
    migrated = manager.migrate(request, controller_);
  }
  migrate_ms = static_cast<double>(host_now_ns() - t0) / 1e6;
  if (!migrated.first.success || !migrated.second)
    throw std::runtime_error("migration failed: " + migrated.first.failure);
  deployment_ = std::move(migrated.second);

  if (tracer_.enabled()) {
    // Replay the two heavy migration steps on a fresh, identical
    // estate: the rendered config through the driver (push), then the
    // fabric build around the pushed device.
    sim::Network replay_net;
    legacy::SwitchConfig factory;
    for (int port = 1; port <= kTrunkPort; ++port) factory.ports[port] = legacy::PortConfig{};
    auto& device = replay_net.add_node<legacy::LegacySwitch>("legacy", factory);
    mgmt::SnmpAgent agent;
    mgmt::SwitchMib mib(agent, device);
    mgmt::SnmpDriver driver(agent, mgmt::make_ios_like_dialect());
    std::int64_t t = host_now_ns();
    {
      Scope span(tracer_, "mgmt.push");
      driver.load_merge_candidate(migrated.first.rendered_config).check();
      (void)driver.compare_config();
      driver.commit_config().check();
    }
    mgmt_push_ms = static_cast<double>(host_now_ns() - t) / 1e6;
    t = host_now_ns();
    {
      Scope span(tracer_, "harmless.fabric_build");
      auto fabric = core::Fabric::build(replay_net, device, *migrated.first.port_map, request.fabric);
      (void)fabric;
    }
    fabric_build_ms = static_cast<double>(host_now_ns() - t) / 1e6;
  }

  {
    Scope span(tracer_, "controller.program");
    run_for(1'000'000);  // OF handshake + the apps' flow programming
  }
  after_migration();
  {
    Scope span(tracer_, "warmup");
    start_traffic();
    run_for(warmup_ns());
  }
}

void Scenario::take_snapshot(Snapshot& snap) const {
  auto& self = const_cast<Scenario&>(*this);
  snap.at = network_.now();
  snap.events = self.network_.engine().events_dispatched();
  snap.frame_copies = net::Packet::frame_copies();
  snap.delivered = delivered_;
  snap.ss1 = ss1().counters();
  snap.ss2 = ss2().counters();
  snap.ss1_cores.clear();
  snap.ss2_cores.clear();
  for (std::size_t c = 0; c < ss1().core_count(); ++c) snap.ss1_cores.push_back(ss1().core_stats(c));
  for (std::size_t c = 0; c < ss2().core_count(); ++c) snap.ss2_cores.push_back(ss2().core_stats(c));
  snap.ss2_cache = {};
  const openflow::Pipeline& pipeline = ss2().pipeline();
  for (std::size_t s = 0; s < pipeline.shard_count(); ++s) {
    const auto& stats = pipeline.cache(s).stats();
    snap.ss2_cache.hits += stats.hits;
    snap.ss2_cache.microflow_hits += stats.microflow_hits;
    snap.ss2_cache.megaflow_hits += stats.megaflow_hits;
    snap.ss2_cache.misses += stats.misses;
    snap.ss2_cache.insertions += stats.insertions;
    snap.ss2_cache.invalidations += stats.invalidations;
    snap.ss2_cache.evictions += stats.evictions;
    snap.ss2_cache.subtable_probes += stats.subtable_probes;
  }
  const auto& channel = self.deployment_->fabric().control_channel();
  const auto dropped = [](const openflow::ControlChannel::DirectionStats& d) {
    return d.dropped_down + d.dropped_loss + d.dropped_no_handler;
  };
  snap.ctl_sent = channel.to_switch().sent + channel.to_controller().sent;
  snap.ctl_dropped = dropped(channel.to_switch()) + dropped(channel.to_controller());
  snap.packet_ins = controller_.stats().packet_ins;
  snap.checkpoint_bytes = ss2().failover_stats().checkpoint_bytes;
  snapshot_extra(snap);
}

void Scenario::measure() {
  const SimNanos duration =
      static_cast<SimNanos>(options_.seconds * static_cast<double>(sim_ns_per_second()));
  if (options_.fault_link_down) {
    // Self-test fault: host h1's access cable goes down halfway through.
    faults_ = std::make_unique<sim::FaultInjector>(engine());
    deployment_->fabric().register_faults(*faults_, network_);
    sim::FaultPlan plan;
    plan.down("link:h1:0->legacy", network_.now() + duration / 2);
    faults_->arm(plan);
  }
  if (tracer_.enabled()) {
    taps_ = std::make_unique<HopTaps>();
    for (const auto& channel : network_.channels()) {
      const std::string& label = channel->label();
      const std::size_t arrow = label.find("->");
      const std::string from = label.substr(0, label.find(':'));
      const std::string to = label.substr(arrow + 2);
      HopTaps::Role role;
      if (to == "legacy")
        role = from == "SS_1" ? HopTaps::Role::kS4ToLegacy : HopTaps::Role::kHostToLegacy;
      else if (from == "legacy")
        role = to == "SS_1" ? HopTaps::Role::kLegacyToS4 : HopTaps::Role::kLegacyToHost;
      else
        continue;
      int in_port = -1;  // legacy sim port the frame enters on
      if (role == HopTaps::Role::kS4ToLegacy) in_port = kTrunkPort - 1;
      if (role == HopTaps::Role::kHostToLegacy) in_port = std::stoi(from.substr(1)) - 1;
      const sim::LinkSpec spec = channel->spec();
      HopTaps* taps = taps_.get();
      const Scenario* self = this;
      channel->set_tap([taps, role, in_port, spec, self](SimNanos at, const net::Packet& packet) {
        if (packet.created_at() < self->window_begin_) return;
        if (taps->delivery_times.size() < 4 * HopTaps::kCaptureCap)
          taps->delivery_times.push_back(at);
        if (role == HopTaps::Role::kHostToLegacy || role == HopTaps::Role::kS4ToLegacy)
          ++taps->legacy_ingress;
        const SimNanos wire = wire_ns(spec, packet.size());
        taps->wire.add(wire);
        switch (role) {
          case HopTaps::Role::kHostToLegacy:
            taps->hops[packet.id()] = at;
            break;
          case HopTaps::Role::kLegacyToS4:
          case HopTaps::Role::kS4ToLegacy:
          case HopTaps::Role::kLegacyToHost: {
            const auto it = taps->hops.find(packet.id());
            if (it == taps->hops.end()) break;
            auto& samples = role == HopTaps::Role::kS4ToLegacy ? taps->residence_s4
                                                               : taps->residence_legacy;
            samples.add(at - it->second - wire);
            it->second = at;
            if (role == HopTaps::Role::kLegacyToHost) taps->hops.erase(it);
            break;
          }
        }
        if (role == HopTaps::Role::kHostToLegacy || role == HopTaps::Role::kS4ToLegacy) {
          if (taps->legacy_in.size() < HopTaps::kCaptureCap)
            taps->legacy_in.emplace_back(in_port, packet.clone());
        } else if (role == HopTaps::Role::kLegacyToS4) {
          if (taps->s4_in.size() < HopTaps::kCaptureCap) taps->s4_in.push_back(packet.clone());
        }
      });
    }
  }

  take_snapshot(before_);
  window_begin_ = network_.now();
  constexpr SimNanos kSlice = 1'000'000;
  // The window runs in kChunks equal slices of simulated time, each
  // timed on its own: host_mpps is the median slice rate, so a burst of
  // contention from elsewhere on the host moves one slice, not the run.
  constexpr int kChunks = 25;
  chunk_mpps_.clear();
  Scope span(tracer_, "measure");
  for (int chunk = 1; chunk <= kChunks; ++chunk) {
    const SimNanos chunk_end = window_begin_ + duration * chunk / kChunks;
    const std::uint64_t delivered0 = delivered_;
    const std::int64_t c0 = host_now_ns();
    while (network_.now() < chunk_end) {
      {
        Scope slice(tracer_, "sim.run");
        network_.run_until(std::min(network_.now() + kSlice, chunk_end));
      }
      sample();
    }
    chunk_mpps_.push_back(static_cast<double>(delivered_ - delivered0) * 1e3 /
                          static_cast<double>(std::max<std::int64_t>(1, host_now_ns() - c0)));
  }
  window_end_ = network_.now();
  take_snapshot(after_);
  if (taps_) {
    // Frames captured by the taps were cloned outside the program's own
    // work; keep them out of the copy count.
    after_.frame_copies -= taps_->legacy_in.size() + taps_->s4_in.size();
  }
}

void Scenario::drain() {
  Scope span(tracer_, "drain");
  stop_traffic();
  run_for(5'000'000);
  if (taps_) {
    for (const auto& channel : network_.channels()) channel->set_tap(nullptr);
  }
}

void Scenario::note_delivery(const net::Packet& packet) {
  ++delivered_;
  if (window_begin_ >= 0 && packet.created_at() >= window_begin_ &&
      (window_end_ < 0 || packet.created_at() < window_end_))
    latencies_.add(network_.now() - packet.created_at());
}

std::uint64_t Scenario::window_packets() const { return after_.delivered - before_.delivered; }

double Scenario::host_mpps() const {
  std::vector<double> rates = chunk_mpps_;
  std::sort(rates.begin(), rates.end());
  return rates.empty() ? 0 : rates[rates.size() / 2];
}

void Scenario::check(Checks& checks) {
  checks.expect(recorder_.completed() == delivered_, "no-unknown-or-duplicate-ids",
                util::format("recorder completed %llu distinct ids, hosts received %llu",
                             static_cast<unsigned long long>(recorder_.completed()),
                             static_cast<unsigned long long>(delivered_)));
  if (!options_.fault_link_down) {
    checks.expect(ss1().queue_drops() == 0 && ss2().queue_drops() == 0 &&
                      device_->queue_drops() == 0,
                  "no-rx-queue-drops",
                  util::format("SS_1 %llu, SS_2 %llu, legacy %llu",
                               static_cast<unsigned long long>(ss1().queue_drops()),
                               static_cast<unsigned long long>(ss2().queue_drops()),
                               static_cast<unsigned long long>(device_->queue_drops())));
    std::uint64_t link_drops = 0;
    for (const auto& channel : network_.channels()) link_drops += channel->drops();
    checks.expect(link_drops == 0, "no-link-drops", std::to_string(link_drops) + " frames");
  }
  checks.expect(latencies_.size() >= 1000, "p99-has-10-samples-beyond",
                std::to_string(latencies_.size()) + " latency samples");
  check_workload(checks);
}

void Scenario::count_metrics(Sheet& sheet) const {
  const double pkts = static_cast<double>(std::max<std::uint64_t>(1, window_packets()));
  const auto sum_busy = [](const std::vector<softswitch::SoftSwitch::CoreStats>& a,
                           const std::vector<softswitch::SoftSwitch::CoreStats>& b,
                           SimNanos* max_core, double* packets, double* bursts) {
    SimNanos total = 0;
    *max_core = 0;
    *packets = 0;
    *bursts = 0;
    for (std::size_t c = 0; c < b.size(); ++c) {
      const SimNanos busy = b[c].busy_ns - a[c].busy_ns;
      total += busy;
      *max_core = std::max(*max_core, busy);
      *packets += static_cast<double>(b[c].packets - a[c].packets);
      *bursts += static_cast<double>(b[c].bursts - a[c].bursts);
    }
    return total;
  };
  SimNanos ss1_max = 0, ss2_max = 0;
  double ss1_pkts = 0, ss2_pkts = 0, ss1_bursts = 0, ss2_bursts = 0;
  const SimNanos ss1_busy =
      sum_busy(before_.ss1_cores, after_.ss1_cores, &ss1_max, &ss1_pkts, &ss1_bursts);
  const SimNanos ss2_busy =
      sum_busy(before_.ss2_cores, after_.ss2_cores, &ss2_max, &ss2_pkts, &ss2_bursts);

  // End-to-end modelled numbers. Every fabric packet crosses SS_2 once
  // (and SS_1 twice): capacity is the fabric packet rate at which the
  // busiest core of either switch saturates.
  const double bottleneck = static_cast<double>(std::max(ss1_max, ss2_max));
  sheet["sim_capacity_mpps"] = {ss2_pkts / std::max(1.0, bottleneck) * 1e3, "Mpps"};
  sheet["sim_latency_p50_us"] = {latencies_.percentile(0.50) / 1e3, "us"};
  sheet["sim_latency_p99_us"] = {latencies_.percentile(0.99) / 1e3, "us"};
  sheet["bench.latency_samples"] = {static_cast<double>(latencies_.size()), "count"};

  // Per-layer counts and modelled times.
  sheet["sim.events_per_pkt"] = {static_cast<double>(after_.events - before_.events) / pkts, "events"};
  sheet["net.frame_copies_per_pkt"] = {
      static_cast<double>(after_.frame_copies - before_.frame_copies) / pkts, "copies"};
  std::size_t peak1 = 0, peak2 = 0;
  std::uint64_t drops1 = 0, drops2 = 0;
  for (std::uint32_t p = 1; p <= ss1().of_port_count(); ++p) {
    peak1 = std::max(peak1, ss1().rx_queue_peak_depth(p));
    drops1 += ss1().rx_queue_drops(p);
  }
  for (std::uint32_t p = 1; p <= ss2().of_port_count(); ++p) {
    peak2 = std::max(peak2, ss2().rx_queue_peak_depth(p));
    drops2 += ss2().rx_queue_drops(p);
  }
  sheet["sim.rxq_peak_depth.ss1"] = {static_cast<double>(peak1), "packets"};
  sheet["sim.rxq_peak_depth.ss2"] = {static_cast<double>(peak2), "packets"};
  sheet["sim.rxq_drops.ss1"] = {static_cast<double>(drops1), "count"};
  sheet["sim.rxq_drops.ss2"] = {static_cast<double>(drops2), "count"};

  const auto& c0 = before_.ss2_cache;
  const auto& c1 = after_.ss2_cache;
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double lookups = std::max(1.0, hits + static_cast<double>(c1.misses - c0.misses));
  const double micro = static_cast<double>(c1.microflow_hits - c0.microflow_hits);
  const double kpkt = std::max(1.0, ss2_pkts / 1e3);
  sheet["openflow.cache_hit_ratio"] = {hits / lookups, "ratio"};
  sheet["openflow.microflow_hit_ratio"] = {micro / lookups, "ratio"};
  sheet["openflow.subtable_probes_per_lookup"] = {
      static_cast<double>(c1.subtable_probes - c0.subtable_probes) / std::max(1.0, lookups - micro),
      "probes"};
  sheet["openflow.cache_insertions_per_kpkt"] = {
      static_cast<double>(c1.insertions - c0.insertions) / kpkt, "count/kpkt"};
  sheet["openflow.cache_evictions_per_kpkt"] = {
      static_cast<double>(c1.evictions - c0.evictions) / kpkt, "count/kpkt"};
  sheet["openflow.cache_invalidations_per_kpkt"] = {
      static_cast<double>(c1.invalidations - c0.invalidations) / kpkt, "count/kpkt"};
  sheet["openflow.ctl_msgs"] = {static_cast<double>(after_.ctl_sent - before_.ctl_sent), "count"};
  sheet["openflow.ctl_dropped"] = {static_cast<double>(after_.ctl_dropped - before_.ctl_dropped),
                                   "count"};
  const auto& s0 = before_.ss2;
  const auto& s1 = after_.ss2;
  sheet["openflow.ct_created"] = {static_cast<double>(s1.ct_created - s0.ct_created), "count"};
  sheet["openflow.ct_expired"] = {static_cast<double>(s1.ct_expired - s0.ct_expired), "count"};
  sheet["openflow.ct_evicted"] = {static_cast<double>(s1.ct_evicted - s0.ct_evicted), "count"};
  sheet["openflow.ct_invalid"] = {static_cast<double>(s1.ct_invalid - s0.ct_invalid), "count"};
  sheet["openflow.ct_nat_failures"] = {static_cast<double>(s1.ct_nat_failures - s0.ct_nat_failures),
                                       "count"};

  sheet["softswitch.busy_ns_per_pkt.ss1"] = {
      static_cast<double>(ss1_busy) / std::max(1.0, ss1_pkts), "ns"};
  sheet["softswitch.busy_ns_per_pkt.ss2"] = {
      static_cast<double>(ss2_busy) / std::max(1.0, ss2_pkts), "ns"};
  sheet["softswitch.pkts_per_burst.ss1"] = {ss1_pkts / std::max(1.0, ss1_bursts), "packets"};
  sheet["softswitch.pkts_per_burst.ss2"] = {ss2_pkts / std::max(1.0, ss2_bursts), "packets"};
  const double groups = static_cast<double>(after_.ss1.replay_groups - before_.ss1.replay_groups +
                                            after_.ss2.replay_groups - before_.ss2.replay_groups);
  sheet["softswitch.replay_groups_per_burst"] = {groups / std::max(1.0, ss1_bursts + ss2_bursts),
                                                 "groups"};
  const double mean_core = static_cast<double>(ss2_busy) / static_cast<double>(after_.ss2_cores.size());
  sheet["softswitch.core_busy_max_over_mean"] = {
      static_cast<double>(ss2_max) / std::max(1.0, mean_core), "ratio"};
  const double sim_s = static_cast<double>(after_.at - before_.at) / 1e9;
  sheet["softswitch.checkpoint_bytes_per_sim_s"] = {
      static_cast<double>(after_.checkpoint_bytes - before_.checkpoint_bytes) / sim_s, "B/s"};
  sheet["controller.flow_mods"] = {static_cast<double>(s1.flow_mods - s0.flow_mods), "count"};
  sheet["controller.packet_ins"] = {static_cast<double>(after_.packet_ins - before_.packet_ins),
                                    "count"};
  sheet["bench.window_packets"] = {static_cast<double>(window_packets()), "count"};
  sheet["bench.attempted"] = {static_cast<double>(attempted()), "count"};

  // Conntrack/replication rows; nat_conn_churn fills them in.
  sheet["openflow.ct_connections_peak"] = {0, "count"};
  sheet["softswitch.repl_deltas_per_conn"] = {0, "deltas"};
  sheet["softswitch.repl_dropped"] = {0, "count"};
  if (taps_) {
    sheet["sim.residence_ns_p50.legacy"] = {taps_->residence_legacy.percentile(0.50), "ns"};
    sheet["sim.residence_ns_p99.legacy"] = {taps_->residence_legacy.percentile(0.99), "ns"};
    sheet["sim.residence_ns_p50.ss1_ss2"] = {taps_->residence_s4.percentile(0.50), "ns"};
    sheet["sim.residence_ns_p99.ss1_ss2"] = {taps_->residence_s4.percentile(0.99), "ns"};
    sheet["sim.wire_ns_p50"] = {taps_->wire.percentile(0.50), "ns"};
  }
  workload_counts(sheet);
}

}  // namespace perfbench
