// Pins the soft switch's per-packet bill: busy time, per-core busy,
// counters and the latency each delivered packet was charged, at
// burst_size 1 and under adaptive bursts at light load. One scripted
// run walks the datapath through cache misses and hits, a table miss,
// a controller punt, a down ingress port, a crashed switch and the
// fail-standalone bridge it restarts into. The expected values are
// exact: the per-packet bill is rx/tx (rx_tx_burst_ns + rx_tx_pkt_ns),
// the RSS hash on a multi-core switch and the packet's marginal cost,
// with no replay setup and no poll sweep, so any drift in how a burst
// of one is served shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "openflow/channel.hpp"
#include "sim/network.hpp"
#include "softswitch/soft_switch.hpp"

namespace harmless {
namespace {

using bench::host_ip;
using bench::host_mac;
using bench::NativeRig;
using bench::RigOptions;
using softswitch::FailoverSpec;

constexpr sim::SimNanos kUs = 1'000;

struct Variant {
  std::size_t burst_size = 1;
  bool adaptive = false;
  bool flow_cache = true;
  std::size_t cores = 2;
};

struct Observed {
  sim::SimNanos busy_ns = 0;
  std::vector<sim::SimNanos> core_busy_ns;
  std::uint64_t pipeline_runs = 0;
  std::uint64_t packets_out = 0;
  std::uint64_t packet_ins = 0;
  std::uint64_t drops_no_match = 0;
  std::uint64_t drops_port_down = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t service_bursts = 0;
  std::uint64_t replay_groups = 0;
  std::uint64_t rx_queue_polls = 0;
  std::uint64_t rss_steered = 0;
  std::uint64_t dropped_restarting = 0;
  std::uint64_t standalone_packets = 0;
  std::uint64_t standalone_floods = 0;
  std::uint64_t received = 0;
  sim::SimNanos charged_ns = 0;  // sum of processing_ns over delivered packets
  std::uint64_t charge_digest = 0;  // FNV-1a over (host, arrival, processing_ns)

  [[nodiscard]] std::string describe() const {
    std::ostringstream out;
    out << "busy_ns=" << busy_ns << " core_busy_ns=[";
    for (const sim::SimNanos ns : core_busy_ns) out << ns << ",";
    out << "] pipeline_runs=" << pipeline_runs << " packets_out=" << packets_out
        << " packet_ins=" << packet_ins << " drops_no_match=" << drops_no_match
        << " drops_port_down=" << drops_port_down << " cache_hits=" << cache_hits
        << " cache_misses=" << cache_misses << " service_bursts=" << service_bursts
        << " replay_groups=" << replay_groups << " rx_queue_polls=" << rx_queue_polls
        << " rss_steered=" << rss_steered << " dropped_restarting=" << dropped_restarting
        << " standalone_packets=" << standalone_packets
        << " standalone_floods=" << standalone_floods << " received=" << received
        << " charged_ns=" << charged_ns << " charge_digest=" << charge_digest;
    return out.str();
  }
};

void fnv_fold(std::uint64_t& digest, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (value >> (byte * 8)) & 0xff;
    digest *= 0x100000001b3ULL;
  }
}

/// The scripted run. Host i sits on OF port i+1 with an exact L2 rule;
/// a fifth MAC punts to the controller and a sixth matches nothing.
/// The control channel has no controller on its far end, so punts are
/// lost on the wire and the restart after the crash comes back
/// disconnected — in fail-standalone mode, bridging by MAC learning.
Observed run_script(const Variant& variant) {
  RigOptions options;
  options.fabric.burst_size = variant.burst_size;
  options.fabric.ingress.scheduler.adaptive_burst = variant.adaptive;
  options.fabric.flow_cache = variant.flow_cache;
  options.fabric.ingress.cores.cores = variant.cores;
  options.fabric.ingress.cores.rss = sim::RssPolicy::kStride;  // ports alternate cores
  options.fabric.ss2_failover.mode = FailoverSpec::Mode::kFailStandalone;
  options.fabric.ss2_failover.echo_interval_ns = 1'000'000'000;  // no probe fires inside the run
  NativeRig rig(options);
  softswitch::SoftSwitch& sw = *rig.datapath;
  openflow::ControlChannel channel(rig.network.engine());
  sw.attach_channel(channel);

  const net::MacAddr punt_mac = host_mac(4);
  const net::MacAddr unknown_mac = host_mac(5);
  openflow::FlowModMsg punt;
  punt.table_id = 0;
  punt.priority = 10;
  punt.match.eth_dst(punt_mac);
  punt.instructions = openflow::apply({openflow::to_controller()});
  sw.install(punt).check();

  Observed observed;
  observed.charge_digest = 0xcbf29ce484222325ULL;
  sim::Engine& engine = rig.network.engine();
  for (std::size_t h = 0; h < rig.hosts.size(); ++h)
    rig.hosts[h]->set_on_receive([&observed, &engine, h](const net::Packet& packet,
                                                         const net::ParsedPacket&) {
      ++observed.received;
      observed.charged_ns += packet.processing_ns();
      fnv_fold(observed.charge_digest, h);
      fnv_fold(observed.charge_digest, static_cast<std::uint64_t>(engine.now()));
      fnv_fold(observed.charge_digest, static_cast<std::uint64_t>(packet.processing_ns()));
    });

  auto at = [&engine](sim::SimNanos t, auto fn) { engine.schedule_at(t, std::move(fn)); };
  // Healthy pipeline: two opposing elephants (first packet misses,
  // the rest hit), a table-miss stream and a controller punt stream.
  at(0, [&rig] { rig.stream(0, 1, 40, 64, 2 * kUs); });
  at(kUs / 2, [&rig] { rig.stream(1, 0, 40, 128, 2 * kUs); });
  at(kUs / 4, [&rig, unknown_mac] {
    rig.hosts[2]->send_udp_stream(unknown_mac, host_ip(5), 8, 64, 5 * kUs);
  });
  at(3 * kUs / 4, [&rig, punt_mac] {
    rig.hosts[3]->send_udp_stream(punt_mac, host_ip(4), 4, 64, 7 * kUs);
  });
  // A down ingress port drops before the pipeline; outputs towards it
  // drop at resolve time.
  at(150 * kUs, [&sw] { sw.set_port_state(4, false); });
  at(160 * kUs, [&rig] { rig.stream(3, 0, 6, 64, 3 * kUs); });
  at(161 * kUs, [&rig] { rig.stream(2, 3, 6, 64, 3 * kUs); });
  at(200 * kUs, [&sw] { sw.set_port_state(4, true); });
  at(210 * kUs, [&rig] { rig.stream(2, 3, 10, 64, 2 * kUs); });
  // Crash: the rebooting box drops every arrival; the restart wipes
  // the tables and comes back in fail-standalone bridging.
  at(300 * kUs, [&sw] { sw.fault_crash(); });
  at(310 * kUs, [&rig] { rig.stream(0, 1, 12, 64, 2 * kUs); });
  at(400 * kUs, [&sw] { sw.fault_restart(); });
  at(410 * kUs, [&rig] { rig.stream(0, 1, 20, 64, 2 * kUs); });
  at(411 * kUs, [&rig] { rig.stream(1, 0, 20, 256, 2 * kUs); });
  at(412 * kUs, [&rig] { rig.stream(2, 1, 10, 64, 3 * kUs); });
  rig.network.run_until(1'000 * kUs);

  observed.busy_ns = sw.busy_ns();
  for (std::size_t core = 0; core < sw.core_count(); ++core)
    observed.core_busy_ns.push_back(sw.core_stats(core).busy_ns);
  const auto& c = sw.counters();
  observed.pipeline_runs = c.pipeline_runs;
  observed.packets_out = c.packets_out;
  observed.packet_ins = c.packet_ins;
  observed.drops_no_match = c.drops_no_match;
  observed.drops_port_down = c.drops_port_down;
  observed.cache_hits = c.cache_hits;
  observed.cache_misses = c.cache_misses;
  observed.service_bursts = c.service_bursts;
  observed.replay_groups = c.replay_groups;
  observed.rx_queue_polls = c.rx_queue_polls;
  observed.rss_steered = c.rss_steered;
  const auto& f = sw.failover_stats();
  observed.dropped_restarting = f.dropped_restarting;
  observed.standalone_packets = f.standalone_packets;
  observed.standalone_floods = f.standalone_floods;
  return observed;
}

TEST(PerPacketPin, BurstOfOneTwoCores) {
  const Observed observed = run_script({/*burst_size=*/1, /*adaptive=*/false,
                                        /*flow_cache=*/true, /*cores=*/2});
  EXPECT_EQ(observed.service_bursts, 0u);
  EXPECT_EQ(observed.replay_groups, 0u);
  EXPECT_EQ(observed.rx_queue_polls, 0u);
  const Observed expected{
      .busy_ns = 14987, .core_busy_ns = {8966, 6021}, .pipeline_runs = 176, .packets_out = 166,
      .packet_ins = 4, .drops_no_match = 8, .drops_port_down = 12, .cache_hits = 99,
      .cache_misses = 9, .service_bursts = 0, .replay_groups = 0, .rx_queue_polls = 0,
      .rss_steered = 176, .dropped_restarting = 12, .standalone_packets = 50,
      .standalone_floods = 13, .received = 140, .charged_ns = 12536,
      .charge_digest = 468681398271520284ULL};
  EXPECT_EQ(observed.describe(), expected.describe());
}

TEST(PerPacketPin, BurstOfOneCacheOffOneCore) {
  const Observed observed = run_script({/*burst_size=*/1, /*adaptive=*/false,
                                        /*flow_cache=*/false, /*cores=*/1});
  EXPECT_EQ(observed.service_bursts, 0u);
  EXPECT_EQ(observed.replay_groups, 0u);
  EXPECT_EQ(observed.rx_queue_polls, 0u);
  const Observed expected{
      .busy_ns = 16990, .core_busy_ns = {16990}, .pipeline_runs = 176, .packets_out = 180,
      .packet_ins = 4, .drops_no_match = 8, .drops_port_down = 12, .cache_hits = 0,
      .cache_misses = 0, .service_bursts = 0, .replay_groups = 0, .rx_queue_polls = 0,
      .rss_steered = 0, .dropped_restarting = 12, .standalone_packets = 50,
      .standalone_floods = 20, .received = 140, .charged_ns = 14480,
      .charge_digest = 11892788999917523117ULL};
  EXPECT_EQ(observed.describe(), expected.describe());
}

TEST(PerPacketPin, AdaptiveBurstAtLightLoad) {
  const Observed observed = run_script({/*burst_size=*/32, /*adaptive=*/true,
                                        /*flow_cache=*/true, /*cores=*/2});
  const Observed expected{
      .busy_ns = 13791, .core_busy_ns = {7842, 5949}, .pipeline_runs = 176, .packets_out = 180,
      .packet_ins = 4, .drops_no_match = 8, .drops_port_down = 12, .cache_hits = 99,
      .cache_misses = 9, .service_bursts = 18, .replay_groups = 11, .rx_queue_polls = 36,
      .rss_steered = 176, .dropped_restarting = 12, .standalone_packets = 50,
      .standalone_floods = 20, .received = 140, .charged_ns = 11571,
      .charge_digest = 1459349213432574304ULL};
  EXPECT_EQ(observed.describe(), expected.describe());
}

}  // namespace
}  // namespace harmless
