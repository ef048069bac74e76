// The transparency theorem, as a differential property test.
//
// The paper's core promise is that HARMLESS is "fully data
// plane-transparent": a controller program written for a plain
// OpenFlow switch behaves identically when SS_2 fronts a legacy switch
// through the translator. We check exactly that — for randomized OF
// programs and randomized traffic, the multiset of (receiving host,
// payload) deliveries on the HARMLESS fabric must equal the deliveries
// on a native software switch running the *same* rules with the *same*
// port numbering.
#include <gtest/gtest.h>

#include <map>

#include "bench/common.hpp"
#include "net/build.hpp"
#include "util/rng.hpp"

namespace harmless {
namespace {

using namespace net;
using namespace openflow;
using bench::HarmlessRig;
using bench::NativeRig;
using bench::RigOptions;
using bench::host_ip;
using bench::host_mac;

constexpr int kHosts = 5;

/// A randomized but meaningful OF program over `kHosts` ports: exact
/// L2 forwarding for a subset of hosts, an ACL dropping one TCP port,
/// one IP-pair allow with higher priority, and a flood or drop miss.
std::vector<FlowModMsg> random_program(util::Rng& rng) {
  std::vector<FlowModMsg> program;

  for (int host = 0; host < kHosts; ++host) {
    if (rng.chance(0.8)) {
      FlowModMsg mod;
      mod.table_id = 0;
      mod.priority = 10;
      mod.match.eth_dst(host_mac(host));
      mod.instructions = apply({output(static_cast<std::uint32_t>(host + 1))});
      program.push_back(std::move(mod));
    }
  }

  if (rng.chance(0.7)) {  // drop one destination port entirely
    FlowModMsg acl;
    acl.table_id = 0;
    acl.priority = 50;
    acl.match.eth_type(0x0800)
        .ip_proto(static_cast<std::uint8_t>(IpProto::kUdp))
        .l4_dst(static_cast<std::uint16_t>(7000 + rng.below(3)));
    acl.instructions = Instructions{};
    program.push_back(std::move(acl));
  }

  if (rng.chance(0.7)) {  // one privileged IP pair beats the ACL
    FlowModMsg allow;
    allow.table_id = 0;
    allow.priority = 60;
    const int src = static_cast<int>(rng.below(kHosts));
    const int dst = static_cast<int>(rng.below(kHosts));
    allow.match.eth_type(0x0800).ip_src(host_ip(src)).ip_dst(host_ip(dst));
    allow.instructions = apply({output(static_cast<std::uint32_t>(dst + 1))});
    program.push_back(std::move(allow));
  }

  FlowModMsg miss;
  miss.table_id = 0;
  miss.priority = 0;
  miss.instructions = rng.chance(0.5) ? apply({flood()}) : Instructions{};
  program.push_back(std::move(miss));
  return program;
}

struct TrafficItem {
  int from;
  int to;
  std::uint16_t dst_port;
  std::uint8_t fill;
  std::size_t size;
};

std::vector<TrafficItem> random_traffic(util::Rng& rng, std::size_t count) {
  std::vector<TrafficItem> traffic;
  for (std::size_t i = 0; i < count; ++i) {
    TrafficItem item;
    item.from = static_cast<int>(rng.below(kHosts));
    do {
      item.to = static_cast<int>(rng.below(kHosts));
    } while (item.to == item.from);
    item.dst_port = static_cast<std::uint16_t>(7000 + rng.below(5));
    item.fill = static_cast<std::uint8_t>(rng.below(256));
    item.size = 64 + rng.below(400);
    traffic.push_back(item);
  }
  return traffic;
}

/// Deliveries as a sorted multiset of (host, udp dst port, fill byte).
using Deliveries = std::map<std::tuple<int, std::uint16_t, unsigned>, int>;

template <typename Rig>
Deliveries run_scenario(const std::vector<FlowModMsg>& program,
                        const std::vector<TrafficItem>& traffic,
                        softswitch::SoftSwitch& datapath, Rig& rig) {
  // Wipe the rig's preinstalled L2 state; install the program.
  for (std::size_t t = 0; t < datapath.pipeline().table_count(); ++t)
    datapath.pipeline().table(t).remove(Match{}, /*strict=*/false);
  for (const FlowModMsg& mod : program) datapath.install(mod).check();

  Deliveries deliveries;
  for (int host = 0; host < kHosts; ++host) {
    rig.hosts[static_cast<std::size_t>(host)]->set_on_receive(
        [&deliveries, host](const net::Packet& packet, const ParsedPacket& parsed) {
          if (!parsed.udp) return;
          const std::string_view payload = l4_payload(parsed, packet.frame());
          const unsigned fill =
              payload.empty() ? 0u : static_cast<unsigned char>(payload.front());
          deliveries[{host, parsed.dst_port(), fill}]++;
        });
  }

  sim::SimNanos at = 0;
  for (const TrafficItem& item : traffic) {
    at += 5'000;  // paced: keep queues empty so nothing ever drops
    rig.network.engine().schedule_at(at, [&rig, item] {
      FlowKey key;
      key.eth_src = host_mac(item.from);
      key.eth_dst = host_mac(item.to);
      key.ip_src = host_ip(item.from);
      key.ip_dst = host_ip(item.to);
      key.src_port = 5555;
      key.dst_port = item.dst_port;
      rig.hosts[static_cast<std::size_t>(item.from)]->send(
          make_udp(key, item.size, item.fill));
    });
  }
  rig.network.run();
  return deliveries;
}

class Transparency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Transparency, HarmlessEqualsNativeForSameProgram) {
  util::Rng rng(GetParam());
  const auto program = random_program(rng);
  const auto traffic = random_traffic(rng, 120);

  RigOptions options;
  options.host_count = kHosts;
  options.access_link = sim::LinkSpec::gbps(1);
  options.fabric.trunk_link = sim::LinkSpec::gbps(10);

  NativeRig native(options);
  const Deliveries expected = run_scenario(program, traffic, *native.datapath, native);

  HarmlessRig harmless_rig(options);
  const Deliveries actual =
      run_scenario(program, traffic, harmless_rig.fabric->ss2(), harmless_rig);

  EXPECT_EQ(actual, expected) << "seed=" << GetParam() << " program size=" << program.size();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Transparency,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(Transparency, BroadcastFloodsIdentically) {
  RigOptions options;
  options.host_count = kHosts;

  auto run_broadcast = [](auto& rig, softswitch::SoftSwitch& datapath) {
    for (std::size_t t = 0; t < datapath.pipeline().table_count(); ++t)
      datapath.pipeline().table(t).remove(Match{}, /*strict=*/false);
    FlowModMsg miss;
    miss.priority = 0;
    miss.instructions = apply({flood()});
    datapath.install(miss).check();

    rig.hosts[0]->arp_request(host_ip(3));
    rig.network.run();
    std::vector<std::uint64_t> replies;
    for (auto* host : rig.hosts) replies.push_back(host->counters().rx_arp_reply);
    return replies;
  };

  NativeRig native(options);
  HarmlessRig harmless_rig(options);
  EXPECT_EQ(run_broadcast(harmless_rig, harmless_rig.fabric->ss2()),
            run_broadcast(native, *native.datapath));
  // And the requester did get an answer in both worlds.
  EXPECT_EQ(harmless_rig.hosts[0]->counters().rx_arp_reply, 1u);
}

}  // namespace
}  // namespace harmless
