// Differential property test for the VLAN rewrites that keep a
// Packet's interned parse (net/parse.hpp): after every vlan_push,
// vlan_pop and vlan_set_vid, an intern the rewrite kept must equal
// parse_packet of the new bytes, field by field, and the FieldView
// projected from it must equal build_field_view of a fresh parse.
// Frames are seeded-random — untagged, tagged and Q-in-Q; IPv4 UDP,
// TCP (with and without options) and ICMP; ARP; an unknown EtherType;
// runts — and each rewrite meets a frame with no intern, an intern, or
// an intern with a cached projection.
#include <gtest/gtest.h>

#include <utility>

#include "net/build.hpp"
#include "net/parse.hpp"
#include "openflow/fields.hpp"
#include "tests/net/tcp_options.hpp"
#include "util/rng.hpp"

namespace harmless::net {
namespace {

FlowKey random_key(util::Rng& rng) {
  FlowKey key;
  key.eth_src = MacAddr::from_u64(0x020000000000 | rng.below(8));
  key.eth_dst = MacAddr::from_u64(0x020000000000 | rng.below(8));
  key.ip_src = Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(rng.below(8)));
  key.ip_dst = Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(rng.below(8)));
  key.src_port = static_cast<std::uint16_t>(1024 + rng.below(100));
  key.dst_port = static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 53);
  return key;
}

VlanTag random_tag(util::Rng& rng) {
  return VlanTag{static_cast<VlanId>(rng.below(4096)), static_cast<std::uint8_t>(rng.below(8)),
                 rng.chance(0.2)};
}

Packet random_frame(util::Rng& rng) {
  const FlowKey key = random_key(rng);
  Packet packet;
  switch (rng.below(7)) {
    case 0: packet = make_udp(key, 60 + rng.below(300)); break;
    case 1: packet = make_tcp(key, kTcpAck, std::string(rng.below(40), 'x')); break;
    case 2:
      packet = with_tcp_options(make_http_get(key, "example.com"), 4 * (1 + rng.below(10)));
      break;
    case 3: packet = make_icmp_echo(key, rng.chance(0.5), 7, 9); break;
    case 4: packet = make_arp_request(key.eth_src, key.ip_src, key.ip_dst); break;
    case 5: packet = make_raw(key.eth_src, key.eth_dst, 0x88b5, Bytes(rng.below(64), 3)); break;
    default: {
      // A runt, sometimes claiming a tag it is too short to carry.
      Bytes frame(rng.below(20), 0x5a);
      if (frame.size() >= 14 && rng.chance(0.5)) wr16(std::span(frame), 12, 0x8100);
      packet = Packet(std::move(frame));
      break;
    }
  }
  for (std::uint64_t tags = rng.below(3); tags > 0; --tags)
    vlan_push(packet.frame(), random_tag(rng));  // 0, 1 or 2 (Q-in-Q) tags
  return packet;
}

void expect_same_parse(const ParsedPacket& kept, const ParsedPacket& fresh,
                       const std::string& where) {
  EXPECT_EQ(kept.l2_valid, fresh.l2_valid) << where;
  EXPECT_EQ(kept.eth_dst, fresh.eth_dst) << where;
  EXPECT_EQ(kept.eth_src, fresh.eth_src) << where;
  EXPECT_EQ(kept.eth_type, fresh.eth_type) << where;
  EXPECT_EQ(kept.vlan, fresh.vlan) << where;
  EXPECT_EQ(kept.arp, fresh.arp) << where;
  EXPECT_EQ(kept.ipv4, fresh.ipv4) << where;
  EXPECT_EQ(kept.udp, fresh.udp) << where;
  EXPECT_EQ(kept.tcp, fresh.tcp) << where;
  EXPECT_EQ(kept.icmp, fresh.icmp) << where;
  EXPECT_EQ(kept.l4_payload_offset, fresh.l4_payload_offset) << where;
  EXPECT_EQ(kept.l4_payload_size, fresh.l4_payload_size) << where;
}

class VlanInternEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VlanInternEquivalence, KeptInternEqualsFreshParse) {
  util::Rng rng(GetParam());
  int kept = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Packet packet = random_frame(rng);
    for (int step = 0; step < 6; ++step) {
      const auto in_port = static_cast<std::uint32_t>(1 + rng.below(4));
      switch (rng.below(3)) {
        case 0: packet.drop_intern(); break;
        case 1: parse_cached(packet); break;
        default: (void)openflow::cached_field_view(packet, in_port); break;
      }
      const std::uint64_t op = rng.below(3);
      if (op == 0) {
        vlan_push(packet, random_tag(rng));
      } else if (op == 1) {
        vlan_pop(packet);
      } else {
        vlan_set_vid(packet, static_cast<VlanId>(rng.below(4096)));
      }

      const std::string where = "seed=" + std::to_string(GetParam()) + " trial=" +
                                std::to_string(trial) + " step=" + std::to_string(step) +
                                " op=" + std::to_string(op);
      const PacketParse* intern = packet.intern();
      if (intern == nullptr) continue;
      ++kept;
      const ParsedPacket fresh = parse_packet(std::as_const(packet).frame());
      expect_same_parse(intern->parsed, fresh, where);
      const openflow::FieldView cached = openflow::cached_field_view(packet, in_port);
      const openflow::FieldView rebuilt = openflow::build_field_view(fresh, in_port);
      EXPECT_EQ(cached.present, rebuilt.present) << where;
      EXPECT_EQ(cached.values, rebuilt.values) << where;
    }
  }
  EXPECT_GT(kept, 500);  // the patch path, not just the drop path, ran
}

INSTANTIATE_TEST_SUITE_P(Seeds, VlanInternEquivalence, ::testing::Range<std::uint64_t>(1, 11));

TEST(VlanIntern, SingleTagRewritesKeepItAndQinQDropsIt) {
  FlowKey key;
  key.src_port = 1;
  key.dst_port = 2;
  Packet packet = make_udp(key, 100);
  const PacketParse* intern = &parse_cached(packet);

  vlan_push(packet, VlanTag{10, 0, false});
  EXPECT_EQ(packet.intern(), intern);
  EXPECT_EQ(packet.intern()->parsed.vlan_vid(), 10);
  EXPECT_TRUE(vlan_set_vid(packet, 20));
  EXPECT_EQ(packet.intern(), intern);
  EXPECT_EQ(packet.intern()->parsed.vlan_vid(), 20);
  EXPECT_TRUE(vlan_pop(packet).has_value());
  EXPECT_EQ(packet.intern(), intern);
  EXPECT_FALSE(packet.intern()->parsed.has_vlan());
  EXPECT_FALSE(vlan_pop(packet).has_value());  // untagged: nothing changes
  EXPECT_EQ(packet.intern(), intern);

  vlan_push(packet, VlanTag{10, 0, false});
  vlan_push(packet, VlanTag{30, 0, false});  // Q-in-Q
  EXPECT_EQ(packet.intern(), nullptr);
  parse_cached(packet);
  vlan_pop(packet);  // the inner tag becomes outermost
  EXPECT_EQ(packet.intern(), nullptr);
}

}  // namespace
}  // namespace harmless::net
