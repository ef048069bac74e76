// Differential property tests for the specialized (ESwitch-style)
// matcher. Rule sets and packets are generated pseudo-randomly from
// pools sized so collisions and overlaps happen constantly.
//
//  * Against the linear reference matcher: same hit/miss, same
//    priority, and an actually-matching entry.
//  * Against a scan reference written below (shapes in max-priority
//    order, each a priority-descending list walked with
//    Match::matches): the hashed shapes must return the same entry,
//    bill the same LookupCost and note the same FieldUse, because the
//    billed sim-ns and the learned megaflows are built from those.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/build.hpp"
#include "openflow/flow_table.hpp"
#include "util/rng.hpp"

namespace harmless::openflow {
namespace {

using namespace net;

struct Pools {
  std::vector<MacAddr> macs;
  std::vector<Ipv4Addr> ips;
  std::vector<std::uint16_t> ports{80, 443, 8080, 22};
  std::vector<std::uint32_t> in_ports{1, 2, 3, 4};

  explicit Pools(util::Rng& rng) {
    for (int i = 0; i < 6; ++i) macs.push_back(MacAddr::from_u64(0x020000000000 | i));
    for (int i = 0; i < 6; ++i)
      ips.push_back(Ipv4Addr(10, 0, static_cast<std::uint8_t>(rng.below(2)),
                             static_cast<std::uint8_t>(i)));
  }
};

Match random_match(util::Rng& rng, const Pools& pools) {
  Match match;
  if (rng.chance(0.4))
    match.in_port(pools.in_ports[rng.below(pools.in_ports.size())]);
  if (rng.chance(0.4)) match.eth_dst(pools.macs[rng.below(pools.macs.size())]);
  if (rng.chance(0.3)) match.eth_src(pools.macs[rng.below(pools.macs.size())]);
  if (rng.chance(0.5)) {
    match.eth_type(0x0800);
    if (rng.chance(0.5)) {
      if (rng.chance(0.3)) {
        // Prefix (wildcard shape).
        match.ip_dst_prefix(pools.ips[rng.below(pools.ips.size())],
                            static_cast<int>(8 + rng.below(24)));
      } else {
        match.ip_dst(pools.ips[rng.below(pools.ips.size())]);
      }
    }
    if (rng.chance(0.3)) match.ip_src(pools.ips[rng.below(pools.ips.size())]);
    if (rng.chance(0.4)) {
      match.ip_proto(17);
      if (rng.chance(0.6)) match.l4_dst(pools.ports[rng.below(pools.ports.size())]);
    }
  } else if (rng.chance(0.2)) {
    match.vlan_vid(static_cast<VlanId>(100 + rng.below(4)));
  } else if (rng.chance(0.2)) {
    match.vlan_absent();
  }
  return match;
}

Packet random_packet(util::Rng& rng, const Pools& pools) {
  FlowKey key;
  key.eth_src = pools.macs[rng.below(pools.macs.size())];
  key.eth_dst = pools.macs[rng.below(pools.macs.size())];
  key.ip_src = pools.ips[rng.below(pools.ips.size())];
  key.ip_dst = pools.ips[rng.below(pools.ips.size())];
  key.src_port = 1000;
  key.dst_port = pools.ports[rng.below(pools.ports.size())];
  Packet packet = rng.chance(0.85)
                      ? make_udp(key, 64 + rng.below(200))
                      : make_arp_request(key.eth_src, key.ip_src, key.ip_dst);
  if (rng.chance(0.3))
    vlan_push(packet.frame(), VlanTag{static_cast<VlanId>(100 + rng.below(4)), 0, false});
  return packet;
}

class MatcherDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatcherDifferential, SpecializedAgreesWithLinear) {
  util::Rng rng(GetParam());
  Pools pools(rng);

  const std::size_t rule_count = 1 + rng.below(60);
  std::vector<std::unique_ptr<FlowEntry>> owned;
  std::vector<FlowEntry*> raw;
  for (std::size_t i = 0; i < rule_count; ++i) {
    auto entry = std::make_unique<FlowEntry>();
    entry->priority = static_cast<std::uint16_t>(rng.below(40));
    entry->match = random_match(rng, pools);
    entry->instructions = apply({output(static_cast<std::uint32_t>(i + 1))});
    raw.push_back(entry.get());
    owned.push_back(std::move(entry));
  }

  LinearMatcher linear;
  SpecializedMatcher specialized;
  linear.rebuild(raw);
  specialized.rebuild(raw);

  for (int trial = 0; trial < 300; ++trial) {
    const Packet packet = random_packet(rng, pools);
    const FieldView view = build_field_view(parse_packet(packet),
                                            pools.in_ports[rng.below(pools.in_ports.size())]);
    LookupCost cost_linear, cost_specialized;
    FlowEntry* expect = linear.lookup(view, cost_linear);
    FlowEntry* actual = specialized.lookup(view, cost_specialized);

    if (expect == nullptr) {
      EXPECT_EQ(actual, nullptr) << "seed=" << GetParam() << " trial=" << trial;
      continue;
    }
    ASSERT_NE(actual, nullptr) << "seed=" << GetParam() << " trial=" << trial << " expected "
                               << expect->to_string();
    // Ties at equal priority may resolve to different entries; both
    // must genuinely match and carry the same (maximal) priority.
    EXPECT_EQ(actual->priority, expect->priority)
        << "seed=" << GetParam() << " trial=" << trial;
    EXPECT_TRUE(actual->match.matches(view));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---- the scan reference ----------------------------------------------

/// The lookup the hashed shapes must reproduce: entries grouped by
/// shape (fields + masks) in first-seen order, shapes tried in
/// max-priority order (stable), each shape's entries in priority order
/// (stable). An all-exact shape is one probe that notes every field
/// when the packet has them all (and only the missing ones otherwise)
/// and scans just the entries with the packet's key; any other shape
/// is scanned with Match::matches until the first hit.
class ScanReference {
 public:
  explicit ScanReference(const std::vector<FlowEntry*>& entries) {
    for (FlowEntry* entry : entries) {
      const Match& match = entry->match;
      auto it = std::find_if(shapes_.begin(), shapes_.end(), [&](const Shape& shape) {
        if (shape.fields != match.fields_present()) return false;
        for (std::size_t i = 0; i < kFieldCount; ++i)
          if ((shape.fields >> i & 1) && shape.masks[i] != match.mask_of(static_cast<Field>(i)))
            return false;
        return true;
      });
      if (it == shapes_.end()) {
        Shape shape;
        shape.fields = match.fields_present();
        for (std::size_t i = 0; i < kFieldCount; ++i)
          if (shape.fields >> i & 1) shape.masks[i] = match.mask_of(static_cast<Field>(i));
        shape.exact = match.all_exact();
        shapes_.push_back(shape);
        it = shapes_.end() - 1;
      }
      it->max_priority = std::max(it->max_priority, entry->priority);
      it->list.push_back(entry);
    }
    const auto by_priority = [](const FlowEntry* a, const FlowEntry* b) {
      return a->priority > b->priority;
    };
    for (Shape& shape : shapes_) std::stable_sort(shape.list.begin(), shape.list.end(), by_priority);
    std::stable_sort(shapes_.begin(), shapes_.end(), [](const Shape& a, const Shape& b) {
      return a.max_priority > b.max_priority;
    });
  }

  FlowEntry* lookup(const FieldView& view, LookupCost& cost) const {
    FlowEntry* best = nullptr;
    for (const Shape& shape : shapes_) {
      if (best != nullptr && best->priority >= shape.max_priority) break;
      FlowEntry* hit = nullptr;
      if (shape.exact) {
        const std::uint32_t missing = shape.fields & ~view.present;
        for (std::size_t i = 0; i < kFieldCount; ++i)
          if (missing != 0 ? (missing >> i & 1) : (shape.fields >> i & 1))
            view.note(static_cast<Field>(i), missing != 0 ? 0 : shape.masks[i]);
        if (missing != 0) continue;
        ++cost.hash_probes;
        for (FlowEntry* entry : shape.list) {
          bool same_key = true;
          for (std::size_t i = 0; i < kFieldCount; ++i)
            if ((shape.fields >> i & 1) &&
                (view.values[i] & shape.masks[i]) != entry->match.value_of(static_cast<Field>(i)))
              same_key = false;
          if (!same_key) continue;
          ++cost.entries_scanned;
          if (entry->match.matches(view)) {
            hit = entry;
            break;
          }
        }
      } else {
        for (FlowEntry* entry : shape.list) {
          ++cost.entries_scanned;
          if (entry->match.matches(view)) {
            hit = entry;
            break;
          }
        }
      }
      if (hit != nullptr && (best == nullptr || hit->priority > best->priority)) best = hit;
    }
    return best;
  }

 private:
  struct Shape {
    std::uint32_t fields = 0;
    std::array<std::uint64_t, kFieldCount> masks{};
    bool exact = false;
    std::uint16_t max_priority = 0;
    std::vector<FlowEntry*> list;
  };
  std::vector<Shape> shapes_;
};

/// Wider rule mix than random_match: prefix masks on both addresses,
/// masked vlan and tcp-flag fields, and the empty match.
Match random_wide_match(util::Rng& rng, const Pools& pools) {
  if (rng.chance(0.05)) return Match();
  Match match = random_match(rng, pools);
  if (rng.chance(0.25))
    match.ip_src_prefix(pools.ips[rng.below(pools.ips.size())], static_cast<int>(rng.below(33)));
  if (rng.chance(0.1)) match.vlan_any();
  if (rng.chance(0.1)) match.tcp_flags(kTcpAck, kTcpAck | kTcpSyn);
  if (rng.chance(0.1)) match.arp_op(1 + rng.below(2));
  return match;
}

Packet random_wide_packet(util::Rng& rng, const Pools& pools) {
  if (!rng.chance(0.2)) return random_packet(rng, pools);
  FlowKey key;
  key.eth_src = pools.macs[rng.below(pools.macs.size())];
  key.eth_dst = pools.macs[rng.below(pools.macs.size())];
  key.ip_src = pools.ips[rng.below(pools.ips.size())];
  key.ip_dst = pools.ips[rng.below(pools.ips.size())];
  key.src_port = 1000;
  key.dst_port = pools.ports[rng.below(pools.ports.size())];
  Packet packet = rng.chance(0.5)
                      ? make_tcp(key, rng.chance(0.5) ? kTcpAck : kTcpSyn)
                      : make_icmp_echo(key, true, 1, static_cast<std::uint16_t>(rng.below(9)));
  if (rng.chance(0.3))
    vlan_push(packet.frame(), VlanTag{static_cast<VlanId>(100 + rng.below(4)), 0, false});
  return packet;
}

class MatcherScanReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatcherScanReference, SameEntryCostAndNotedFields) {
  util::Rng rng(GetParam());
  Pools pools(rng);

  const std::size_t rule_count = 1 + rng.below(120);
  std::vector<std::unique_ptr<FlowEntry>> owned;
  std::vector<FlowEntry*> raw;
  for (std::size_t i = 0; i < rule_count; ++i) {
    auto entry = std::make_unique<FlowEntry>();
    if (!owned.empty() && rng.chance(0.2)) {
      // A duplicate match, at an equal or a distinct priority.
      const FlowEntry& twin = *owned[rng.below(owned.size())];
      entry->match = twin.match;
      entry->priority = rng.chance(0.5) ? twin.priority
                                        : static_cast<std::uint16_t>(rng.below(40));
    } else {
      entry->match = random_wide_match(rng, pools);
      entry->priority = static_cast<std::uint16_t>(rng.below(40));
    }
    entry->instructions = apply({output(static_cast<std::uint32_t>(i + 1))});
    raw.push_back(entry.get());
    owned.push_back(std::move(entry));
  }

  const ScanReference reference(raw);
  SpecializedMatcher specialized;
  specialized.rebuild(raw);

  for (int trial = 0; trial < 400; ++trial) {
    const Packet packet = random_wide_packet(rng, pools);
    FieldView view = build_field_view(parse_packet(packet),
                                      pools.in_ports[rng.below(pools.in_ports.size())]);
    FieldUse use_reference, use_specialized;
    LookupCost cost_reference, cost_specialized;
    view.use = &use_reference;
    FlowEntry* expect = reference.lookup(view, cost_reference);
    view.use = &use_specialized;
    FlowEntry* actual = specialized.lookup(view, cost_specialized);

    const std::string where = "seed=" + std::to_string(GetParam()) +
                              " trial=" + std::to_string(trial);
    EXPECT_EQ(actual, expect) << where;
    EXPECT_EQ(cost_specialized.entries_scanned, cost_reference.entries_scanned) << where;
    EXPECT_EQ(cost_specialized.hash_probes, cost_reference.hash_probes) << where;
    EXPECT_EQ(use_specialized.examined, use_reference.examined) << where;
    EXPECT_EQ(use_specialized.masks, use_reference.masks) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherScanReference,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(SpecializedMatcher, PrefixShapeStopsAtTheDecidingField) {
  // 300 rules of one wildcarded shape (eth_type, ip_dst/24, l4_dst).
  // A packet whose /24 no rule carries is decided at ip_dst: l4_dst is
  // never noted, and the miss bills the whole list like the scan does.
  std::vector<std::unique_ptr<FlowEntry>> owned;
  std::vector<FlowEntry*> raw;
  for (int i = 0; i < 300; ++i) {
    auto entry = std::make_unique<FlowEntry>();
    entry->priority = static_cast<std::uint16_t>(1000 - i);
    entry->match = Match().eth_type(0x0800).ip_dst_prefix(
        Ipv4Addr(10, static_cast<std::uint8_t>(i % 3), static_cast<std::uint8_t>(i), 0), 24);
    entry->match.l4_dst(static_cast<std::uint16_t>(i));
    entry->instructions = apply({output(1)});
    raw.push_back(entry.get());
    owned.push_back(std::move(entry));
  }
  SpecializedMatcher matcher;
  matcher.rebuild(raw);
  ASSERT_EQ(matcher.shape_count(), 1u);

  FlowKey key;
  key.ip_dst = Ipv4Addr(10, 0, 77, 9);  // rule 77 has 10.2.77.0/24; none has 10.0.77.0/24
  key.dst_port = 5;
  FieldView view = build_field_view(parse_packet(make_udp(key, 64)), 1);
  FieldUse use;
  view.use = &use;
  LookupCost cost;
  EXPECT_EQ(matcher.lookup(view, cost), nullptr);
  EXPECT_EQ(cost.entries_scanned, 300u);
  EXPECT_EQ(cost.hash_probes, 0u);
  EXPECT_EQ(use.examined, field_bit(Field::kEthType) | field_bit(Field::kIpDst));

  // Rank 200's rule: a hit bills rank + 1 and notes every shape field.
  key.ip_dst = Ipv4Addr(10, 200 % 3, 200, 1);
  key.dst_port = 200;
  view = build_field_view(parse_packet(make_udp(key, 64)), 1);
  FieldUse hit_use;
  view.use = &hit_use;
  LookupCost hit_cost;
  FlowEntry* hit = matcher.lookup(view, hit_cost);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->priority, 800);
  EXPECT_EQ(hit_cost.entries_scanned, 201u);
  EXPECT_EQ(hit_use.examined, field_bit(Field::kEthType) | field_bit(Field::kIpDst) |
                                  field_bit(Field::kL4Dst));
}

TEST(SpecializedMatcher, CompilesExactShapesToHashTables) {
  // 1000 exact L2 rules + 1 wildcard: lookups must not scan 1000.
  std::vector<std::unique_ptr<FlowEntry>> owned;
  std::vector<FlowEntry*> raw;
  for (int i = 0; i < 1000; ++i) {
    auto entry = std::make_unique<FlowEntry>();
    entry->priority = 10;
    entry->match = Match().eth_dst(MacAddr::from_u64(0x020000000000ULL + i));
    entry->instructions = apply({output(1)});
    raw.push_back(entry.get());
    owned.push_back(std::move(entry));
  }
  auto wildcard = std::make_unique<FlowEntry>();
  wildcard->priority = 1;
  wildcard->instructions = apply({output(2)});
  raw.push_back(wildcard.get());
  owned.push_back(std::move(wildcard));

  SpecializedMatcher matcher;
  matcher.rebuild(raw);
  EXPECT_EQ(matcher.shape_count(), 2u);  // one hashed shape + one wildcard

  FlowKey key;
  key.eth_src = MacAddr::from_u64(0x02ff);
  key.eth_dst = MacAddr::from_u64(0x020000000000ULL + 777);
  const FieldView view = build_field_view(parse_packet(make_udp(key, 64)), 1);
  LookupCost cost;
  FlowEntry* hit = matcher.lookup(view, cost);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->priority, 10);
  EXPECT_EQ(cost.hash_probes, 1u);
  EXPECT_LE(cost.entries_scanned, 2u);  // bucket verify + nothing linear
}

TEST(LinearMatcher, CostGrowsWithTableSize) {
  std::vector<std::unique_ptr<FlowEntry>> owned;
  std::vector<FlowEntry*> raw;
  for (int i = 0; i < 500; ++i) {
    auto entry = std::make_unique<FlowEntry>();
    entry->priority = 10;
    entry->match = Match().l4_dst(static_cast<std::uint16_t>(i));
    entry->instructions = apply({output(1)});
    raw.push_back(entry.get());
    owned.push_back(std::move(entry));
  }
  LinearMatcher matcher;
  matcher.rebuild(raw);

  FlowKey key;
  key.eth_src = MacAddr::from_u64(1);
  key.eth_dst = MacAddr::from_u64(2);
  key.dst_port = 499;  // the last rule
  const FieldView view = build_field_view(parse_packet(make_udp(key, 64)), 1);
  LookupCost cost;
  ASSERT_NE(matcher.lookup(view, cost), nullptr);
  EXPECT_EQ(cost.entries_scanned, 500u);
}

TEST(Matchers, FactorySelects) {
  EXPECT_STREQ(make_matcher(false)->name(), "linear");
  EXPECT_STREQ(make_matcher(true)->name(), "specialized");
}

}  // namespace
}  // namespace harmless::openflow
