// Flow-cache behavior and invalidation edges.
//
// The fast path must (a) actually hit — microflow tier for repeated
// 5-tuples, megaflow tier for wildcarded aggregates — and (b) get out
// of the way the instant the pipeline state it memoized changes: flow
// expiry, cookie-based deletion, group-mods and port state changes
// must each invalidate affected entries so the next packet re-learns.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "net/build.hpp"
#include "net/ethernet.hpp"
#include "openflow/pipeline.hpp"
#include "sim/network.hpp"
#include "softswitch/soft_switch.hpp"
#include "util/rng.hpp"

namespace harmless::softswitch {
namespace {

using namespace net;
using namespace openflow;
using sim::Host;
using sim::LinkSpec;
using sim::Network;

Packet udp_packet(std::uint64_t src_mac, std::uint64_t dst_mac, std::uint16_t src_port,
                  std::uint16_t dst_port = 80) {
  FlowKey key;
  key.eth_src = MacAddr::from_u64(src_mac);
  key.eth_dst = MacAddr::from_u64(dst_mac);
  key.ip_src = Ipv4Addr(10, 0, 0, 1);
  key.ip_dst = Ipv4Addr(10, 0, 0, 2);
  key.src_port = src_port;
  key.dst_port = dst_port;
  return make_udp(key, 100);
}

FlowEntry l2_entry(std::uint64_t dst_mac, std::uint32_t out_port,
                   std::uint16_t priority = 10) {
  FlowEntry entry;
  entry.priority = priority;
  entry.match.eth_dst(MacAddr::from_u64(dst_mac));
  entry.instructions = apply({output(out_port)});
  return entry;
}

// ---------------------------------------------------------------- tiers

TEST(FlowCache, MicroflowTierServesRepeatedFiveTuples) {
  Pipeline pipeline(1);
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 2), 0).is_ok());

  for (int i = 0; i < 5; ++i) {
    auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1000 + i);
    EXPECT_EQ(result.cache_hit, i > 0) << "packet " << i;
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].first, 2u);
  }
  EXPECT_EQ(pipeline.cache().stats().misses, 1u);
  EXPECT_EQ(pipeline.cache().stats().microflow_hits, 4u);
  EXPECT_EQ(pipeline.cache().stats().megaflow_hits, 0u);
  // The one slow path installed one megaflow covering all five packets.
  EXPECT_EQ(pipeline.cache().megaflow_count(), 1u);
}

TEST(FlowCache, MegaflowTierCoversFieldsNoRuleExamines) {
  Pipeline pipeline(1);
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 2), 0).is_ok());

  // Vary the L4 source port: distinct microflows, one megaflow — no
  // rule ever looks at L4, so the learned entry wildcards it.
  for (std::uint16_t port = 0; port < 32; ++port) {
    auto result = pipeline.run(udp_packet(0x1, 0x2, 1024 + port), 1, 1000 + port);
    EXPECT_EQ(result.cache_hit, port > 0) << "port " << port;
  }
  EXPECT_EQ(pipeline.cache().megaflow_count(), 1u);
  EXPECT_EQ(pipeline.cache().stats().megaflow_hits, 31u);
  // Repeating a port now hits the microflow tier.
  auto result = pipeline.run(udp_packet(0x1, 0x2, 1024), 1, 5000);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(pipeline.cache().stats().microflow_hits, 1u);
}

TEST(FlowCache, RewrittenFieldsDoNotFragmentMegaflows) {
  // A rule matching only in_port that rewrites eth_dst: the rewrite's
  // success depends on packet structure, not the old value, so flows
  // with different original destinations must share one megaflow.
  Pipeline pipeline(1);
  FlowEntry entry;
  entry.priority = 10;
  entry.match.in_port(1);
  entry.instructions =
      apply({set_eth_dst(MacAddr::from_u64(0x999)), output(2)});
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());

  for (std::uint64_t dst = 1; dst <= 8; ++dst) {
    auto result = pipeline.run(udp_packet(0x1, dst, 5555), 1, 1000 + static_cast<sim::SimNanos>(dst));
    EXPECT_EQ(result.cache_hit, dst > 1) << "dst " << dst;
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].first, 2u);
    // The rewrite really happened on the replayed path too.
    const auto parsed = net::parse_packet(result.outputs[0].second);
    EXPECT_EQ(parsed.eth_dst.to_u64(), 0x999u) << "dst " << dst;
  }
  EXPECT_EQ(pipeline.cache().megaflow_count(), 1u);
}

TEST(FlowCache, UnsupportedSetFieldDoesNotSuppressLearning) {
  // set_field on a field action.cpp cannot rewrite (e.g. ip_dscp)
  // silently no-ops, so the packet keeps its original value and a
  // later table's examination of it must still be learned — otherwise
  // one flow's megaflow would wrongly cover packets with other values.
  Pipeline pipeline(2);
  FlowEntry rewrite;
  rewrite.priority = 10;
  rewrite.match.in_port(1);
  rewrite.instructions =
      apply_then_goto({SetFieldAction{Field::kIpDscp, 46}}, 1);
  ASSERT_TRUE(pipeline.table(0).add(std::move(rewrite), 0).is_ok());
  FlowEntry dscp_zero;
  dscp_zero.priority = 20;
  dscp_zero.match.eth_type(0x0800).set(Field::kIpDscp, 0);
  dscp_zero.instructions = apply({output(2)});
  ASSERT_TRUE(pipeline.table(1).add(std::move(dscp_zero), 0).is_ok());
  FlowEntry fallback;
  fallback.priority = 0;
  fallback.instructions = apply({output(3)});
  ASSERT_TRUE(pipeline.table(1).add(std::move(fallback), 0).is_ok());

  // dscp=0 packet learns the dscp_zero path...
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 2u);
  // ...and a dscp=46 packet must NOT be covered by that megaflow.
  net::Packet marked = udp_packet(0x1, 0x2, 5555);
  {
    auto& frame = marked.frame();
    frame[net::kEthHeaderSize + 1] = 46 << 2;  // IPv4 DSCP field
  }
  result = pipeline.run(std::move(marked), 1, 200);
  EXPECT_FALSE(result.cache_hit);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 3u);
}

TEST(FlowCache, CachedDropIsStillADrop) {
  Pipeline pipeline(1);  // empty table: OF1.3 default-drops
  for (int i = 0; i < 3; ++i) {
    auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1000 + i);
    EXPECT_TRUE(result.dropped());
    EXPECT_FALSE(result.matched);
    EXPECT_EQ(result.cache_hit, i > 0);
  }
}

// --------------------------------------------------------- invalidation

TEST(FlowCache, FlowModInvalidatesAffectedEntries) {
  Pipeline pipeline(1);
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 2), 0).is_ok());
  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1000);  // learn
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1001).cache_hit);

  // A higher-priority rule re-points the flow; the stale cached output
  // must not survive.
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 3, /*priority=*/20), 1002).is_ok());
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1003);
  EXPECT_FALSE(result.cache_hit);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 3u);
  EXPECT_GE(pipeline.cache().stats().invalidations, 1u);
  // And the re-learned entry serves the new rule from the cache.
  result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 1004);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.outputs[0].first, 3u);
}

TEST(FlowCache, ExpirySweepInvalidates) {
  Pipeline pipeline(1);
  FlowEntry entry = l2_entry(0x2, 2);
  entry.hard_timeout = 10'000;
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());
  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 200).cache_hit);

  ASSERT_EQ(pipeline.collect_expired(20'000).size(), 1u);
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 20'100);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_TRUE(result.dropped());  // the rule is gone; default drop
}

TEST(FlowCache, LazyExpiryWithoutSweepInvalidates) {
  // No sweep runs here: the cached entry itself must refuse to hit once
  // a referenced flow entry has timed out, and the resulting slow path
  // performs the table's lazy expiry.
  Pipeline pipeline(1);
  FlowEntry entry = l2_entry(0x2, 2);
  entry.idle_timeout = 10'000;
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());
  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  // Cache hits keep refreshing the idle timer, exactly like real hits.
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 8'000).cache_hit);
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 16'000).cache_hit);

  // A 10 ms silence idles the rule out; the next packet must slow-path.
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 40'000);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_TRUE(result.dropped());
  EXPECT_EQ(pipeline.table(0).size(), 0u);  // lazy expiry fired
}

TEST(FlowCache, RemoveByCookieInvalidates) {
  Pipeline pipeline(1);
  FlowEntry entry = l2_entry(0x2, 2);
  entry.cookie = 0xbeef;
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());
  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  ASSERT_TRUE(pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 200).cache_hit);

  ASSERT_EQ(pipeline.table(0).remove_by_cookie(0xbeef).size(), 1u);
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 300);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_TRUE(result.dropped());
}

TEST(FlowCache, GroupModInvalidates) {
  Pipeline pipeline(1);
  GroupEntry group_entry;
  group_entry.group_id = 7;
  group_entry.type = GroupType::kIndirect;
  group_entry.buckets.push_back(Bucket{{output(2)}, 1, 0});
  ASSERT_TRUE(pipeline.groups().add(group_entry).is_ok());

  FlowEntry entry;
  entry.priority = 10;
  entry.match.eth_dst(MacAddr::from_u64(0x2));
  entry.instructions = apply({group(7)});
  ASSERT_TRUE(pipeline.table(0).add(std::move(entry), 0).is_ok());

  (void)pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 100);
  auto result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 200);
  ASSERT_TRUE(result.cache_hit);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 2u);

  // Re-point the group: the cached program references the group id, so
  // it must re-learn (and then serve the new bucket from the cache).
  group_entry.buckets[0].actions = {output(3)};
  ASSERT_TRUE(pipeline.groups().modify(group_entry).is_ok());
  result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 300);
  EXPECT_FALSE(result.cache_hit);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 3u);
  result = pipeline.run(udp_packet(0x1, 0x2, 5555), 1, 400);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.outputs[0].first, 3u);
}

TEST(FlowCache, PortStateChangeInvalidates) {
  Network network;
  auto& sw = network.add_node<SoftSwitch>("ss", 0x1, 3);
  auto& h1 = network.add_host("h1", MacAddr::from_u64(0x1), Ipv4Addr(10, 0, 0, 1));
  auto& h2 = network.add_host("h2", MacAddr::from_u64(0x2), Ipv4Addr(10, 0, 0, 2));
  auto& h3 = network.add_host("h3", MacAddr::from_u64(0x3), Ipv4Addr(10, 0, 0, 3));
  network.connect(h1, 0, sw, 0, LinkSpec::gbps(1));
  network.connect(h2, 0, sw, 1, LinkSpec::gbps(1));
  network.connect(h3, 0, sw, 2, LinkSpec::gbps(1));

  FlowModMsg mod;
  mod.priority = 10;
  mod.match.eth_dst(h2.mac());
  mod.instructions = apply({output(2)});
  ASSERT_TRUE(sw.install(mod).is_ok());

  auto send_one = [&] {
    FlowKey key;
    key.eth_src = h1.mac();
    key.eth_dst = h2.mac();
    key.ip_src = h1.ip();
    key.ip_dst = h2.ip();
    key.dst_port = 80;
    h1.send(make_udp(key, 100));
    network.run();
  };

  send_one();
  send_one();
  EXPECT_EQ(sw.counters().cache_hits, 1u);
  EXPECT_EQ(sw.counters().cache_misses, 1u);
  const std::uint64_t invalidations_before = sw.counters().cache_invalidations;

  sw.set_port_state(2, /*up=*/false);
  EXPECT_GT(sw.counters().cache_invalidations, invalidations_before);
  send_one();  // re-learns; the packet is dropped at the down port
  EXPECT_EQ(sw.counters().cache_misses, 2u);
  EXPECT_EQ(h2.counters().rx_udp, 2u);

  sw.set_port_state(2, /*up=*/true);
  send_one();  // port back up: re-learn again, delivery resumes
  EXPECT_EQ(sw.counters().cache_misses, 3u);
  EXPECT_EQ(h2.counters().rx_udp, 3u);
}

// ------------------------------------------------------------- counters

TEST(FlowCache, CacheHitsKeepFlowCountersExact) {
  Pipeline pipeline(1);
  ASSERT_TRUE(pipeline.table(0).add(l2_entry(0x2, 2), 0).is_ok());
  std::size_t bytes = 0;
  for (int i = 0; i < 4; ++i) {
    net::Packet packet = udp_packet(0x1, 0x2, 5555);
    bytes += packet.size();
    (void)pipeline.run(std::move(packet), 1, 1000 + i);
  }
  const auto entries = pipeline.table(0).entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->packet_count, 4u);
  EXPECT_EQ(entries[0]->byte_count, bytes);
  EXPECT_EQ(pipeline.table(0).counters().lookups, 4u);
  EXPECT_EQ(pipeline.table(0).counters().matches, 4u);
}

TEST(FlowCache, CapacityPressureEvictsInsteadOfGrowingUnbounded) {
  Pipeline pipeline(1);
  FlowCache::Limits limits;
  limits.max_megaflows = 8;
  limits.max_microflows = 64;
  pipeline.cache().set_limits(limits);
  // Each destination MAC is its own megaflow (the rule set is per-dst);
  // 100 dsts against an 8-entry cache must evict one at a time (CLOCK),
  // never grow past the limit.
  for (std::uint64_t dst = 1; dst <= 100; ++dst) {
    ASSERT_TRUE(pipeline.table(0).add(l2_entry(dst, 2), 0).is_ok());
  }
  for (std::uint64_t dst = 1; dst <= 100; ++dst)
    (void)pipeline.run(udp_packet(0x777, dst, 5555), 1, 1000 + static_cast<sim::SimNanos>(dst));
  EXPECT_LE(pipeline.cache().megaflow_count(), 8u);
  EXPECT_GE(pipeline.cache().stats().evictions, 92u);
}

TEST(FlowCache, SubtablesProbePerMaskNotPerEntry) {
  // The dpcls classifier's whole point: tier-2 lookup cost is counted
  // (and billed) per distinct mask signature, not per resident entry —
  // and the linear-scan ablation still reports per-entry comparisons.
  FlowCache cache;
  auto view_for = [](std::uint64_t dst, std::uint64_t sport) {
    FieldView view;
    view.set(Field::kEthDst, dst);
    view.set(Field::kL4Src, sport);
    return view;
  };
  auto exact_dst_megaflow = [](std::uint64_t dst) {
    MegaflowEntry entry;
    entry.required_present = field_bit(Field::kEthDst);
    entry.masks[static_cast<std::size_t>(Field::kEthDst)] = field_all_ones(Field::kEthDst);
    entry.values[static_cast<std::size_t>(Field::kEthDst)] = dst;
    return entry;
  };
  for (std::uint64_t dst = 1; dst <= 8; ++dst)
    (void)cache.insert(exact_dst_megaflow(dst), view_for(dst, dst));
  MegaflowEntry in_port_megaflow;
  in_port_megaflow.required_present = field_bit(Field::kInPort);
  in_port_megaflow.masks[static_cast<std::size_t>(Field::kInPort)] =
      field_all_ones(Field::kInPort);
  in_port_megaflow.values[static_cast<std::size_t>(Field::kInPort)] = 7;
  {
    FieldView view;
    view.set(Field::kInPort, 7);
    (void)cache.insert(std::move(in_port_megaflow), view);
  }

  // 9 megaflows, but only 2 distinct mask signatures.
  EXPECT_EQ(cache.megaflow_count(), 9u);
  EXPECT_EQ(cache.subtable_count(), 2u);

  // A fresh sport misses tier 1; the eth_dst subtable answers in one
  // hashed probe no matter how many exact-dst entries it holds (the
  // in_port subtable is rejected by the presence pre-check, unbilled).
  std::uint32_t scanned = 0;
  ASSERT_NE(cache.lookup(view_for(5, 999), 0, &scanned), nullptr);
  EXPECT_EQ(scanned, 1u);
  EXPECT_EQ(cache.stats().subtable_probes, 1u);

  // The ablation pays per entry again: dst 8 is the 8th insertion, so
  // the linear reference compares 8 candidates to find it.
  cache.set_linear_scan(true);
  scanned = 0;
  ASSERT_NE(cache.lookup(view_for(8, 999), 0, &scanned), nullptr);
  EXPECT_EQ(scanned, 8u);
  EXPECT_EQ(cache.stats().subtable_probes, 1u);  // no hashed probes in linear mode
}

TEST(FlowCache, MicroflowKeyVectorStaysBoundedAcrossTierOneResets) {
  // Regression: a long-lived elephant megaflow re-seeds the microflow
  // tier after every tier-1 capacity reset, and each re-seed used to
  // append another (now stale or duplicate) key to microflow_keys —
  // unbounded growth for exactly the entries that live longest. The
  // cache now compacts the vector at power-of-two watermarks.
  FlowCache cache;
  FlowCache::Limits limits;
  limits.max_megaflows = 8;
  limits.max_microflows = 4;  // tiny tier 1: constant flush pressure
  cache.set_limits(limits);

  auto view_for = [](std::uint64_t dst, std::uint64_t sport) {
    FieldView view;
    view.set(Field::kEthDst, dst);
    if (sport != 0) view.set(Field::kL4Src, sport);
    return view;
  };
  auto exact_dst_megaflow = [](std::uint64_t dst) {
    MegaflowEntry entry;
    entry.required_present = field_bit(Field::kEthDst);
    entry.masks[static_cast<std::size_t>(Field::kEthDst)] = field_all_ones(Field::kEthDst);
    entry.values[static_cast<std::size_t>(Field::kEthDst)] = dst;
    return entry;
  };

  MegaflowEntry* elephant = cache.insert(exact_dst_megaflow(0x22), view_for(0x22, 1));
  for (std::uint64_t round = 1; round <= 2000; ++round) {
    // A one-shot mouse installs (flushing tier 1 whenever it is full)...
    (void)cache.insert(exact_dst_megaflow(0x1000 + round), view_for(0x1000 + round, 0));
    // ...and the elephant's next microflow re-seeds tier 1 with a fresh
    // key via a tier-2 hit.
    MegaflowEntry* hit = cache.lookup(view_for(0x22, 1 + round), /*now=*/0);
    ASSERT_EQ(hit, elephant) << "round " << round;
  }
  EXPECT_GT(cache.stats().flushes, 100u);     // tier-1 resets really happened
  EXPECT_GT(cache.stats().evictions, 1000u);  // and CLOCK churned the mice
  // ~2000 keys accumulated before the fix; the compaction watermark
  // (64) now bounds it regardless of the entry's lifetime.
  EXPECT_LE(elephant->microflow_keys.size(), 64u);
}

TEST(FlowCache, ClockEvictionKeepsElephantsResident) {
  // An elephant aggregate interleaved with a parade of one-shot mice
  // through an under-provisioned cache: second-chance eviction must
  // recycle the mice and keep the elephant's megaflow hitting (the old
  // wholesale flush cold-started it every ~8 mice).
  Pipeline pipeline(1);
  FlowCache::Limits limits;
  limits.max_megaflows = 8;
  pipeline.cache().set_limits(limits);
  for (std::uint64_t dst = 1; dst <= 200; ++dst)
    ASSERT_TRUE(pipeline.table(0).add(l2_entry(dst, 2), 0).is_ok());

  sim::SimNanos now = 1000;
  (void)pipeline.run(udp_packet(0x777, 200, 5555), 1, now);  // elephant learns (dst 200)
  std::uint64_t elephant_misses = 0;
  for (std::uint64_t mouse = 1; mouse <= 100; ++mouse) {
    (void)pipeline.run(udp_packet(0x777, mouse, 6000), 1, ++now);  // one-shot mouse
    auto result = pipeline.run(udp_packet(0x777, 200, 5555), 1, ++now);
    if (!result.cache_hit) ++elephant_misses;
  }
  EXPECT_EQ(elephant_misses, 0u);
  EXPECT_GT(pipeline.cache().stats().evictions, 0u);
}

// ------------------------------------------------ CLOCK reference model

// Megaflow keys for the model test: one exact eth_dst per entry, in one
// of three mask signatures (plain; + in_port; + vlan required absent),
// so a view for `dst` is covered only by entries for `dst` and the
// classifier holds up to three subtables with different presence rules.
int signature(std::uint64_t dst) { return static_cast<int>(dst % 3); }

MegaflowEntry megaflow_for(std::uint64_t dst) {
  MegaflowEntry entry;
  entry.required_present = field_bit(Field::kEthDst);
  entry.masks[static_cast<std::size_t>(Field::kEthDst)] = field_all_ones(Field::kEthDst);
  entry.values[static_cast<std::size_t>(Field::kEthDst)] = dst;
  if (signature(dst) == 1) {
    entry.required_present |= field_bit(Field::kInPort);
    entry.masks[static_cast<std::size_t>(Field::kInPort)] = field_all_ones(Field::kInPort);
    entry.values[static_cast<std::size_t>(Field::kInPort)] = 1;
  } else if (signature(dst) == 2) {
    entry.required_absent = field_bit(Field::kVlanVid);
  }
  return entry;
}

/// `flow` varies a field no megaflow examines: distinct microflows of
/// one megaflow.
FieldView model_view(std::uint64_t dst, std::uint64_t flow) {
  FieldView view;
  view.set(Field::kEthDst, dst);
  view.set(Field::kL4Src, flow);
  if (signature(dst) == 1) view.set(Field::kInPort, 1);
  return view;
}

/// The megaflow tier as it was when it kept a vector in insertion order
/// with an index CLOCK hand: erase at the hand, wrap at the end, a hand
/// parked at the end adopts the next insert, purge resets the hand to
/// the front. It also models the microflow tier and the subtables'
/// rank order, so it predicts every hit, count and Stats field.
class ReferenceCache {
 public:
  struct Entry {
    std::uint64_t dst = 0;
    std::uint64_t epoch = 0;
    bool referenced = false;
    MegaflowEntry* real = nullptr;  // the FlowCache entry it mirrors
  };
  struct Subtable {
    int signature = 0;
    std::uint64_t rank_hits = 0;
    std::size_t entry_count = 0;
  };

  ReferenceCache(const FlowCache::Limits& limits, bool linear) : limits_(limits), linear_(linear) {}

  MegaflowEntry* lookup(std::uint64_t dst, std::uint64_t flow, std::uint32_t* scanned) {
    *scanned = 0;
    if (purged_epoch_ != epoch_) purge();
    if (entries_.empty()) {
      ++stats_.misses;
      return nullptr;
    }
    const auto key = std::pair{dst, flow};
    if (const auto it = microflow_.find(key); it != microflow_.end()) {
      Entry& entry = entry_for(it->second);
      ++stats_.hits;
      ++stats_.microflow_hits;
      entry.referenced = true;
      return entry.real;
    }
    ++tier2_lookups_;
    if (limits_.rank_decay_lookups != 0 && tier2_lookups_ % limits_.rank_decay_lookups == 0)
      for (Subtable& subtable : subtables_) subtable.rank_hits /= 2;
    Entry* hit = nullptr;
    if (linear_) {
      for (Entry& entry : entries_) {
        ++*scanned;
        if (entry.dst == dst) {
          hit = &entry;
          break;
        }
      }
    } else {
      for (std::size_t si = 0; si < subtables_.size() && hit == nullptr; ++si) {
        if (subtables_[si].signature == 1 && signature(dst) != 1) continue;  // needs in_port
        ++*scanned;
        ++stats_.subtable_probes;
        if (subtables_[si].signature != signature(dst)) continue;
        const auto it = std::find_if(entries_.begin(), entries_.end(),
                                     [dst](const Entry& entry) { return entry.dst == dst; });
        if (it == entries_.end()) continue;
        hit = &*it;  // the oldest duplicate heads its bucket
        ++subtables_[si].rank_hits;
        while (si > 0 && subtables_[si].rank_hits > subtables_[si - 1].rank_hits) {
          std::swap(subtables_[si], subtables_[si - 1]);
          --si;
        }
      }
    }
    if (hit == nullptr) {
      ++stats_.misses;
      return nullptr;
    }
    if (microflow_.size() < limits_.max_microflows) microflow_[key] = hit->real;
    ++stats_.hits;
    ++stats_.megaflow_hits;
    hit->referenced = true;
    return hit->real;
  }

  void insert(std::uint64_t dst, std::uint64_t flow, MegaflowEntry* real) {
    if (purged_epoch_ != epoch_) purge();
    if (entries_.size() >= limits_.max_megaflows) evict_one();
    if (microflow_.size() >= limits_.max_microflows) {
      microflow_.clear();
      ++stats_.flushes;
    }
    entries_.push_back(Entry{dst, epoch_, false, real});
    index(dst);
    microflow_[std::pair{dst, flow}] = real;
    ++stats_.insertions;
  }

  void invalidate_all() { ++epoch_; }

  void clear() {
    entries_.clear();
    subtables_.clear();
    microflow_.clear();
    hand_ = 0;
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t subtable_count() const { return subtables_.size(); }
  [[nodiscard]] const FlowCache::Stats& stats() const { return stats_; }

 private:
  Entry& entry_for(const MegaflowEntry* real) {
    return *std::find_if(entries_.begin(), entries_.end(),
                         [real](const Entry& entry) { return entry.real == real; });
  }

  void index(std::uint64_t dst) {
    for (Subtable& subtable : subtables_)
      if (subtable.signature == signature(dst)) {
        ++subtable.entry_count;
        return;
      }
    subtables_.push_back(Subtable{signature(dst), 0, 1});
  }

  void purge() {
    purged_epoch_ = epoch_;
    if (std::none_of(entries_.begin(), entries_.end(),
                     [this](const Entry& entry) { return entry.epoch != epoch_; }))
      return;
    std::erase_if(entries_, [this](const Entry& entry) {
      if (entry.epoch == epoch_) return false;
      ++stats_.invalidations;
      return true;
    });
    subtables_.clear();
    for (const Entry& entry : entries_) index(entry.dst);
    microflow_.clear();
    hand_ = 0;
  }

  void evict_one() {
    for (std::size_t step = 0; step < 2 * entries_.size(); ++step) {
      if (hand_ >= entries_.size()) hand_ = 0;
      Entry& candidate = entries_[hand_];
      if (candidate.referenced) {
        candidate.referenced = false;
        ++hand_;
        continue;
      }
      std::erase_if(microflow_,
                    [&candidate](const auto& mapping) { return mapping.second == candidate.real; });
      const auto home = std::find_if(subtables_.begin(), subtables_.end(),
                                     [&candidate](const Subtable& subtable) {
                                       return subtable.signature == signature(candidate.dst);
                                     });
      if (--home->entry_count == 0) subtables_.erase(home);
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(hand_));
      ++stats_.evictions;
      return;
    }
  }

  FlowCache::Limits limits_;
  bool linear_;
  std::vector<Entry> entries_;  // insertion order
  std::size_t hand_ = 0;        // == entries_.size(): parked at the end
  std::vector<Subtable> subtables_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, const MegaflowEntry*> microflow_;
  std::uint64_t epoch_ = 1;
  std::uint64_t purged_epoch_ = 1;
  std::uint64_t tier2_lookups_ = 0;
  FlowCache::Stats stats_;
};

void expect_same_stats(const FlowCache::Stats& real, const FlowCache::Stats& model) {
  ASSERT_EQ(real.hits, model.hits);
  ASSERT_EQ(real.microflow_hits, model.microflow_hits);
  ASSERT_EQ(real.megaflow_hits, model.megaflow_hits);
  ASSERT_EQ(real.misses, model.misses);
  ASSERT_EQ(real.insertions, model.insertions);
  ASSERT_EQ(real.invalidations, model.invalidations);
  ASSERT_EQ(real.evictions, model.evictions);
  ASSERT_EQ(real.flushes, model.flushes);
  ASSERT_EQ(real.subtable_probes, model.subtable_probes);
}

/// Walk the insertion-order list and the bucket chains: links are
/// symmetric, the list holds megaflow_count() entries in the model's
/// order, each chain is in insertion order, and each subtable's chains
/// hold exactly its entry_count entries.
void expect_links_consistent(const FlowCache& cache, const ReferenceCache& model) {
  std::vector<const MegaflowEntry*> order;
  const MegaflowEntry* prev = nullptr;
  for (const MegaflowEntry* entry = cache.oldest(); entry != nullptr;
       entry = entry->clock_next.get()) {
    ASSERT_EQ(entry->clock_prev, prev);
    order.push_back(entry);
    prev = entry;
  }
  ASSERT_EQ(order.size(), cache.megaflow_count());
  ASSERT_EQ(order.size(), model.entries().size());
  for (std::size_t i = 0; i < order.size(); ++i)
    ASSERT_EQ(order[i], model.entries()[i].real) << "list position " << i;

  std::map<const MegaflowSubtable*, std::size_t> chained;
  std::set<std::pair<const MegaflowSubtable*, std::uint64_t>> walked;
  for (const MegaflowEntry* entry : order) {
    ASSERT_NE(entry->subtable, nullptr);
    if (!walked.emplace(entry->subtable, entry->subtable_hash).second) continue;
    MegaflowEntry** head = entry->subtable->buckets.find(entry->subtable_hash);
    ASSERT_NE(head, nullptr);
    std::ptrdiff_t last_position = -1;
    for (const MegaflowEntry* link = *head; link != nullptr; link = link->bucket_next) {
      ASSERT_EQ(link->subtable, entry->subtable);
      ASSERT_EQ(link->subtable_hash, entry->subtable_hash);
      const std::ptrdiff_t position = std::find(order.begin(), order.end(), link) - order.begin();
      ASSERT_GT(position, last_position) << "chain out of insertion order";
      last_position = position;
      ++chained[entry->subtable];
    }
  }
  ASSERT_EQ(chained.size(), cache.subtable_count());
  for (const auto& [subtable, count] : chained) ASSERT_EQ(count, subtable->entry_count);
}

TEST(FlowCache, ClockMatchesIndexReferenceModel) {
  for (const bool linear : {false, true}) {
    for (const std::size_t capacity : {1u, 2u, 3u, 8u, 64u}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message() << (linear ? "linear" : "subtables") << " capacity "
                                        << capacity << " seed " << seed);
        FlowCache::Limits limits;
        limits.max_megaflows = capacity;
        limits.max_microflows = capacity + 3;  // frequent tier-1 flushes
        limits.rank_decay_lookups = 5;         // frequent rank decay
        FlowCache cache;
        cache.set_limits(limits);
        cache.set_linear_scan(linear);
        ReferenceCache model(limits, linear);
        util::Rng rng(seed);
        const std::uint64_t dsts = 2 * capacity + 2;  // repeats make duplicate megaflows
        for (int step = 0; step < 4000; ++step) {
          const std::uint64_t op = rng.below(1000);
          const std::uint64_t dst = 1 + rng.below(dsts);
          const std::uint64_t flow = rng.below(3);
          if (op < 400) {
            MegaflowEntry* inserted = cache.insert(megaflow_for(dst), model_view(dst, flow));
            model.insert(dst, flow, inserted);
          } else if (op < 995) {
            std::uint32_t scanned = 0;
            std::uint32_t expected_scanned = 0;
            const MegaflowEntry* hit = cache.lookup(model_view(dst, flow), /*now=*/0, &scanned);
            ASSERT_EQ(hit, model.lookup(dst, flow, &expected_scanned)) << "step " << step;
            ASSERT_EQ(scanned, expected_scanned) << "step " << step;
          } else if (op < 998) {
            cache.invalidate_all();
            model.invalidate_all();
          } else {
            cache.clear();
            model.clear();
          }
          ASSERT_EQ(cache.megaflow_count(), model.entries().size()) << "step " << step;
          ASSERT_EQ(cache.subtable_count(), model.subtable_count()) << "step " << step;
          ASSERT_NO_FATAL_FAILURE(expect_same_stats(cache.stats(), model.stats()))
              << "step " << step;
          ASSERT_NO_FATAL_FAILURE(expect_links_consistent(cache, model)) << "step " << step;
        }
        EXPECT_GT(cache.stats().evictions, 0u);
        EXPECT_GT(cache.stats().invalidations, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace harmless::softswitch
