// ConnTracker unit tests: the state machine, timeouts and expiry, LRU
// capacity bounds, and NAT allocation (including the shard-affinity
// property the symmetric-RSS datapath depends on), plus a seeded
// digest pin over every path that files, updates or kills a connection.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <vector>

#include "net/l4.hpp"
#include "openflow/conntrack.hpp"
#include "util/rng.hpp"

namespace harmless::openflow {
namespace {

constexpr std::uint8_t kTcp = 6;
constexpr std::uint8_t kUdp = 17;

CtTuple tuple(std::uint32_t src_ip, std::uint16_t src_port, std::uint32_t dst_ip,
              std::uint16_t dst_port, std::uint8_t proto = kTcp) {
  return CtTuple{src_ip, dst_ip, src_port, dst_port, proto};
}

const CtAction kCommit{};

TEST(ConnTracker, TcpLifecycleNewToEstablishedToClosing) {
  ConnTracker ct(CtConfig{}, 1);
  const CtTuple orig = tuple(0x0a000001, 40000, 0x0a000002, 80);

  // Before any commit: a SYN is NEW, a mid-stream segment is INVALID.
  EXPECT_EQ(ct.classify(orig, net::kTcpSyn, 0), kCtNew);
  EXPECT_EQ(ct.classify(orig, net::kTcpAck, 0), kCtInvalid);

  // SYN through ct: commits.
  const CtOutcome opened = ct.process(orig, net::kTcpSyn, 1000, kCommit);
  EXPECT_TRUE(opened.committed);
  EXPECT_EQ(opened.state & kCtNew, kCtNew);
  EXPECT_EQ(ct.size(), 1u);

  // Original direction, pre-reply: tracked but not yet established.
  EXPECT_EQ(ct.classify(orig, net::kTcpAck, 2000), kCtTracked);

  // Reply direction classifies ESTABLISHED immediately (it proves
  // bidirectionality), and its ct traversal flips seen_reply.
  const CtTuple reply = orig.reversed();
  EXPECT_EQ(ct.classify(reply, net::kTcpSyn | net::kTcpAck, 2000),
            kCtTracked | kCtReply | kCtEstablished);
  ct.process(reply, net::kTcpSyn | net::kTcpAck, 2000, kCommit);

  // Now the original direction is established too.
  EXPECT_EQ(ct.classify(orig, net::kTcpAck, 3000), kCtTracked | kCtEstablished);

  // FIN demotes the entry to the transient timeout.
  ct.process(orig, net::kTcpFin | net::kTcpAck, 4000, kCommit);
  const auto entries = ct.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].closing);
  EXPECT_TRUE(entries[0].seen_reply);
  EXPECT_EQ(entries[0].expires_at, 4000 + CtConfig{}.tcp_transient_timeout);
}

TEST(ConnTracker, UdpTracksWithoutFlagsAndIdlesOut) {
  CtConfig config;
  config.udp_timeout = 1'000;
  config.sweep_interval = 100;  // wheel buckets quantize up to this
  ConnTracker ct(config, 1);
  const CtTuple orig = tuple(0x0a000001, 5353, 0x0a000002, 53, kUdp);

  EXPECT_EQ(ct.classify(orig, 0, 0), kCtNew);  // no SYN requirement for UDP
  ct.process(orig, 0, 100, kCommit);
  EXPECT_EQ(ct.classify(orig, 0, 500), kCtTracked);

  // Idle past udp_timeout: the sweep reaps it.
  EXPECT_EQ(ct.expire(2'000), 1u);
  EXPECT_EQ(ct.size(), 0u);
  EXPECT_EQ(ct.stats().expired, 1u);
  EXPECT_EQ(ct.classify(orig, 0, 2'001), kCtNew);
}

TEST(ConnTracker, RefreshExtendsDeadlineAcrossStaleWheelBuckets) {
  CtConfig config;
  config.udp_timeout = 1'000;
  config.sweep_interval = 100;
  ConnTracker ct(config, 1);
  const CtTuple orig = tuple(1, 1, 2, 2, kUdp);
  ct.process(orig, 0, 0, kCommit);
  // Refresh just before the original deadline; the stale wheel bucket
  // must re-file, not kill.
  ct.process(orig, 0, 900, kCommit);
  EXPECT_EQ(ct.expire(1'000), 0u);
  EXPECT_EQ(ct.size(), 1u);
  EXPECT_EQ(ct.expire(2'000), 1u);
}

TEST(ConnTracker, LruEvictsOldestAtCapacity) {
  CtConfig config;
  config.max_connections = 4;
  ConnTracker ct(config, 1);
  for (std::uint16_t i = 0; i < 4; ++i)
    ct.process(tuple(100 + i, i, 200, 80, kUdp), 0, i, kCommit);
  // Touch connection 0 so connection 1 is the LRU victim.
  ct.process(tuple(100, 0, 200, 80, kUdp), 0, 10, kCommit);

  ct.process(tuple(500, 9, 200, 80, kUdp), 0, 20, kCommit);
  EXPECT_EQ(ct.size(), 4u);
  EXPECT_EQ(ct.stats().evicted, 1u);
  EXPECT_EQ(ct.classify(tuple(101, 1, 200, 80, kUdp), 0, 21), kCtNew);    // evicted
  EXPECT_EQ(ct.classify(tuple(100, 0, 200, 80, kUdp), 0, 21), kCtTracked);  // survived
}

TEST(ConnTracker, SnatAllocatesDistinctPortsAndTranslatesBothWays) {
  ConnTracker ct(CtConfig{}, 1);
  const CtAction snat{CtAction::Nat::kSource, 0xc0a80001, 49152, 65535};

  // Two inside hosts using the same source port must get distinct
  // external ports.
  const CtOutcome a = ct.process(tuple(0x0a000001, 40000, 0x08080808, 80), net::kTcpSyn, 0, snat);
  const CtOutcome b = ct.process(tuple(0x0a000002, 40000, 0x08080808, 80), net::kTcpSyn, 0, snat);
  ASSERT_TRUE(a.rewrite);
  ASSERT_TRUE(b.rewrite);
  EXPECT_TRUE(a.translation.src);
  EXPECT_EQ(a.translation.src_ip, 0xc0a80001u);
  EXPECT_NE(a.translation.src_port, b.translation.src_port);
  EXPECT_EQ(ct.stats().nat_allocated, 2u);

  // The reply to the translated tuple maps back to the inside host.
  const CtTuple reply = tuple(0x08080808, 80, 0xc0a80001, a.translation.src_port);
  const CtOutcome back = ct.process(reply, net::kTcpAck, 100, kCommit);
  ASSERT_TRUE(back.rewrite);
  EXPECT_TRUE(back.translation.dst);
  EXPECT_EQ(back.translation.dst_ip, 0x0a000001u);
  EXPECT_EQ(back.translation.dst_port, 40000u);
  EXPECT_EQ(back.state & kCtEstablished, kCtEstablished);
}

TEST(ConnTracker, SnatRepliesHashToTheCommittingShard) {
  // The allocator property the sharded datapath depends on: the
  // translated reply tuple must steer (symmetric hash % shards) to the
  // same virtual shard as the original direction, for every shard
  // count the benches use.
  util::Rng rng(7);
  for (const std::size_t shards : {1UL, 2UL, 4UL, 8UL}) {
    CtConfig config;
    config.nat_steer_shards = shards;
    ConnTracker ct(config, 1);
    const CtAction snat{CtAction::Nat::kSource, 0xc0a80001, 49152, 65535};
    for (int i = 0; i < 200; ++i) {
      const CtTuple orig = tuple(0x0a000000 + static_cast<std::uint32_t>(rng.below(1 << 16)),
                                 static_cast<std::uint16_t>(1024 + rng.below(60000)),
                                 0x08080808, 443);
      const CtOutcome out = ct.process(orig, net::kTcpSyn, i, snat);
      ASSERT_TRUE(out.rewrite);
      const CtTuple reply =
          tuple(orig.dst_ip, orig.dst_port, out.translation.src_ip, out.translation.src_port);
      EXPECT_EQ(reply.symmetric_hash() % shards, orig.symmetric_hash() % shards)
          << "shards=" << shards << " i=" << i;
    }
    EXPECT_EQ(ct.stats().nat_failures, 0u);
  }
}

TEST(ConnTracker, DnatStoresMappingAndUntranslatesReplies) {
  ConnTracker ct(CtConfig{}, 1);
  const CtAction dnat{CtAction::Nat::kDest, 0x0a000063, 0, 0};  // keep dst port

  const CtTuple orig = tuple(0xac100001, 30000, 0x0a000064, 80);  // client -> VIP
  const CtOutcome fwd = ct.process(orig, net::kTcpSyn, 0, dnat);
  ASSERT_TRUE(fwd.rewrite);
  EXPECT_TRUE(fwd.translation.dst);
  EXPECT_EQ(fwd.translation.dst_ip, 0x0a000063u);
  EXPECT_EQ(fwd.translation.dst_port, 80u);  // port preserved

  // Backend's reply: restore the VIP as source.
  const CtTuple reply = tuple(0x0a000063, 80, 0xac100001, 30000);
  const CtOutcome back = ct.process(reply, net::kTcpAck, 100, kCommit);
  ASSERT_TRUE(back.rewrite);
  EXPECT_TRUE(back.translation.src);
  EXPECT_EQ(back.translation.src_ip, 0x0a000064u);
  EXPECT_EQ(back.translation.src_port, 80u);

  // Later original-direction packets re-derive the same mapping even
  // through a plain (non-NAT) ct action — the stored mapping wins.
  const CtOutcome again = ct.process(orig, net::kTcpAck, 200, kCommit);
  ASSERT_TRUE(again.rewrite);
  EXPECT_EQ(again.translation.dst_ip, 0x0a000063u);
  EXPECT_EQ(ct.stats().nat_allocated, 1u);
}

// ---- stateful HA: checkpoint/restore and replication (PR 9) ----

TEST(ConnTracker, CheckpointSerializeParseRoundTrips) {
  ConnTracker ct(CtConfig{}, 1);
  const CtAction snat{CtAction::Nat::kSource, 0xc0a80001, 49152, 65535};
  ct.process(tuple(0x0a000001, 40000, 0x08080808, 80), net::kTcpSyn, 100, snat);
  ct.process(tuple(0x0a000002, 5353, 0x0a000003, 53, kUdp), 0, 200, kCommit);

  const CtSnapshot snap = ct.checkpoint(1'000);
  EXPECT_EQ(snap.taken_at, 1'000);
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(ct.stats().checkpoints, 1u);

  const std::vector<std::uint8_t> bytes = snap.serialize();
  const auto parsed = CtSnapshot::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->taken_at, snap.taken_at);
  ASSERT_EQ(parsed->entries.size(), snap.entries.size());
  for (std::size_t i = 0; i < snap.entries.size(); ++i) {
    EXPECT_EQ(parsed->entries[i].orig, snap.entries[i].orig);
    EXPECT_EQ(parsed->entries[i].reply, snap.entries[i].reply);
    EXPECT_EQ(parsed->entries[i].nat.kind, snap.entries[i].nat.kind);
    EXPECT_EQ(parsed->entries[i].nat.ip, snap.entries[i].nat.ip);
    EXPECT_EQ(parsed->entries[i].nat.port, snap.entries[i].nat.port);
    EXPECT_EQ(parsed->entries[i].seen_reply, snap.entries[i].seen_reply);
    EXPECT_EQ(parsed->entries[i].remaining_ns, snap.entries[i].remaining_ns);
  }

  // Truncation, bit rot in the magic, and trailing garbage all parse
  // to nullopt, never to garbage connections.
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 5);
  EXPECT_FALSE(CtSnapshot::parse(truncated).has_value());
  std::vector<std::uint8_t> corrupted = bytes;
  corrupted[0] ^= 0xff;
  EXPECT_FALSE(CtSnapshot::parse(corrupted).has_value());
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(CtSnapshot::parse(padded).has_value());
}

TEST(ConnTracker, ParseRejectsACountTheImageCannotHold) {
  // A bare 18-byte header claiming 0xFFFFFFFF entries: the count is
  // bounded by the bytes that follow before anything is reserved, so
  // this is a clean nullopt, not a multi-gigabyte allocation.
  std::vector<std::uint8_t> bytes = CtSnapshot{}.serialize();
  ASSERT_EQ(bytes.size(), 18u);
  for (std::size_t i = 14; i < 18; ++i) bytes[i] = 0xff;
  std::optional<CtSnapshot> parsed;
  EXPECT_NO_THROW(parsed = CtSnapshot::parse(bytes));
  EXPECT_FALSE(parsed.has_value());
}

TEST(ConnTracker, ParseRejectsFieldValuesSerializeNeverWrites) {
  CtSnapshot snap;
  snap.entries.push_back(CtSnapshotEntry{tuple(1, 1, 2, 2), tuple(2, 2, 1, 1), CtNat{}, true,
                                         false, 500});
  const std::vector<std::uint8_t> bytes = snap.serialize();
  ASSERT_TRUE(CtSnapshot::parse(bytes).has_value());
  // Entry layout after the 18-byte header: two 13-byte tuples, then
  // NAT kind (offset 44), NAT ip/port, flags (51), remaining_ns (52..59).
  constexpr std::size_t kNatKind = 44;
  constexpr std::size_t kFlags = 51;
  constexpr std::size_t kRemaining = 52;
  auto with = [&bytes](std::size_t at, std::uint8_t value, std::size_t count = 1) {
    std::vector<std::uint8_t> out = bytes;
    for (std::size_t i = at; i < at + count; ++i) out[i] = value;
    return out;
  };
  // The reproducer: NAT kind 238 with remaining_ns = -1.
  EXPECT_FALSE(CtSnapshot::parse(with(kRemaining, 0xff, 8)).has_value());
  std::vector<std::uint8_t> both = with(kRemaining, 0xff, 8);
  both[kNatKind] = 238;
  EXPECT_FALSE(CtSnapshot::parse(both).has_value());
  EXPECT_FALSE(CtSnapshot::parse(with(kNatKind, 238)).has_value());
  EXPECT_FALSE(CtSnapshot::parse(with(kNatKind, 3)).has_value());  // one past kDest
  EXPECT_FALSE(CtSnapshot::parse(with(kFlags, 0x04)).has_value());
  EXPECT_FALSE(CtSnapshot::parse(with(kRemaining, 0x00, 8)).has_value());
  // Every legal value still parses.
  EXPECT_TRUE(CtSnapshot::parse(with(kNatKind, 2)).has_value());  // kDest
  EXPECT_TRUE(CtSnapshot::parse(with(kFlags, 0x03)).has_value());
}

TEST(ConnTracker, RestoreDropsMidHandshakeEntriesAndCollisions) {
  ConnTracker ct(CtConfig{}, 1);
  // One fully established connection and one SYN-only half-open.
  const CtTuple established = tuple(0x0a000001, 40000, 0x0a000002, 80);
  ct.process(established, net::kTcpSyn, 0, kCommit);
  ct.process(established.reversed(), net::kTcpSyn | net::kTcpAck, 100, kCommit);
  const CtTuple half_open = tuple(0x0a000003, 41000, 0x0a000002, 80);
  ct.process(half_open, net::kTcpSyn, 200, kCommit);

  const CtSnapshot snap = ct.checkpoint(1'000);
  ASSERT_EQ(snap.entries.size(), 2u);

  // A snapshot taken mid-handshake must not resurrect the half-open
  // entry: its peer will retransmit the SYN and re-commit cleanly.
  ConnTracker fresh(CtConfig{}, 1);
  const CtRestoreResult result = fresh.restore(snap, 5'000);
  EXPECT_EQ(result.restored, 1u);
  EXPECT_EQ(result.dropped, 1u);
  EXPECT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh.stats().restored, 1u);
  EXPECT_EQ(fresh.stats().restore_dropped, 1u);
  // The survivor still classifies ESTABLISHED — mid-stream ACKs keep
  // flowing instead of going INVALID.
  EXPECT_EQ(fresh.classify(established, net::kTcpAck, 5'100), kCtTracked | kCtEstablished);
  EXPECT_EQ(fresh.classify(half_open, net::kTcpAck, 5'100), kCtInvalid);

  // Restoring the same snapshot again collides with live state: live
  // entries win, nothing is duplicated or corrupted.
  const CtRestoreResult again = fresh.restore(snap, 6'000);
  EXPECT_EQ(again.restored, 0u);
  EXPECT_EQ(again.dropped, 2u);
  EXPECT_EQ(fresh.size(), 1u);
}

TEST(ConnTracker, RestoreReArmsRemainingTimeoutAndDemotesEstablished) {
  CtConfig config;
  config.udp_timeout = 1'000;
  config.sweep_interval = 100;
  ConnTracker ct(config, 1);
  const CtTuple udp = tuple(1, 1, 2, 2, kUdp);
  ct.process(udp, 0, 600, kCommit);  // expires at 1'600
  const CtTuple tcp = tuple(3, 3, 4, 4);
  ct.process(tcp, net::kTcpSyn, 0, kCommit);
  ct.process(tcp.reversed(), net::kTcpSyn | net::kTcpAck, 100, kCommit);

  const CtSnapshot snap = ct.checkpoint(1'200);  // UDP remaining = 400

  // The remaining timeout survives the restart: the UDP entry gets
  // 400 ns from the restore clock, not a fresh full udp_timeout.
  ConnTracker fresh(config, 1);
  fresh.restore(snap, 10'000);
  EXPECT_EQ(fresh.classify(udp, 0, 10'300), kCtTracked);
  EXPECT_EQ(fresh.expire(10'400), 1u);  // 10'000 + 400, wheel re-armed
  EXPECT_EQ(fresh.classify(udp, 0, 10'500), kCtNew);

  // The established TCP entry came back *demoted*: ~30 s remained in
  // the snapshot, but unconfirmed entries idle out on the transient
  // timeout — a stale snapshot cannot keep a dead flow alive.
  auto entries = fresh.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries[0].confirmed);
  EXPECT_EQ(entries[0].expires_at, 10'000 + config.tcp_transient_timeout);

  // Real traffic re-confirms it back up to the established budget.
  fresh.process(tcp, net::kTcpAck, 11'000, kCommit);
  entries = fresh.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].confirmed);
  EXPECT_EQ(entries[0].expires_at, 11'000 + config.tcp_established_timeout);
}

TEST(ConnTracker, RestoredNatBindingBlocksPostRestoreSnatCollision) {
  // Two-port SNAT pool: the restored binding must keep its external
  // port claimed, so a post-restore allocation cannot collide with it.
  ConnTracker ct(CtConfig{}, 1);
  const CtAction snat{CtAction::Nat::kSource, 0xc0a80001, 49152, 49153};
  const CtTuple first = tuple(0x0a000001, 40000, 0x08080808, 80);
  const CtOutcome a = ct.process(first, net::kTcpSyn, 0, snat);
  ASSERT_TRUE(a.rewrite);
  ct.process(CtTuple{0x08080808, 0xc0a80001, 80, a.translation.src_port, kTcp},
             net::kTcpSyn | net::kTcpAck, 100, kCommit);  // establish

  ConnTracker fresh(CtConfig{}, 1);
  fresh.restore(ct.checkpoint(1'000), 2'000);
  ASSERT_EQ(fresh.size(), 1u);

  // A new inside host asks for SNAT after the restore: it must get the
  // *other* pool port — the restored reply binding owns the first.
  const CtOutcome b =
      fresh.process(tuple(0x0a000002, 40000, 0x08080808, 80), net::kTcpSyn, 2'100, snat);
  ASSERT_TRUE(b.rewrite);
  EXPECT_NE(b.translation.src_port, a.translation.src_port);
  EXPECT_EQ(fresh.stats().nat_failures, 0u);

  // Pool exhausted: a third allocation fails instead of stealing the
  // restored binding's port.
  const CtOutcome c =
      fresh.process(tuple(0x0a000003, 40000, 0x08080808, 80), net::kTcpSyn, 2'200, snat);
  EXPECT_FALSE(c.rewrite);
  EXPECT_EQ(fresh.stats().nat_failures, 1u);

  // And the restored mapping still translates replies to the inside.
  const CtOutcome back = fresh.process(
      CtTuple{0x08080808, 0xc0a80001, 80, a.translation.src_port, kTcp}, net::kTcpAck, 2'300,
      kCommit);
  ASSERT_TRUE(back.rewrite);
  EXPECT_EQ(back.translation.dst_ip, 0x0a000001u);
  EXPECT_EQ(back.translation.dst_port, 40000u);
}

TEST(ConnTracker, DeltaStreamReplicatesStateAdvancesOnly) {
  ConnTracker active(CtConfig{}, 1);
  ConnTracker standby(CtConfig{}, 1);
  std::vector<CtDelta> log;
  active.set_delta_sink([&](const CtDelta& delta) { log.push_back(delta); });

  const CtTuple conn = tuple(0x0a000001, 40000, 0x0a000002, 80);
  active.process(conn, net::kTcpSyn, 0, kCommit);           // kCommit
  active.process(conn.reversed(), net::kTcpAck, 100, kCommit);  // kUpdate (seen_reply)
  active.process(conn, net::kTcpAck, 200, kCommit);         // refresh only: no delta
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].kind, CtDelta::Kind::kCommit);
  EXPECT_EQ(log[1].kind, CtDelta::Kind::kUpdate);
  EXPECT_TRUE(log[1].entry.seen_reply);
  EXPECT_EQ(active.stats().deltas_emitted, 2u);

  for (const CtDelta& delta : log) standby.apply_delta(delta, 500);
  EXPECT_EQ(standby.size(), 1u);
  EXPECT_EQ(standby.classify(conn, net::kTcpAck, 600), kCtTracked | kCtEstablished);

  // FIN advances state (kUpdate), expiry/kill closes it (kClose) —
  // and applying the close removes the replica too.
  active.process(conn, net::kTcpFin | net::kTcpAck, 300, kCommit);
  active.expire(300 + CtConfig{}.tcp_transient_timeout + CtConfig{}.sweep_interval);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[2].kind, CtDelta::Kind::kUpdate);
  EXPECT_TRUE(log[2].entry.closing);
  EXPECT_EQ(log[3].kind, CtDelta::Kind::kClose);
  standby.apply_delta(log[2], 700);
  standby.apply_delta(log[3], 800);
  EXPECT_EQ(standby.size(), 0u);
  EXPECT_EQ(standby.stats().deltas_applied, 4u);
}

TEST(ConnTracker, DemoteAllClampsReplicatedEntriesToTransient) {
  CtConfig config;
  config.sweep_interval = 100;
  ConnTracker standby(config, 1);
  CtDelta delta;
  delta.kind = CtDelta::Kind::kCommit;
  delta.entry = CtSnapshotEntry{tuple(1, 1, 2, 2), tuple(2, 2, 1, 1), CtNat{}, true, false,
                                config.tcp_established_timeout};
  standby.apply_delta(delta, 0);
  auto entries = standby.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].confirmed);  // the live stream vouches for it
  EXPECT_EQ(entries[0].expires_at, config.tcp_established_timeout);

  // Takeover: every replicated entry is only as fresh as the stream
  // was — demote to the transient budget until traffic re-confirms.
  EXPECT_EQ(standby.demote_all(1'000), 1u);
  entries = standby.snapshot();
  EXPECT_FALSE(entries[0].confirmed);
  EXPECT_EQ(entries[0].expires_at, 1'000 + config.tcp_transient_timeout);
  EXPECT_EQ(standby.classify(tuple(1, 1, 2, 2), net::kTcpAck, 2'000),
            kCtTracked | kCtEstablished);
}

TEST(ConnTracker, NextDeadlineDrivesSweepScheduling) {
  CtConfig config;
  config.udp_timeout = 1'000;
  config.sweep_interval = 500;
  ConnTracker ct(config, 1);
  EXPECT_FALSE(ct.next_deadline().has_value());
  ct.process(tuple(1, 1, 2, 2, kUdp), 0, 500, kCommit);
  // expires_at = 1'500, quantized up to the 500ns wheel bucket.
  const auto deadline = ct.next_deadline();
  ASSERT_TRUE(deadline.has_value());
  EXPECT_EQ(*deadline, 1'500);
  ct.clear();
  EXPECT_FALSE(ct.next_deadline().has_value());
  EXPECT_EQ(ct.size(), 0u);
}

TEST(ConnTracker, FencedRefusesNewCommitsButServesEstablished) {
  ConnTracker ct(CtConfig{}, 1);
  const CtTuple orig = tuple(0x0a000001, 40000, 0x0a000002, 80);
  ct.process(orig, net::kTcpSyn, 1000, kCommit);
  ct.process(orig.reversed(), net::kTcpSyn | net::kTcpAck, 2000, kCommit);
  ASSERT_EQ(ct.size(), 1u);

  ct.set_fenced(true);
  EXPECT_TRUE(ct.fenced());

  // New connections (and their NAT allocations) are refused outright.
  const CtTuple fresh = tuple(0x0a000003, 41000, 0x0a000002, 80);
  CtAction snat;
  snat.nat = CtAction::Nat::kSource;
  snat.nat_ip = 0xc0000201;
  snat.port_min = 50000;
  snat.port_max = 50100;
  const CtOutcome refused = ct.process(fresh, net::kTcpSyn, 3000, snat);
  EXPECT_FALSE(refused.committed);
  EXPECT_EQ(refused.state, kCtInvalid);
  EXPECT_EQ(ct.stats().fenced_rejects, 1u);
  EXPECT_EQ(ct.stats().nat_allocated, 0u);
  EXPECT_EQ(ct.size(), 1u);

  // The established flow keeps its fast path: classification and
  // refresh still serve it — fencing stops state *minting*, not
  // forwarding.
  EXPECT_EQ(ct.classify(orig, net::kTcpAck, 3000), kCtTracked | kCtEstablished);
  const CtOutcome served = ct.process(orig, net::kTcpAck, 3000, kCommit);
  EXPECT_EQ(served.state, kCtTracked | kCtEstablished);

  // Unfencing restores commits.
  ct.set_fenced(false);
  EXPECT_TRUE(ct.process(fresh, net::kTcpSyn, 4000, kCommit).committed);
}

TEST(ConnTracker, DirtyTracksMutationsAndClearDirtyArmsSkip) {
  ConnTracker ct(CtConfig{}, 1);
  EXPECT_FALSE(ct.dirty());
  const CtTuple orig = tuple(0x0a000001, 40000, 0x0a000002, 80);
  ct.process(orig, net::kTcpSyn, 1000, kCommit);
  EXPECT_TRUE(ct.dirty());
  ct.clear_dirty();
  EXPECT_FALSE(ct.dirty());
  // A pure classification does not dirty; a refresh does.
  ct.classify(orig, net::kTcpAck, 2000);
  EXPECT_FALSE(ct.dirty());
  ct.process(orig, net::kTcpAck, 2000, kCommit);
  EXPECT_TRUE(ct.dirty());
}

TEST(ConnTracker, ResyncUpsertsAuthoritativelyAndDemotesUncovered) {
  ConnTracker active(CtConfig{}, 1);
  ConnTracker rejoining(CtConfig{}, 1);

  // The active holds two established connections (one NATed is not
  // needed — resync carries nat verbatim either way).
  const CtTuple c1 = tuple(0x0a000001, 40000, 0x0a000002, 80);
  const CtTuple c2 = tuple(0x0a000001, 40001, 0x0a000002, 80);
  for (const CtTuple& t : {c1, c2}) {
    active.process(t, net::kTcpSyn, 1000, kCommit);
    active.process(t.reversed(), net::kTcpSyn | net::kTcpAck, 2000, kCommit);
  }

  // The rejoining box has c1 (stale, pre-reply) plus a connection the
  // active never saw (minted during a split that fencing would have
  // prevented — resync must quarantine it).
  rejoining.process(c1, net::kTcpSyn, 1500, kCommit);
  const CtTuple ghost = tuple(0x0a000009, 49000, 0x0a000002, 80);
  rejoining.process(ghost, net::kTcpSyn, 1500, kCommit);
  rejoining.process(ghost.reversed(), net::kTcpSyn | net::kTcpAck, 1600, kCommit);

  const CtSnapshot image = active.checkpoint(3000);
  const std::size_t upserts = rejoining.resync(image, 4000);
  EXPECT_EQ(upserts, 2u);
  ASSERT_EQ(rejoining.size(), 3u);

  for (const ConnEntry& entry : rejoining.snapshot()) {
    if (entry.orig == ghost) {
      // Uncovered: demoted to unconfirmed with a transient deadline.
      EXPECT_FALSE(entry.confirmed);
      EXPECT_LE(entry.expires_at, 4000 + CtConfig{}.tcp_transient_timeout);
    } else {
      // Covered: confirmed, carrying the active's view (seen_reply even
      // for the locally-stale c1).
      EXPECT_TRUE(entry.confirmed);
      EXPECT_TRUE(entry.seen_reply);
    }
  }
}

TEST(ConnTracker, ResyncEvictsLocalCollisionsOnEitherTuple) {
  ConnTracker active(CtConfig{}, 1);
  ConnTracker rejoining(CtConfig{}, 1);

  // Active: c via SNAT — its reply tuple claims external port 50000.
  CtAction snat;
  snat.nat = CtAction::Nat::kSource;
  snat.nat_ip = 0xc0000201;
  snat.port_min = 50000;
  snat.port_max = 50000;
  const CtTuple c = tuple(0x0a000001, 40000, 0x0a000002, 80);
  ASSERT_TRUE(active.process(c, net::kTcpSyn, 1000, snat).committed);

  // Rejoining box: a *different* connection grabbed the same external
  // port during the split — the classic double-allocation conflict.
  const CtTuple other = tuple(0x0a000005, 45000, 0x0a000002, 80);
  ASSERT_TRUE(rejoining.process(other, net::kTcpSyn, 1000, snat).committed);

  rejoining.resync(active.checkpoint(2000), 3000);
  // The conflicting local connection was killed; the authoritative one
  // owns the port now.
  const auto entries = rejoining.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].orig, c);
  EXPECT_TRUE(entries[0].confirmed);
}

TEST(CtSnapshot, WireBytesMatchesSerializedSize) {
  ConnTracker ct(CtConfig{}, 1);
  for (int i = 0; i < 5; ++i) {
    const CtTuple t = tuple(0x0a000001 + static_cast<std::uint32_t>(i), 40000,
                            0x0a000002, 80);
    ct.process(t, net::kTcpSyn, 1000, kCommit);
  }
  const CtSnapshot snap = ct.checkpoint(2000);
  EXPECT_EQ(snap.wire_bytes(), snap.serialize().size());
  const CtSnapshot empty{};
  EXPECT_EQ(empty.wire_bytes(), empty.serialize().size());
}

// ---- filing-path pin ------------------------------------------------------

/// FNV-1a over a stream of u64 observations.
struct Digest {
  std::uint64_t value = 14695981039346656037ULL;

  void fold(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (v >> (byte * 8)) & 0xff;
      value *= 0x100000001b3ULL;
    }
  }
  void fold_tuple(const CtTuple& t) {
    fold(t.src_ip);
    fold(t.dst_ip);
    fold(t.src_port);
    fold(t.dst_port);
    fold(t.proto);
  }
  void fold_nat(const CtNat& nat) {
    fold(static_cast<std::uint64_t>(nat.kind));
    fold(nat.ip);
    fold(nat.port);
  }
  void fold_outcome(const CtOutcome& out) {
    fold(out.state);
    fold(out.committed);
    fold(out.rewrite);
    fold(out.translation.src);
    fold(out.translation.dst);
    fold(out.translation.src_ip);
    fold(out.translation.dst_ip);
    fold(out.translation.src_port);
    fold(out.translation.dst_port);
  }
  void fold_delta(std::uint64_t source, const CtDelta& delta) {
    fold(source);
    fold(static_cast<std::uint64_t>(delta.kind));
    fold_tuple(delta.entry.orig);
    fold_tuple(delta.entry.reply);
    fold_nat(delta.entry.nat);
    fold(delta.entry.seen_reply);
    fold(delta.entry.closing);
    fold(static_cast<std::uint64_t>(delta.entry.remaining_ns));
  }
  void fold_stats(const CtStats& s) {
    for (const std::uint64_t v :
         {s.lookups, s.hits, s.created, s.refreshed, s.expired, s.evicted, s.invalid,
          s.nat_allocated, s.nat_failures, s.checkpoints, s.restored, s.restore_dropped,
          s.deltas_emitted, s.deltas_applied, s.fenced_rejects}) {
      fold(v);
    }
  }
};

std::vector<ConnEntry> sorted_snapshot(const ConnTracker& ct) {
  std::vector<ConnEntry> entries = ct.snapshot();
  const auto key = [](const CtTuple& t) {
    return std::tie(t.src_ip, t.dst_ip, t.src_port, t.dst_port, t.proto);
  };
  std::sort(entries.begin(), entries.end(),
            [&](const ConnEntry& a, const ConnEntry& b) { return key(a.orig) < key(b.orig); });
  return entries;
}

/// Everything observable about one shard: the sorted live table, the
/// counters and the next wheel deadline.
void fold_tracker(Digest& digest, const ConnTracker& ct) {
  for (const ConnEntry& e : sorted_snapshot(ct)) {
    digest.fold_tuple(e.orig);
    digest.fold_tuple(e.reply);
    digest.fold_nat(e.nat);
    digest.fold(e.seen_reply);
    digest.fold(e.closing);
    digest.fold(e.confirmed);
    digest.fold(static_cast<std::uint64_t>(e.last_seen));
    digest.fold(static_cast<std::uint64_t>(e.expires_at));
    digest.fold(e.packets_orig);
    digest.fold(e.packets_reply);
  }
  digest.fold_stats(ct.stats());
  const std::optional<sim::SimNanos> deadline = ct.next_deadline();
  digest.fold(deadline.has_value());
  digest.fold(static_cast<std::uint64_t>(deadline.value_or(0)));
}

// A seeded mix of every operation that files, updates, demotes or
// kills a connection, on three small shards: an active whose delta
// stream reaches a standby with lag and loss, a standby that also runs
// its own traffic (so deltas and resyncs meet colliding local state),
// and a spare that takes the active's checkpoints through restore().
// Capacities are small so LRU eviction runs constantly. Any change to
// which connection is filed, touched, evicted, demoted or expired — or
// when — moves the digest.
TEST(ConnTracker, FilingPathsPinnedDigest) {
  CtConfig config;
  config.max_connections = 12;
  config.tcp_established_timeout = 40'000;
  config.tcp_transient_timeout = 6'000;
  config.udp_timeout = 12'000;
  config.sweep_interval = 1'000;
  CtConfig small = config;
  small.max_connections = 8;

  ConnTracker active(config, 1);
  ConnTracker standby(small, 1);
  ConnTracker spare(small, 1);

  Digest digest;
  std::vector<CtDelta> in_flight;  // active -> standby, applied with lag
  active.set_delta_sink([&](const CtDelta& d) {
    digest.fold_delta(0, d);
    in_flight.push_back(d);
  });
  standby.set_delta_sink([&](const CtDelta& d) { digest.fold_delta(1, d); });
  spare.set_delta_sink([&](const CtDelta& d) { digest.fold_delta(2, d); });

  util::Rng rng(0xf111'6a7e);
  const CtAction snat{CtAction::Nat::kSource, 0xc6336401, 50000, 50007};
  const CtAction dnat{CtAction::Nat::kDest, 0x0a0000fe, 8080, 0};
  const CtAction actions[] = {kCommit, snat, dnat};

  const auto random_tuple = [&] {
    const std::uint8_t proto = rng.chance(0.25) ? kUdp : kTcp;
    return tuple(0x0a000001 + static_cast<std::uint32_t>(rng.below(4)),
                 static_cast<std::uint16_t>(1000 + rng.below(4)),
                 0xc633640a + static_cast<std::uint32_t>(rng.below(2)),
                 rng.chance(0.5) ? 80 : 443, proto);
  };
  const auto random_flags = [&]() -> std::uint8_t {
    switch (rng.below(8)) {
      case 4: return net::kTcpAck;
      case 5: return net::kTcpFin | net::kTcpAck;
      case 6: return net::kTcpRst;
      case 7: return net::kTcpSyn | net::kTcpAck;
      default: return net::kTcpSyn;
    }
  };
  // Either direction of a live connection, or a fresh tuple if none.
  const auto live_tuple = [&](const ConnTracker& ct, bool reply_dir) {
    const std::vector<ConnEntry> entries = sorted_snapshot(ct);
    if (entries.empty()) return random_tuple();
    const ConnEntry& e = entries[rng.below(entries.size())];
    return reply_dir ? e.reply : e.orig;
  };
  const auto pick_action = [&] { return actions[rng.below(3)]; };

  // Coverage of the paths the digest is meant to pin.
  std::size_t reply_mismatches = 0;
  std::size_t resync_collisions = 0;
  std::size_t resync_uncovered = 0;
  std::size_t demoted = 0;
  std::size_t swept = 0;
  std::size_t lazy_expired = 0;

  sim::SimNanos now = 0;
  int fenced_until = -1;
  for (int step = 0; step < 4000; ++step) {
    if (step == fenced_until) active.set_fenced(false);
    now += static_cast<sim::SimNanos>(rng.below(400));
    const std::uint64_t op = rng.below(100);
    if (op < 28) {
      const CtTuple t = random_tuple();
      const std::uint8_t flags = random_flags();
      const CtAction action = pick_action();
      const std::uint64_t expired_before = active.stats().expired;
      digest.fold_outcome(active.process(t, flags, now, action));
      lazy_expired += active.stats().expired - expired_before;
    } else if (op < 44) {
      const bool reply_dir = rng.chance(0.7);
      const CtTuple t = live_tuple(active, reply_dir);
      const std::uint8_t flags =
          rng.chance(0.8) ? static_cast<std::uint8_t>(net::kTcpAck) : random_flags();
      digest.fold_outcome(active.process(t, flags, now, kCommit));
    } else if (op < 52) {
      const CtTuple t = rng.chance(0.5) ? random_tuple() : live_tuple(standby, rng.chance(0.5));
      const std::uint8_t flags = random_flags();
      digest.fold_outcome(standby.process(t, flags, now, pick_action()));
    } else if (op < 57) {
      const CtTuple t = random_tuple();
      const std::uint8_t flags = random_flags();
      digest.fold_outcome(spare.process(t, flags, now, pick_action()));
    } else if (op < 65) {
      ConnTracker& ct = rng.chance(0.5) ? active : standby;
      const CtTuple t = rng.chance(0.5) ? random_tuple() : live_tuple(ct, rng.chance(0.5));
      digest.fold(ct.classify(t, random_flags(), now));
    } else if (op < 73) {
      std::vector<CtDelta> batch;
      batch.swap(in_flight);
      for (const CtDelta& d : batch) {
        if (rng.chance(0.1)) continue;  // lost on the wire
        for (const ConnEntry& e : standby.snapshot()) {
          if (e.orig == d.entry.orig && !(e.reply == d.entry.reply)) ++reply_mismatches;
        }
        standby.apply_delta(d, now);
      }
    } else if (op < 77) {
      for (ConnTracker* ct : {&active, &standby, &spare}) {
        const std::size_t n = ct->expire(now);
        swept += n;
        digest.fold(n);
      }
    } else if (op < 79) {
      if (!active.fenced()) {
        active.set_fenced(true);
        fenced_until = step + 1 + static_cast<int>(rng.below(12));
      }
    } else if (op < 81) {
      const CtRestoreResult r = spare.restore(active.checkpoint(now), now);
      digest.fold(r.restored);
      digest.fold(r.dropped);
    } else if (op < 83) {
      const CtSnapshot image = active.checkpoint(now);
      for (const ConnEntry& local : standby.snapshot()) {
        bool covered = false;
        for (const CtSnapshotEntry& e : image.entries) {
          const bool same = local.orig == e.orig && local.reply == e.reply;
          covered = covered || same;
          if (!same && (local.orig == e.orig || local.orig == e.reply || local.reply == e.orig ||
                        local.reply == e.reply)) {
            ++resync_collisions;
          }
        }
        if (!covered) ++resync_uncovered;
      }
      digest.fold(standby.resync(image, now));
    } else if (op < 85) {
      const std::size_t n = standby.demote_all(now);
      demoted += n;
      digest.fold(n);
    } else if (op < 86) {
      spare.clear();
    } else {
      now += static_cast<sim::SimNanos>(rng.below(3'000));
    }
    if (step % 100 == 99) {
      for (const ConnTracker* ct : {&active, &standby, &spare}) fold_tracker(digest, *ct);
    }
  }
  for (const ConnTracker* ct : {&active, &standby, &spare}) fold_tracker(digest, *ct);

  // The mix reaches every filing path.
  for (const ConnTracker* ct : {&active, &standby, &spare}) {
    EXPECT_GT(ct->stats().created, 0u);
    EXPECT_GT(ct->stats().evicted, 0u);
    EXPECT_GT(ct->stats().expired, 0u);
  }
  EXPECT_GT(active.stats().nat_allocated, 0u);
  EXPECT_GT(active.stats().nat_failures, 0u);
  EXPECT_GT(active.stats().fenced_rejects, 0u);
  EXPECT_GT(active.stats().invalid, 0u);
  EXPECT_GT(spare.stats().restored, 0u);
  EXPECT_GT(spare.stats().restore_dropped, 0u);
  EXPECT_GT(standby.stats().deltas_applied, 0u);
  EXPECT_GT(reply_mismatches, 0u);
  EXPECT_GT(resync_collisions, 0u);
  EXPECT_GT(resync_uncovered, 0u);
  EXPECT_GT(demoted, 0u);
  EXPECT_GT(swept, 0u);
  EXPECT_GT(lazy_expired, 0u);

  EXPECT_EQ(digest.value, 0x4ee1b60eb0a80fc0ULL) << std::hex << "observed 0x" << digest.value;
}

}  // namespace
}  // namespace harmless::openflow
