// perfbench/cpp/replay.cpp — host self time per layer, measured from
// outside the program.
//
// The traced run captures each layer's inputs at the channel taps
// (frames into the legacy switch, trunk frames into the S4 box, every
// delivery timestamp) and, after the measured phase and its checks,
// replays them through that layer's public functions in isolation.
// Each replay is one span; ns per operation is the span's self time
// over the operations it covered. Replays that dispatch engine events
// (link, legacy switch) are charged net of those events, at the engine
// replay's ns per event.
#include <cstdio>
#include <functional>

#include "bench.hpp"
#include "net/vlan.hpp"
#include "openflow/conntrack.hpp"
#include "openflow/fields.hpp"
#include "taps.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace {

/// Keeps replay results observable so the work is not optimized away.
volatile std::uint64_t g_sink = 0;

constexpr std::size_t kBurst = 32;

}  // namespace

void Scenario::replay_layers(Sheet& sheet, double measured_ns_per_pkt) {
  HopTaps& taps = *taps_;
  const SimNanos now = network_.now();
  std::vector<net::Packet> frames;  // every captured frame, for link/parse
  for (const auto& [port, packet] : taps.legacy_in) frames.push_back(packet.clone());
  for (const net::Packet& packet : taps.s4_in) frames.push_back(packet.clone());

  // ---- sim: engine ----
  {
    // Chained like the live run: each firing schedules the delivery
    // kInFlight ahead, so the pending set stays the size a fabric keeps.
    constexpr std::size_t kInFlight = 256;
    sim::Engine engine;
    const std::vector<SimNanos>& times = taps.delivery_times;
    std::uint64_t fired = 0;
    std::function<void(std::size_t)> arm;
    arm = [&](std::size_t i) {
      if (i >= times.size()) return;
      engine.schedule_at(times[i] - times.front(), [&arm, &fired, i] {
        ++fired;
        arm(i + kInFlight);
      });
    };
    Scope span(tracer_, "replay.sim.engine");
    for (std::size_t i = 0; i < std::min(kInFlight, times.size()); ++i) arm(i);
    engine.run();
    span.set_ops(fired);
  }
  const auto ns_per_op = [this](const char* name) {
    const auto totals = tracer_.totals();
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.ops == 0) return 0.0;
    return static_cast<double>(it->second.self_ns) / static_cast<double>(it->second.ops);
  };
  const double engine_ns = ns_per_op("replay.sim.engine");

  // ---- sim: link (transmit -> deliver into a null sink) ----
  double link_events_per_frame = 0;
  {
    sim::Engine engine;
    sim::LinkSpec spec = sim::LinkSpec::gbps(10);
    spec.queue_capacity_packets = frames.size() + 1;
    sim::Channel channel(engine, spec, "replay");
    std::uint64_t delivered = 0;
    channel.set_sink([&delivered](net::Packet&& packet) { delivered += packet.size(); });
    std::vector<net::Packet> batch;
    for (const net::Packet& packet : frames) batch.push_back(packet.clone());
    // Batches of a few dozen frames, so deliveries stay near-term
    // events as they are on a live link.
    Scope span(tracer_, "replay.sim.link");
    for (std::size_t i = 0; i < batch.size(); ++i) {
      channel.transmit(std::move(batch[i]));
      if (i % 64 == 63) engine.run();
    }
    engine.run();
    span.set_ops(batch.size());
    g_sink = g_sink + delivered;
    link_events_per_frame =
        static_cast<double>(engine.events_dispatched()) / static_cast<double>(std::max<std::size_t>(1, batch.size()));
  }

  // ---- sim: recorder ----
  {
    sim::LatencyRecorder recorder;
    std::vector<net::Packet> packets;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      packets.push_back(frames[i].clone());
      packets.back().set_id(i + 1);
    }
    Scope span(tracer_, "replay.sim.recorder");
    for (std::size_t i = 0; i < packets.size(); ++i) recorder.arm(i + 1, static_cast<SimNanos>(i));
    for (std::size_t i = 0; i < packets.size(); ++i)
      recorder.complete(packets[i], static_cast<SimNanos>(i) + 1000);
    span.set_ops(packets.size());
    g_sink = g_sink + recorder.completed();
  }

  // ---- net: parse ----
  {
    constexpr int kRounds = 5;
    std::uint64_t acc = 0;
    Scope span(tracer_, "replay.net.parse");
    for (int round = 0; round < kRounds; ++round)
      for (const net::Packet& packet : frames) acc += net::parse_packet(packet.frame()).eth_type;
    span.set_ops(frames.size() * kRounds);
    g_sink = g_sink + acc;
  }

  // ---- legacy: captured ingress into an identically configured switch ----
  double legacy_events_per_pkt = 0;
  {
    sim::Network replay_net;
    auto& device = replay_net.add_node<legacy::LegacySwitch>("legacy-replay", device_->config());
    device.ensure_ports(kTrunkPort);
    std::vector<std::pair<int, net::Packet>> ingress;
    for (const auto& [port, packet] : taps.legacy_in) ingress.emplace_back(port, packet.clone());
    Scope span(tracer_, "replay.legacy.forward");
    for (std::size_t i = 0; i < ingress.size(); i += 256) {
      for (std::size_t j = i; j < std::min(ingress.size(), i + 256); ++j)
        device.handle(ingress[j].first, std::move(ingress[j].second));
      replay_net.run();
    }
    span.set_ops(ingress.size());
    legacy_events_per_pkt = static_cast<double>(replay_net.engine().events_dispatched()) /
                            static_cast<double>(std::max<std::size_t>(1, ingress.size()));
    g_sink = g_sink + device.counters().forwarded;
  }

  // ---- openflow: SS_2 ingress (trunk frames with the VLAN popped) ----
  const auto& map = deployment_->fabric().port_map();
  std::vector<std::pair<std::uint32_t, net::Packet>> ss2_in;
  for (const net::Packet& packet : taps.s4_in) {
    net::Packet copy = packet.clone();
    const auto tag = net::vlan_pop(copy.frame());
    if (!tag) continue;
    const auto port = map.ss2_for_vlan(tag->vid);
    if (!port) continue;
    ss2_in.emplace_back(*port, std::move(copy));
  }
  // The shard (worker core) a frame is steered to: the symmetric
  // 5-tuple hash under multi-core RSS, as the live datapath does.
  openflow::Pipeline& pipeline = ss2().pipeline();
  const std::size_t shards = pipeline.shard_count();
  const auto shard_of = [shards](const net::Packet& packet) -> std::size_t {
    if (shards == 1) return 0;
    const net::ParsedPacket parsed = net::parse_packet(packet.frame());
    if (!parsed.ipv4 || (!parsed.tcp && !parsed.udp)) return 0;
    return static_cast<std::size_t>(util::symmetric_flow_hash(parsed.ipv4->src.value(), parsed.src_port(),
                                                              parsed.ipv4->dst.value(), parsed.dst_port(),
                                                              parsed.ipv4->protocol)) %
           shards;
  };
  struct Item {
    std::uint32_t port;
    std::size_t shard;
    net::Packet packet;
  };
  std::vector<Item> ss2_items;
  for (auto& [port, packet] : ss2_in) {
    const std::size_t shard = shard_of(packet);
    ss2_items.push_back({port, shard, std::move(packet)});
  }
  const auto clones = [](const std::vector<Item>& items) {
    std::vector<Item> out;
    out.reserve(items.size());
    for (const Item& item : items) out.push_back({item.port, item.shard, item.packet.clone()});
    return out;
  };
  const bool cache_was = pipeline.cache_enabled();
  {
    // Warm the cache shards with the captured ingress, then probe them.
    for (Item& item : clones(ss2_items))
      (void)pipeline.run(std::move(item.packet), item.port, now, item.shard);
    std::vector<std::pair<std::size_t, openflow::FieldView>> views;
    for (const Item& item : ss2_items)
      views.emplace_back(item.shard,
                         openflow::build_field_view(net::parse_packet(item.packet.frame()), item.port));
    std::uint64_t found = 0;
    Scope span(tracer_, "replay.openflow.cache_lookup");
    for (const auto& [shard, view] : views) found += pipeline.cache(shard).probe(view, now) != nullptr;
    span.set_ops(views.size());
    g_sink = g_sink + found;
  }
  {
    auto input = clones(ss2_items);
    pipeline.set_cache_enabled(false);
    std::uint64_t outputs = 0;
    {
      Scope span(tracer_, "replay.openflow.slowpath");
      for (Item& item : input)
        outputs += pipeline.run(std::move(item.packet), item.port, now, item.shard).outputs.size();
      span.set_ops(input.size());
    }
    pipeline.set_cache_enabled(cache_was);
    g_sink = g_sink + outputs;
  }
  // Burst replay, 32 frames per burst per shard: SS_2 over its ingress,
  // SS_1 over the trunk frames (OF port 1).
  const auto burst_replay = [this](openflow::Pipeline& target, std::vector<Item> input, const char* name) {
    std::vector<std::pair<std::size_t, std::vector<openflow::BurstPacket>>> bursts;
    std::vector<std::vector<openflow::BurstPacket>> open(target.shard_count());
    for (Item& item : input) {
      auto& burst = open[item.shard];
      burst.push_back({std::move(item.packet), item.port});
      if (burst.size() == kBurst) bursts.emplace_back(item.shard, std::move(burst)), burst.clear();
    }
    for (std::size_t shard = 0; shard < open.size(); ++shard)
      if (!open[shard].empty()) bursts.emplace_back(shard, std::move(open[shard]));
    openflow::BurstResult result;
    std::uint64_t groups = 0;
    const SimNanos at = network_.now();
    Scope span(tracer_, name);
    for (auto& [shard, burst] : bursts) {
      target.run_burst(burst, at, shard, result);
      groups += result.replay_groups;
    }
    span.set_ops(input.size());
    g_sink = g_sink + groups;
  };
  burst_replay(pipeline, clones(ss2_items), "replay.openflow.pipeline.ss2");
  {
    std::vector<Item> trunk;
    for (const net::Packet& packet : taps.s4_in) trunk.push_back({1, 0, packet.clone()});
    burst_replay(ss1().pipeline(), std::move(trunk), "replay.openflow.pipeline.ss1");
  }

  // ---- openflow: conntrack classify over the captured tuples ----
  {
    std::vector<std::pair<openflow::CtTuple, std::uint8_t>> tuples;
    std::vector<std::size_t> shard_ids;
    for (const Item& item : ss2_items) {
      const net::ParsedPacket parsed = net::parse_packet(item.packet.frame());
      if (!parsed.ipv4 || (!parsed.tcp && !parsed.udp)) continue;
      tuples.push_back({openflow::CtTuple{parsed.ipv4->src.value(), parsed.ipv4->dst.value(),
                                          parsed.src_port(), parsed.dst_port(), parsed.ipv4->protocol},
                        parsed.tcp ? parsed.tcp->flags : std::uint8_t{0}});
      shard_ids.push_back(item.shard);
    }
    openflow::ConnTracker empty(openflow::CtConfig{}, 1);
    const auto tracker = [&](std::size_t shard) -> openflow::ConnTracker& {
      return pipeline.conntrack_enabled() ? pipeline.conntrack(shard) : empty;
    };
    std::uint64_t bits = 0;
    Scope span(tracer_, "replay.openflow.ct_classify");
    for (std::size_t i = 0; i < tuples.size(); ++i)
      bits += tracker(shard_ids[i]).classify(tuples[i].first, tuples[i].second, now);
    span.set_ops(tuples.size());
    g_sink = g_sink + bits;
  }

  // ---- softswitch: standby apply of the active's connection deltas ----
  {
    std::vector<openflow::CtDelta> deltas;
    if (pipeline.conntrack_enabled()) {
      for (std::size_t shard = 0; shard < pipeline.shard_count(); ++shard)
        for (const openflow::ConnEntry& e : pipeline.conntrack(shard).snapshot()) {
          openflow::CtDelta delta;
          delta.entry = {e.orig, e.reply, e.nat, e.seen_reply, e.closing, e.expires_at - now};
          if (delta.entry.remaining_ns > 0) deltas.push_back(delta);
        }
    }
    openflow::ConnTracker standby(pipeline.conntrack_enabled() ? pipeline.conntrack(0).config()
                                                               : openflow::CtConfig{},
                                  pipeline.shard_count());
    Scope span(tracer_, "replay.softswitch.repl_apply");
    for (const openflow::CtDelta& delta : deltas) standby.apply_delta(delta, now);
    span.set_ops(deltas.size());
    g_sink = g_sink + standby.size();
  }

  const double link_ns = ns_per_op("replay.sim.link") - link_events_per_frame * engine_ns;
  const double legacy_ns = ns_per_op("replay.legacy.forward") - legacy_events_per_pkt * engine_ns;
  const double recorder_ns = ns_per_op("replay.sim.recorder");
  const double parse_ns = ns_per_op("replay.net.parse");
  // SS_1 and SS_2 replays, weighted by each switch's pipeline runs.
  double ss1_runs = 0, ss2_runs = 0;
  for (std::size_t c = 0; c < after_.ss1_cores.size(); ++c)
    ss1_runs += static_cast<double>(after_.ss1_cores[c].packets - before_.ss1_cores[c].packets);
  for (std::size_t c = 0; c < after_.ss2_cores.size(); ++c)
    ss2_runs += static_cast<double>(after_.ss2_cores[c].packets - before_.ss2_cores[c].packets);
  const double ss1_ns = ns_per_op("replay.openflow.pipeline.ss1");
  const double ss2_ns = ns_per_op("replay.openflow.pipeline.ss2");
  const double pipeline_ns = (ss1_runs * ss1_ns + ss2_runs * ss2_ns) / std::max(1.0, ss1_runs + ss2_runs);
  // The generator's own stamping, replayed over the workload's templates.
  {
    constexpr std::size_t kStamps = 100'000;
    g_sink = g_sink + stamp_replay(kStamps);  // untimed pass: templates built, caches warm
    Scope span(tracer_, "replay.bench.gen");
    g_sink = g_sink + stamp_replay(kStamps);
    span.set_ops(kStamps);
  }
  const double gen_ns_per_pkt = ns_per_op("replay.bench.gen");
  sheet["sim.engine_ns_per_event"] = {engine_ns, "ns"};
  sheet["sim.link_ns_per_frame"] = {link_ns, "ns"};
  sheet["sim.recorder_ns_per_pkt"] = {recorder_ns, "ns"};
  sheet["net.parse_ns_per_pkt"] = {parse_ns, "ns"};
  sheet["legacy.forward_ns_per_pkt"] = {legacy_ns, "ns"};
  sheet["openflow.cache_lookup_ns"] = {ns_per_op("replay.openflow.cache_lookup"), "ns"};
  sheet["openflow.slowpath_ns_per_miss"] = {ns_per_op("replay.openflow.slowpath"), "ns"};
  sheet["openflow.pipeline_ns_per_pkt"] = {pipeline_ns, "ns"};
  sheet["openflow.ct_classify_ns"] = {ns_per_op("replay.openflow.ct_classify"), "ns"};
  sheet["softswitch.repl_apply_ns"] = {ns_per_op("replay.softswitch.repl_apply"), "ns"};

  sheet["bench.gen_ns_per_pkt"] = {gen_ns_per_pkt, "ns"};

  // What the replays miss: the measured host ns per delivered packet
  // minus each replayed layer's ns weighted by its calls per packet.
  const double pkts = static_cast<double>(std::max<std::uint64_t>(1, window_packets()));
  const double frames_per_pkt = static_cast<double>(taps.wire.size()) / pkts;
  const double events_per_pkt = static_cast<double>(after_.events - before_.events) / pkts;
  const double gens_per_pkt = static_cast<double>(gen_seq_) / static_cast<double>(std::max<std::uint64_t>(1, delivered_));
  const double attributed = events_per_pkt * engine_ns + frames_per_pkt * (link_ns + parse_ns) +
                            recorder_ns + static_cast<double>(taps.legacy_ingress) / pkts * legacy_ns +
                            (ss1_runs * ss1_ns + ss2_runs * ss2_ns) / pkts + gens_per_pkt * gen_ns_per_pkt;
  sheet["bench.unattributed_ns_per_pkt"] = {measured_ns_per_pkt - attributed, "ns"};
  std::fprintf(stderr, "replay sink %llu\n", static_cast<unsigned long long>(g_sink));
}

}  // namespace perfbench
