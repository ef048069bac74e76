// perfbench/cpp/workloads.cpp — the three fabric workloads.
//
//   harmless_fastpath — 64B UDP neighbour streams at 50% of 1G line rate
//                       over a static L2 program: the tag-and-hairpin
//                       cache-hit path at the smallest frame.
//   acl_churn         — IMIX over a Zipf population of 5-tuples far
//                       larger than the megaflow cache, through ~512
//                       first-match ACL rules, while the controller
//                       adds/deletes rules on an unused range.
//   nat_conn_churn    — open-loop TCP connections through the SNAT app
//                       on a 4-core symmetric-RSS SS_2 with conntrack,
//                       replicated to a standby with incremental
//                       checkpoints.
//
// Every workload offers traffic open-loop in simulated time from a
// seeded generator (the nat exchanges are reply-driven within each
// connection) and checks its own outputs.
#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "bench.hpp"
#include "controller/apps/nat.hpp"
#include "controller/apps/static_flows.hpp"
#include "net/ip.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {

namespace {

net::MacAddr mac_of(int index) {
  return net::MacAddr::from_u64(0x020000000001ULL + static_cast<std::uint64_t>(index));
}
net::Ipv4Addr ip_of(int index) { return net::Ipv4Addr(0x0a000001u + static_cast<std::uint32_t>(index)); }

constexpr std::uint8_t kUdp = static_cast<std::uint8_t>(net::IpProto::kUdp);
constexpr std::uint8_t kTcp = static_cast<std::uint8_t>(net::IpProto::kTcp);
constexpr std::uint16_t kIpv4Type = static_cast<std::uint16_t>(net::EtherType::kIpv4);

std::string str(std::uint64_t v) { return std::to_string(v); }

/// Static L2 forwarding on SS_2: one exact eth_dst rule per host.
void add_l2_rules(controller::StaticFlowApp& app, std::uint8_t table, int hosts) {
  for (int i = 0; i < hosts; ++i) {
    openflow::FlowModMsg mod;
    mod.table_id = table;
    mod.priority = 10;
    mod.match.eth_dst(mac_of(i));
    mod.instructions = openflow::apply({openflow::output(static_cast<std::uint32_t>(i + 1))});
    app.flow(mod);
  }
}

// ===========================================================================
// harmless_fastpath
// ===========================================================================

class Fastpath final : public Scenario {
 public:
  using Scenario::Scenario;

 protected:
  static constexpr int kFlowsPerHost = 16;
  static constexpr std::size_t kFrame = 64;

  std::string name() const override { return "harmless_fastpath"; }

  void install_apps() override {
    add_l2_rules(controller_.add_app<controller::StaticFlowApp>(), 0, kAccessPorts);
  }

  void start_traffic() override {
    util::Rng seeder(options_.seed);
    // 50% of the 1G line: a mean gap of twice the 64B serialization
    // time, jittered uniformly in [0.5, 1.5) of the mean so no gap is
    // ever shorter than the wire needs (the NIC never queues).
    mean_gap_ = 2 * sim::LinkSpec::gbps(1).rate.serialization_ns(kFrame);
    for (int i = 0; i < kAccessPorts; ++i) {
      const int dst = (i + 1) % kAccessPorts;
      net::FlowKey key;
      key.eth_src = mac_of(i);
      key.eth_dst = mac_of(dst);
      key.ip_src = ip_of(i);
      key.ip_dst = ip_of(dst);
      sources_.push_back(Source{net::UdpTemplate(key, kFrame), util::Rng(seeder.next()), 0});
      hosts_[static_cast<std::size_t>(dst)]->set_on_receive(
          [this, dst](const net::Packet& packet, const net::ParsedPacket& parsed) {
            on_receive(dst, packet, parsed);
          });
    }
    received_ok_.assign(kAccessPorts, 0);
    running_ = true;
    for (int i = 0; i < kAccessPorts; ++i) {
      const SimNanos phase = static_cast<SimNanos>(sources_[static_cast<std::size_t>(i)].rng.below(
          static_cast<std::uint64_t>(mean_gap_)));
      engine().schedule_at(network_.now() + phase, [this, i] { fire(i); });
    }
  }

  void stop_traffic() override { running_ = false; }

  void fire(int i) {
    if (!running_) return;
    Source& source = sources_[static_cast<std::size_t>(i)];
    const auto flow = static_cast<std::uint16_t>(10000 + i * 64 + source.rng.below(kFlowsPerHost));
    const std::uint64_t seq = gen_seq_++;
    std::optional<net::Packet> packet;
    {
      Scope span(tracer_, sample_span(seq) ? "bench.gen" : "", seq);
      packet.emplace(source.frame.stamp(flow, 9000));
    }
    hosts_[static_cast<std::size_t>(i)]->send(std::move(*packet));
    ++source.sent;
    const double jitter = 0.5 + source.rng.uniform();
    const SimNanos gap = std::max<SimNanos>(
        mean_gap_ / 2, static_cast<SimNanos>(std::llround(jitter * static_cast<double>(mean_gap_))));
    engine().schedule_at(network_.now() + gap, [this, i] { fire(i); });
  }

  void on_receive(int dst, const net::Packet& packet, const net::ParsedPacket& parsed) {
    note_delivery(packet);
    const int src = (dst + kAccessPorts - 1) % kAccessPorts;
    const bool ok = parsed.udp && parsed.ipv4 && !parsed.vlan && packet.size() == kFrame &&
                    parsed.eth_dst == mac_of(dst) && parsed.ipv4->src == ip_of(src) &&
                    parsed.ipv4->dst == ip_of(dst) && parsed.udp->dst_port == 9000;
    if (ok)
      ++received_ok_[static_cast<std::size_t>(dst)];
    else
      ++received_bad_;
  }

  std::uint64_t stamp_replay(std::size_t count) override {
    std::uint64_t sum = 0;
    for (std::size_t n = 0; n < count; ++n)
      sum += sources_[n % sources_.size()].frame.stamp(static_cast<std::uint16_t>(10000 + n % 512), 9000).size();
    return sum;
  }

  SimNanos warmup_ns() const override { return 2'000'000; }
  // ~0.2 simulated Mpps per host second at ~7.8 Mpps offered.
  SimNanos sim_ns_per_second() const override { return 19'000'000; }

  std::uint64_t attempted() const override {
    std::uint64_t sent = 0;
    for (const Source& s : sources_) sent += s.sent;
    return sent;
  }
  std::uint64_t failed() const override {
    std::uint64_t failed = received_bad_;
    for (int dst = 0; dst < kAccessPorts; ++dst) {
      const std::uint64_t sent = sources_[static_cast<std::size_t>((dst + kAccessPorts - 1) % kAccessPorts)].sent;
      const std::uint64_t ok = received_ok_[static_cast<std::size_t>(dst)];
      failed += sent > ok ? sent - ok : 0;
    }
    return failed;
  }

  void check_workload(Checks& checks) override {
    checks.expect(received_bad_ == 0, "delivered-with-intended-headers",
                  str(received_bad_) + " frames with wrong headers or at the wrong host");
    for (int dst = 0; dst < kAccessPorts; ++dst) {
      const std::uint64_t sent = sources_[static_cast<std::size_t>((dst + kAccessPorts - 1) % kAccessPorts)].sent;
      checks.expect(received_ok_[static_cast<std::size_t>(dst)] == sent,
                    "each-frame-delivered-once",
                    util::format("h%d got %llu of %llu", dst + 1,
                                 static_cast<unsigned long long>(received_ok_[static_cast<std::size_t>(dst)]),
                                 static_cast<unsigned long long>(sent)));
    }
    checks.expect(recorder_.outstanding() == 0, "outstanding-equals-expected-denies",
                  str(recorder_.outstanding()) + " outstanding, 0 denies expected");
  }

 private:
  struct Source {
    net::UdpTemplate frame;
    util::Rng rng;
    std::uint64_t sent = 0;
  };
  std::vector<Source> sources_;
  std::vector<std::uint64_t> received_ok_;
  std::uint64_t received_bad_ = 0;
  SimNanos mean_gap_ = 0;
  bool running_ = false;
};

// ===========================================================================
// acl_churn
// ===========================================================================

/// One ACL rule in the benchmark's own representation, matched by its
/// own first-match reference scan (independent of openflow::Match).
struct AclRule {
  int in_port = -1;  // SS_2 OF port, -1 = any
  std::uint32_t src = 0, src_mask = 0;
  std::uint32_t dst = 0, dst_mask = 0;
  int proto = -1;
  int sport = -1;
  int dport = -1;
  bool deny = false;
};

struct AclTuple {
  int src = 0;  // host index
  int dst = 0;
  std::uint8_t proto = kUdp;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  bool deny = false;
};

bool rule_matches(const AclRule& r, const AclTuple& t) {
  if (r.in_port >= 0 && r.in_port != t.src + 1) return false;
  if ((ip_of(t.src).value() & r.src_mask) != (r.src & r.src_mask)) return false;
  if ((ip_of(t.dst).value() & r.dst_mask) != (r.dst & r.dst_mask)) return false;
  if (r.proto >= 0 && r.proto != t.proto) return false;
  if (r.sport >= 0 && r.sport != t.sport) return false;
  if (r.dport >= 0 && r.dport != t.dport) return false;
  return true;
}

std::uint32_t prefix_mask(int len) { return len == 0 ? 0 : ~0u << (32 - len); }

class AclChurn final : public Scenario {
 public:
  using Scenario::Scenario;

 protected:
  static constexpr int kRules = 512;
  static constexpr int kTuplesPerHost = 4096;
  static constexpr double kZipfS = 0.8;
  static constexpr std::uint64_t kShapeSeed = 0xac1'5eedULL;
  static constexpr SimNanos kChurnPeriod = 10'000'000;
  static constexpr int kChurnLive = 4;
  static constexpr std::size_t kSizes[3] = {64, 576, 1500};

  std::string name() const override { return "acl_churn"; }

  void install_apps() override {
    // The rule set and the tuple population are the workload's fixed
    // shape (their own constant seed), so every --seed offers the same
    // classifier the same mix; --seed drives the traffic drawn from it.
    util::Rng rng(kShapeSeed);
    build_population(rng);
    build_rules(rng);
    // Reference verdicts: first match in priority order, default allow.
    for (auto& population : tuples_)
      for (AclTuple& t : population) {
        t.deny = false;
        for (const AclRule& r : rules_)
          if (rule_matches(r, t)) {
            t.deny = r.deny;
            break;
          }
      }
    auto& app = controller_.add_app<controller::StaticFlowApp>();
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      const AclRule& r = rules_[i];
      openflow::FlowModMsg mod;
      mod.table_id = 0;
      mod.priority = static_cast<std::uint16_t>(1000 + kRules - static_cast<int>(i));
      mod.match.eth_type(kIpv4Type);
      if (r.in_port >= 0) mod.match.in_port(static_cast<std::uint32_t>(r.in_port));
      if (r.src_mask) mod.match.set_masked(openflow::Field::kIpSrc, r.src, r.src_mask);
      if (r.dst_mask) mod.match.set_masked(openflow::Field::kIpDst, r.dst, r.dst_mask);
      if (r.proto >= 0) mod.match.ip_proto(static_cast<std::uint8_t>(r.proto));
      if (r.sport >= 0) mod.match.l4_src(static_cast<std::uint16_t>(r.sport));
      if (r.dport >= 0) mod.match.l4_dst(static_cast<std::uint16_t>(r.dport));
      mod.instructions = r.deny ? openflow::Instructions{} : openflow::apply_then_goto({}, 1);
      app.flow(mod);
    }
    openflow::FlowModMsg allow;
    allow.table_id = 0;
    allow.priority = 0;
    allow.instructions = openflow::apply_then_goto({}, 1);
    app.flow(allow);
    add_l2_rules(app, 1, kAccessPorts);
  }

  void build_population(util::Rng& rng) {
    // Services: 64 destination ports; sources from a wide ephemeral
    // range, so nearly every tuple is its own megaflow.
    for (int i = 0; i < 64; ++i) services_.push_back(static_cast<std::uint16_t>(1000 + 37 * i));
    tuples_.resize(kAccessPorts);
    for (int h = 0; h < kAccessPorts; ++h) {
      std::set<std::tuple<int, int, int, int>> seen;
      while (static_cast<int>(tuples_[static_cast<std::size_t>(h)].size()) < kTuplesPerHost) {
        AclTuple t;
        t.src = h;
        t.dst = static_cast<int>((h + 1 + rng.below(kAccessPorts - 1)) % kAccessPorts);
        t.proto = rng.chance(0.5) ? kTcp : kUdp;
        t.sport = static_cast<std::uint16_t>(20000 + rng.below(40000));
        t.dport = services_[rng.below(services_.size())];
        if (!seen.insert({t.dst, t.proto, t.sport, t.dport}).second) continue;
        tuples_[static_cast<std::size_t>(h)].push_back(t);
      }
    }
    double sum = 0;
    for (int rank = 1; rank <= kTuplesPerHost; ++rank) {
      sum += 1.0 / std::pow(static_cast<double>(rank), kZipfS);
      zipf_cdf_.push_back(sum);
    }
    for (double& v : zipf_cdf_) v /= sum;
  }

  void build_rules(util::Rng& rng) {
    // Eight mask shapes, values taken from the population so rules hit.
    for (int i = 0; i < kRules; ++i) {
      const auto& population = tuples_[rng.below(kAccessPorts)];
      const AclTuple& t = population[rng.below(population.size())];
      AclRule r;
      r.deny = rng.chance(0.3);
      switch (i % 8) {
        case 0: r.src = ip_of(t.src).value(); r.src_mask = ~0u;
                r.dst = ip_of(t.dst).value(); r.dst_mask = ~0u; r.proto = t.proto; r.dport = t.dport; break;
        case 1: r.dst = ip_of(t.dst).value(); r.dst_mask = prefix_mask(30); r.proto = t.proto; r.dport = t.dport; break;
        case 2: r.src = ip_of(t.src).value(); r.src_mask = prefix_mask(31); r.proto = t.proto; r.sport = t.sport; break;
        case 3: r.proto = t.proto; r.dport = t.dport; r.sport = t.sport; break;
        case 4: r.proto = t.proto; r.sport = t.sport; break;
        case 5: r.dst = ip_of(t.dst).value(); r.dst_mask = ~0u; r.proto = t.proto; r.dport = t.dport; break;
        case 6: r.src = ip_of(t.src).value(); r.src_mask = prefix_mask(29); r.proto = t.proto; r.sport = t.sport; break;
        default: r.in_port = t.src + 1; r.proto = t.proto; r.dport = t.dport; break;
      }
      rules_.push_back(r);
    }
  }

  void start_traffic() override {
    util::Rng seeder(options_.seed);
    for (int s = 0; s < kAccessPorts; ++s) {
      for (int d = 0; d < kAccessPorts; ++d)
        for (int proto = 0; proto < 2; ++proto)
          for (std::size_t size : kSizes) {
            net::FlowKey key;
            key.eth_src = mac_of(s);
            key.eth_dst = mac_of(d);
            key.ip_src = ip_of(s);
            key.ip_dst = ip_of(d);
            if (proto == 0)
              udp_.emplace_back(key, size);
            else
              tcp_.emplace_back(key, net::kTcpAck, std::string(size - 54, 'x'));
          }
      rngs_.emplace_back(seeder.next());
    }
    for (int h = 0; h < kAccessPorts; ++h) {
      for (const AclTuple& t : tuples_[static_cast<std::size_t>(h)])
        verdict_[key_of(t.src, t.dst, t.proto, t.sport, t.dport)] = t.deny;
      hosts_[static_cast<std::size_t>(h)]->set_on_receive(
          [this, h](const net::Packet& packet, const net::ParsedPacket& parsed) {
            on_receive(h, packet, parsed);
          });
    }
    expect_deliver_.assign(kAccessPorts, 0);
    expect_deny_.assign(kAccessPorts, 0);
    received_ok_.assign(kAccessPorts, 0);
    running_ = true;
    for (int h = 0; h < kAccessPorts; ++h)
      engine().schedule_at(network_.now() + next_gap(h), [this, h] { fire(h); });
    engine().schedule_at(network_.now() + kChurnPeriod, [this] { churn(); });
  }

  void stop_traffic() override { running_ = false; }

  static std::uint64_t key_of(int src, int dst, std::uint8_t proto, std::uint16_t sport,
                              std::uint16_t dport) {
    return (static_cast<std::uint64_t>(src) << 56) | (static_cast<std::uint64_t>(dst) << 48) |
           (static_cast<std::uint64_t>(proto) << 32) | (static_cast<std::uint64_t>(sport) << 16) |
           dport;
  }

  SimNanos next_gap(int h) {
    return std::max<SimNanos>(1, static_cast<SimNanos>(std::llround(
                                     rngs_[static_cast<std::size_t>(h)].exponential(kMeanGapNs))));
  }

  void fire(int h) {
    if (!running_) return;
    util::Rng& rng = rngs_[static_cast<std::size_t>(h)];
    const double u = rng.uniform();
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin());
    const AclTuple& t = tuples_[static_cast<std::size_t>(h)][std::min<std::size_t>(rank, kTuplesPerHost - 1)];
    // IMIX 7:4:1 of 64/576/1500 bytes.
    const std::uint64_t pick = rng.below(12);
    const std::size_t size_class = pick < 7 ? 0 : pick < 11 ? 1 : 2;
    const std::size_t index =
        ((static_cast<std::size_t>(t.src) * kAccessPorts + static_cast<std::size_t>(t.dst)) * 3) + size_class;
    const std::uint64_t seq = gen_seq_++;
    std::optional<net::Packet> packet;
    {
      Scope span(tracer_, sample_span(seq) ? "bench.gen" : "", seq);
      packet.emplace(t.proto == kUdp ? udp_[index].stamp(t.sport, t.dport)
                                     : tcp_[index].stamp(t.sport, t.dport));
    }
    hosts_[static_cast<std::size_t>(h)]->send(std::move(*packet));
    (t.deny ? expect_deny_ : expect_deliver_)[static_cast<std::size_t>(t.dst)]++;
    engine().schedule_at(network_.now() + next_gap(h), [this, h] { fire(h); });
  }

  void churn() {
    if (!running_) return;
    // Rules on 172.16.0.0/12, which no traffic uses: every add/delete
    // bumps the cache epoch without changing any packet's verdict.
    const auto match_of = [](std::uint64_t k) {
      openflow::Match match;
      match.eth_type(kIpv4Type).ip_src(net::Ipv4Addr(0xac100000u + static_cast<std::uint32_t>(k)));
      return match;
    };
    session().flow_add(0, 3000, match_of(churn_tick_), openflow::Instructions{});
    if (churn_tick_ >= kChurnLive) session().flow_delete(0, match_of(churn_tick_ - kChurnLive));
    ++churn_tick_;
    engine().schedule_at(network_.now() + kChurnPeriod, [this] { churn(); });
  }

  void on_receive(int dst, const net::Packet& packet, const net::ParsedPacket& parsed) {
    note_delivery(packet);
    bool ok = parsed.ipv4 && !parsed.vlan && parsed.eth_dst == mac_of(dst) &&
              parsed.ipv4->dst == ip_of(dst) && (parsed.udp || parsed.tcp);
    if (ok) {
      const std::uint32_t src_ip = parsed.ipv4->src.value();
      const int src = static_cast<int>(src_ip - ip_of(0).value());
      const auto it = verdict_.find(key_of(src, dst, parsed.udp ? kUdp : kTcp, parsed.src_port(),
                                           parsed.dst_port()));
      ok = it != verdict_.end() && !it->second &&
           (packet.size() == kSizes[0] || packet.size() == kSizes[1] || packet.size() == kSizes[2]);
    }
    if (ok)
      ++received_ok_[static_cast<std::size_t>(dst)];
    else
      ++received_bad_;
  }

  std::uint64_t stamp_replay(std::size_t count) override {
    std::uint64_t sum = 0;
    for (std::size_t n = 0; n < count; ++n) {
      const auto port = static_cast<std::uint16_t>(20000 + n % 4096);
      sum += (n % 2 ? udp_[n % udp_.size()].stamp(port, 1000) : tcp_[n % tcp_.size()].stamp(port, 1000)).size();
    }
    return sum;
  }

  SimNanos warmup_ns() const override { return 2'000'000; }
  SimNanos sim_ns_per_second() const override { return kSimPerSecond; }

  std::uint64_t attempted() const override {
    std::uint64_t total = 0;
    for (std::uint64_t v : expect_deliver_) total += v;
    return total;
  }
  std::uint64_t failed() const override {
    std::uint64_t failed = received_bad_;
    for (int d = 0; d < kAccessPorts; ++d) {
      const auto i = static_cast<std::size_t>(d);
      failed += expect_deliver_[i] > received_ok_[i] ? expect_deliver_[i] - received_ok_[i] : 0;
    }
    return failed;
  }

  void check_workload(Checks& checks) override {
    checks.expect(received_bad_ == 0, "no-denied-or-misdelivered-frames",
                  str(received_bad_) + " frames the reference scan denies, or at the wrong host");
    std::uint64_t denies = 0;
    for (int d = 0; d < kAccessPorts; ++d) {
      const auto i = static_cast<std::size_t>(d);
      denies += expect_deny_[i];
      checks.expect(received_ok_[i] == expect_deliver_[i], "per-destination-delivered-matches-reference",
                    util::format("h%zu got %llu, reference scan allows %llu", i + 1,
                                 static_cast<unsigned long long>(received_ok_[i]),
                                 static_cast<unsigned long long>(expect_deliver_[i])));
    }
    checks.expect(denies > 0 && recorder_.outstanding() == denies, "outstanding-equals-expected-denies",
                  str(recorder_.outstanding()) + " outstanding, reference scan denies " + str(denies));
    checks.expect(churn_tick_ >= 1 && ss2().counters().errors == 0, "controller-churn-applied",
                  util::format("%llu churn ticks, %llu flow-mod errors",
                               static_cast<unsigned long long>(churn_tick_),
                               static_cast<unsigned long long>(ss2().counters().errors)));
  }


 private:
  static constexpr double kMeanGapNs = 9'000;  // ~111 kpps per host
  static constexpr SimNanos kSimPerSecond = 65'000'000;

  std::vector<std::uint16_t> services_;
  std::vector<std::vector<AclTuple>> tuples_;
  std::vector<double> zipf_cdf_;
  std::vector<AclRule> rules_;
  std::vector<net::UdpTemplate> udp_;
  std::vector<net::TcpTemplate> tcp_;
  std::vector<util::Rng> rngs_;
  std::unordered_map<std::uint64_t, bool> verdict_;
  std::vector<std::uint64_t> expect_deliver_;
  std::vector<std::uint64_t> expect_deny_;
  std::vector<std::uint64_t> received_ok_;
  std::uint64_t received_bad_ = 0;
  std::uint64_t churn_tick_ = 0;
  bool running_ = false;
};

// ===========================================================================
// nat_conn_churn
// ===========================================================================

class NatConnChurn final : public Scenario {
 public:
  using Scenario::Scenario;

 protected:
  static constexpr int kClients = kAccessPorts - 1;
  static constexpr int kServer = kAccessPorts - 1;  // host index of the server
  static constexpr std::size_t kCores = 4;
  static constexpr std::uint16_t kServerPorts[4] = {80, 443, 8080, 8443};
  static constexpr std::size_t kMinPayload = 64;
  static constexpr std::size_t kMaxPayload = 1460;
  static constexpr SimNanos kTransient = 200'000'000;

  std::string name() const override { return "nat_conn_churn"; }

  sim::LinkSpec access_link(int index) const override {
    // The server sits behind a 10G port: it terminates every connection.
    return index == kServer ? sim::LinkSpec::gbps(10) : sim::LinkSpec::gbps(1);
  }

  void shape_fabric(core::FabricSpec& spec) const override {
    spec.ingress.cores.cores = kCores;
    spec.ingress.cores.rss = sim::RssPolicy::kSymmetric;
  }

  static openflow::CtConfig ct_config() {
    openflow::CtConfig config;
    config.tcp_established_timeout = 1'000'000'000;
    config.tcp_transient_timeout = kTransient;
    config.sweep_interval = 5'000'000;
    return config;
  }

  void install_apps() override {
    controller::SourceNatConfig config;
    config.external_ip = external_ip();
    config.port_min = 1024;
    config.port_max = 65535;
    config.outside_port = kServer + 1;
    config.outside_mac = mac_of(kServer);
    for (int c = 0; c < kClients; ++c)
      config.inside.push_back({util::format("h%d", c + 1), mac_of(c), ip_of(c),
                               static_cast<std::uint32_t>(c + 1)});
    controller_.add_app<controller::SourceNatApp>(config);
  }

  static net::Ipv4Addr external_ip() { return net::Ipv4Addr(203, 0, 113, 1); }
  static net::MacAddr gateway_mac() { return net::MacAddr::from_u64(0x02aa00000001ULL); }

  void after_migration() override {
    ss2().enable_conntrack(ct_config());
    softswitch::FailoverSpec failover;
    failover.checkpoint_interval_ns = 20'000'000;
    failover.incremental_checkpoints = true;
    ss2().set_failover(failover);
    sim::IngressSpec ingress;
    ingress.cores.cores = kCores;
    ingress.cores.rss = sim::RssPolicy::kSymmetric;
    standby_ = &network_.add_node<softswitch::SoftSwitch>("SS_2-standby", 0x53, kAccessPorts, 2, true,
                                                           true, 32, ingress);
    standby_->enable_conntrack(ct_config());
    repl_ = std::make_unique<softswitch::ReplicationChannel>(engine());
    ss2().enable_ha_active(*repl_);
    standby_->enable_ha_standby(*repl_);
  }

  struct Conn {
    int client = 0;
    std::uint16_t sport = 0;
    std::uint16_t server_port = 0;
    std::uint8_t rounds = 0;
    std::uint8_t round = 0;
    std::uint16_t request[3] = {0, 0, 0};  // request payload bytes per round
    enum class State : std::uint8_t { kSynSent, kWaitResponse, kFinWait, kDone, kFailed } state =
        State::kSynSent;
    SimNanos opened_at = 0;
  };

  /// The server's scripted answer size for a request of `request` bytes.
  static std::size_t response_size(std::size_t request) {
    return kMinPayload + (request - kMinPayload + 701) % (kMaxPayload - kMinPayload + 1);
  }

  /// PSH|ACK templates of one endpoint, one per payload size, built on
  /// first use.
  class SizedTemplates {
   public:
    SizedTemplates(const net::FlowKey& key, char fill)
        : key_(key), fill_(fill), by_size_(kMaxPayload - kMinPayload + 1) {}
    const net::TcpTemplate& get(std::size_t payload) {
      auto& slot = by_size_[payload - kMinPayload];
      if (!slot) slot.emplace(key_, net::kTcpPsh | net::kTcpAck, std::string(payload, fill_));
      return *slot;
    }

   private:
    net::FlowKey key_;
    char fill_;
    std::vector<std::optional<net::TcpTemplate>> by_size_;
  };

  void start_traffic() override {
    util::Rng seeder(options_.seed);
    for (int c = 0; c < kClients; ++c) {
      net::FlowKey key;
      key.eth_src = mac_of(c);
      key.eth_dst = gateway_mac();
      key.ip_src = ip_of(c);
      key.ip_dst = ip_of(kServer);
      clients_.push_back(Client{net::TcpTemplate(key, net::kTcpSyn), net::TcpTemplate(key, net::kTcpAck),
                                net::TcpTemplate(key, net::kTcpFin | net::kTcpAck), SizedTemplates(key, 'q'),
                                util::Rng(seeder.next()), {}});
      hosts_[static_cast<std::size_t>(c)]->set_on_receive(
          [this, c](const net::Packet& packet, const net::ParsedPacket& parsed) {
            on_client_receive(c, packet, parsed);
          });
    }
    net::FlowKey skey;
    skey.eth_src = mac_of(kServer);
    skey.eth_dst = gateway_mac();
    skey.ip_src = ip_of(kServer);
    skey.ip_dst = external_ip();
    server_synack_.emplace(skey, net::kTcpSyn | net::kTcpAck);
    server_fin_.emplace(skey, net::kTcpFin | net::kTcpAck);
    server_data_.emplace(skey, 'r');
    hosts_[kServer]->set_on_receive([this](const net::Packet& packet, const net::ParsedPacket& parsed) {
      on_server_receive(packet, parsed);
    });
    running_ = true;
    for (int c = 0; c < kClients; ++c)
      engine().schedule_at(network_.now() + next_gap(c), [this, c] { open(c); });
  }

  void stop_traffic() override { running_ = false; }

  SimNanos next_gap(int c) {
    return std::max<SimNanos>(1, static_cast<SimNanos>(std::llround(
                                     clients_[static_cast<std::size_t>(c)].rng.exponential(kMeanOpenGapNs))));
  }

  void send_client(int c, const net::TcpTemplate& frame, std::uint16_t sport, std::uint16_t dport) {
    hosts_[static_cast<std::size_t>(c)]->send(stamp(frame, sport, dport));
  }

  void open(int c) {
    if (!running_) return;
    Client& client = clients_[static_cast<std::size_t>(c)];
    Conn conn;
    conn.client = c;
    conn.sport = static_cast<std::uint16_t>(1024 + client.conns.size());
    conn.server_port = kServerPorts[client.rng.below(4)];
    conn.rounds = static_cast<std::uint8_t>(1 + client.rng.below(3));
    for (auto& r : conn.request)
      r = static_cast<std::uint16_t>(kMinPayload + client.rng.below(kMaxPayload - kMinPayload + 1));
    conn.opened_at = network_.now();
    if (client.conns.size() < 64000) {
      client.conns.push_back(conn);
      ++opened_;
      send_client(c, client.syn, conn.sport, conn.server_port);
    } else {
      ++port_exhausted_;
    }
    engine().schedule_at(network_.now() + next_gap(c), [this, c] { open(c); });
  }

  void fail(Conn& conn) {
    if (conn.state != Conn::State::kFailed) ++conn_errors_;
    conn.state = Conn::State::kFailed;
  }

  void on_client_receive(int c, const net::Packet& packet, const net::ParsedPacket& parsed) {
    note_delivery(packet);
    Client& client = clients_[static_cast<std::size_t>(c)];
    if (!parsed.tcp || !parsed.ipv4 || parsed.ipv4->dst != ip_of(c) || parsed.ipv4->src != ip_of(kServer) ||
        parsed.eth_dst != mac_of(c) || parsed.tcp->dst_port < 1024 ||
        parsed.tcp->dst_port - 1024u >= client.conns.size()) {
      ++stray_;
      return;
    }
    Conn& conn = client.conns[parsed.tcp->dst_port - 1024u];
    if (parsed.tcp->src_port != conn.server_port) return fail(conn);
    const std::uint8_t flags = parsed.tcp->flags;
    switch (conn.state) {
      case Conn::State::kSynSent:
        if (flags != (net::kTcpSyn | net::kTcpAck)) return fail(conn);
        send_client(c, client.ack, conn.sport, conn.server_port);
        send_client(c, client.data.get(conn.request[0]), conn.sport, conn.server_port);
        conn.state = Conn::State::kWaitResponse;
        return;
      case Conn::State::kWaitResponse:
        if (flags != (net::kTcpPsh | net::kTcpAck) ||
            parsed.l4_payload_size != response_size(conn.request[conn.round]))
          return fail(conn);
        if (++conn.round < conn.rounds) {
          send_client(c, client.data.get(conn.request[conn.round]), conn.sport, conn.server_port);
        } else {
          send_client(c, client.fin, conn.sport, conn.server_port);
          conn.state = Conn::State::kFinWait;
        }
        return;
      case Conn::State::kFinWait:
        if (flags != (net::kTcpFin | net::kTcpAck)) return fail(conn);
        send_client(c, client.ack, conn.sport, conn.server_port);
        conn.state = Conn::State::kDone;
        ++completed_;
        return;
      default:
        return fail(conn);
    }
  }

  void on_server_receive(const net::Packet& packet, const net::ParsedPacket& parsed) {
    note_delivery(packet);
    if (!parsed.tcp || !parsed.ipv4 || parsed.ipv4->dst != ip_of(kServer)) {
      ++server_errors_;
      return;
    }
    if (parsed.ipv4->src != external_ip()) ++server_saw_private_;
    const std::uint32_t key = (static_cast<std::uint32_t>(parsed.tcp->src_port) << 16) | parsed.tcp->dst_port;
    const std::uint8_t flags = parsed.tcp->flags;
    const std::uint16_t ext_port = parsed.tcp->src_port;
    const std::uint16_t svc = parsed.tcp->dst_port;
    if (flags == net::kTcpSyn) {
      if (!server_live_.insert(key).second) ++server_port_reuse_;
      reply(*server_synack_, svc, ext_port);
    } else if (flags == (net::kTcpPsh | net::kTcpAck)) {
      const std::size_t size = parsed.l4_payload_size;
      if (size < kMinPayload || size > kMaxPayload || !server_live_.contains(key)) {
        ++server_errors_;
        return;
      }
      reply(server_data_->get(response_size(size)), svc, ext_port);
    } else if (flags == (net::kTcpFin | net::kTcpAck)) {
      if (!server_closing_.insert(key).second) ++server_errors_;
      reply(*server_fin_, svc, ext_port);
    } else if (flags == net::kTcpAck) {
      // Handshake completion, or the last ACK of the close.
      if (server_closing_.erase(key) != 0) server_live_.erase(key);
    } else {
      ++server_errors_;
    }
  }

  void reply(const net::TcpTemplate& frame, std::uint16_t sport, std::uint16_t dport) {
    hosts_[kServer]->send(stamp(frame, sport, dport));
  }

  /// The generator's own work: stamping one segment (sampled span).
  net::Packet stamp(const net::TcpTemplate& frame, std::uint16_t sport, std::uint16_t dport) {
    const std::uint64_t seq = gen_seq_++;
    Scope span(tracer_, sample_span(seq) ? "bench.gen" : "", seq);
    return frame.stamp(sport, dport);
  }

  void sample() override { ct_peak_ = std::max(ct_peak_, ss2().counters().ct_connections); }

  std::uint64_t stamp_replay(std::size_t count) override {
    std::uint64_t sum = 0;
    for (std::size_t n = 0; n < count; ++n) {
      Client& client = clients_[n % clients_.size()];
      sum += client.data.get(kMinPayload + n % (kMaxPayload - kMinPayload + 1))
                 .stamp(static_cast<std::uint16_t>(1024 + n % 8192), 80)
                 .size();
    }
    return sum;
  }

  SimNanos warmup_ns() const override { return kTransient + 10'000'000; }
  SimNanos sim_ns_per_second() const override { return 66'000'000; }

  std::uint64_t attempted() const override { return opened_; }
  std::uint64_t failed() const override {
    return opened_ - std::min(opened_, completed_) + stray_ + server_errors_ + server_saw_private_ +
           server_port_reuse_;
  }

  void check_workload(Checks& checks) override {
    checks.expect(completed_ == opened_ && conn_errors_ == 0, "every-connection-completes",
                  str(completed_) + " of " + str(opened_) + " completed, " + str(conn_errors_) +
                      " broke their script");
    checks.expect(port_exhausted_ == 0, "client-ports-not-reused", str(port_exhausted_) + " opens skipped");
    checks.expect(stray_ == 0, "clients-see-replies-rewritten-to-own-tuple",
                  str(stray_) + " segments not addressed to a client connection");
    checks.expect(server_saw_private_ == 0, "server-sees-only-external-ip",
                  str(server_saw_private_) + " segments with a private source");
    checks.expect(server_port_reuse_ == 0, "external-ports-unique-among-live",
                  str(server_port_reuse_) + " SYNs on a live external port");
    checks.expect(server_errors_ == 0, "server-script", str(server_errors_) + " unexpected segments");
    checks.expect(ss2().counters().ct_nat_failures == 0, "ct-nat-failures-zero",
                  str(ss2().counters().ct_nat_failures));
    checks.expect(ss2().counters().ct_invalid == 0, "ct-invalid-zero", str(ss2().counters().ct_invalid));
    checks.expect(recorder_.outstanding() == 0, "outstanding-equals-expected-denies",
                  str(recorder_.outstanding()) + " segments outstanding, 0 expected");
    checks.expect(ct_peak_ >= 10'000, "conntrack-population-reached", str(ct_peak_) + " peak connections");
    checks.expect(ss2().counters().ct_expired > 0, "expiry-ran-in-window");
    // The standby mirrors the active: same live tuple set, shard by shard.
    std::uint64_t mismatched = 0, live = 0;
    for (std::size_t shard = 0; shard < kCores; ++shard) {
      std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint16_t, std::uint16_t>> active, standby;
      for (const auto& e : ss2().pipeline().conntrack(shard).snapshot())
        active.insert({e.orig.src_ip, e.orig.dst_ip, e.orig.src_port, e.orig.dst_port});
      for (const auto& e : standby_->pipeline().conntrack(shard).snapshot())
        standby.insert({e.orig.src_ip, e.orig.dst_ip, e.orig.src_port, e.orig.dst_port});
      live += active.size();
      std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint16_t, std::uint16_t>> diff;
      std::set_symmetric_difference(active.begin(), active.end(), standby.begin(), standby.end(),
                                    std::back_inserter(diff));
      mismatched += diff.size();
    }
    checks.expect(mismatched == 0 && live > 0, "standby-tuple-set-equals-active",
                  str(mismatched) + " tuples differ among " + str(live) + " live");
  }

  void workload_counts(Sheet& sheet) const override {
    const double conns = static_cast<double>(std::max<std::uint64_t>(1, after_.opened - before_.opened));
    sheet["openflow.ct_connections_peak"] = {static_cast<double>(ct_peak_), "count"};
    sheet["softswitch.repl_deltas_per_conn"] = {
        static_cast<double>(after_.repl_deltas - before_.repl_deltas) / conns, "deltas"};
    sheet["softswitch.repl_dropped"] = {
        static_cast<double>(repl_->stats().batches_dropped_down + repl_->stats().batches_dropped_loss), "count"};
  }

  void snapshot_extra(Snapshot& snap) const override {
    snap.opened = opened_;
    snap.repl_deltas = repl_ ? repl_->stats().deltas_published : 0;
  }

 private:
  static constexpr double kMeanOpenGapNs = 70'000;  // ~14.3k conn/s per client

  struct Client {
    net::TcpTemplate syn;
    net::TcpTemplate ack;
    net::TcpTemplate fin;
    SizedTemplates data;
    util::Rng rng;
    std::vector<Conn> conns;
  };
  std::vector<Client> clients_;
  std::optional<net::TcpTemplate> server_synack_;
  std::optional<net::TcpTemplate> server_fin_;
  std::optional<SizedTemplates> server_data_;
  std::unordered_set<std::uint32_t> server_live_;
  std::unordered_set<std::uint32_t> server_closing_;
  softswitch::SoftSwitch* standby_ = nullptr;
  std::unique_ptr<softswitch::ReplicationChannel> repl_;
  std::uint64_t opened_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t conn_errors_ = 0;
  std::uint64_t port_exhausted_ = 0;
  std::uint64_t stray_ = 0;
  std::uint64_t server_errors_ = 0;
  std::uint64_t server_saw_private_ = 0;
  std::uint64_t server_port_reuse_ = 0;
  std::size_t ct_peak_ = 0;
  bool running_ = false;
};

}  // namespace

bool known_workload(const std::string& name) {
  return name == "harmless_fastpath" || name == "acl_churn" || name == "nat_conn_churn";
}

std::unique_ptr<Scenario> make_scenario(const Options& options, Tracer& tracer) {
  if (options.workload == "harmless_fastpath") return std::make_unique<Fastpath>(options, tracer);
  if (options.workload == "acl_churn") return std::make_unique<AclChurn>(options, tracer);
  if (options.workload == "nat_conn_churn") return std::make_unique<NatConnChurn>(options, tracer);
  return nullptr;
}

}  // namespace perfbench
