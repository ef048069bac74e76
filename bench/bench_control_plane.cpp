// E8 — control-plane reactivity ("a powerful, fully reconfigurable,
// OpenFlow-enabled network device").
//
// The demo's reconfigurability story depends on three control-plane
// latencies, measured here on the full HARMLESS fabric:
//   (a) reactive path RTT — first packet of an unknown flow punts to
//       the controller and returns via packet-out, vs. the pure
//       data-plane latency once a rule exists;
//   (b) rule-to-effect latency — how long after a flow_add until
//       traffic actually flows (probes at 1 us resolution);
//   (c) install throughput — back-to-back flow_mods bounded by a
//       barrier round-trip.
// The control channel models a 50 us one-way management-network hop;
// all results scale linearly with that latency (the `one_way_latency`
// argument of openflow::ControlChannel).
#include <iostream>

#include "bench/common.hpp"
#include "controller/controller.hpp"
#include "net/parse.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace harmless;
using namespace harmless::bench;
using namespace harmless::openflow;

namespace {

/// Minimal reactive app: punts come back out the right port (the app
/// knows the experiment's topology: h_i lives on port i+1).
class ReflectorApp : public controller::App {
 public:
  const char* name() const override { return "reflector"; }
  void on_connect(controller::Session& session) override {
    session.flow_add(0, 0, Match{}, apply({to_controller()}));
  }
  void on_packet_in(controller::Session& session, const PacketInMsg& event) override {
    const net::ParsedPacket parsed = net::parse_packet(event.packet);
    const std::uint32_t out = parsed.eth_dst == host_mac(1) ? 2 : 1;
    session.packet_out(event.packet.clone(), {output(out)}, event.in_port);
  }
};

double reactive_rtt_us() {
  RigOptions options;
  options.host_count = 2;
  options.access_link = sim::LinkSpec::gbps(1);
  HarmlessRig rig(options);
  rig.fabric->ss2().pipeline().table(0).remove(Match{}, /*strict=*/false);

  controller::Controller ctrl;
  ctrl.add_app<ReflectorApp>();
  ctrl.connect(rig.fabric->control_channel());
  rig.network.run();

  sim::LatencyRecorder recorder;
  rig.hosts[0]->set_recorder(&recorder);
  rig.hosts[1]->set_recorder(&recorder);
  rig.stream(0, 1, 200, 128, 1'000'000);  // each packet punts: no rule ever installed
  rig.network.run();
  return recorder.latency().p50() / 1000.0;
}

double dataplane_latency_us() {
  RigOptions options;
  options.host_count = 2;
  options.access_link = sim::LinkSpec::gbps(1);
  HarmlessRig rig(options);  // static L2 rules preinstalled
  sim::LatencyRecorder recorder;
  rig.hosts[0]->set_recorder(&recorder);
  rig.hosts[1]->set_recorder(&recorder);
  rig.stream(0, 1, 200, 128, 1'000'000);
  rig.network.run();
  return recorder.latency().p50() / 1000.0;
}

double rule_to_effect_us() {
  RigOptions options;
  options.host_count = 2;
  options.access_link = sim::LinkSpec::gbps(1);
  HarmlessRig rig(options);
  rig.fabric->ss2().pipeline().table(0).remove(Match{}, /*strict=*/false);

  controller::Controller ctrl;
  controller::Session& session = ctrl.connect(rig.fabric->control_channel());
  rig.network.run();

  // Probe every 1 us; traffic is blackholed until the rule lands.
  const sim::SimNanos install_at = rig.network.now() + 10'000;
  rig.stream(0, 1, 2'000, 128, 1'000);
  sim::SimNanos first_delivery = -1;
  rig.hosts[1]->set_on_receive([&](const net::Packet&, const net::ParsedPacket& parsed) {
    if (parsed.udp && first_delivery < 0) first_delivery = rig.network.now();
  });
  rig.network.engine().schedule_at(install_at, [&session] {
    session.flow_add(0, 10, Match().eth_dst(host_mac(1)), apply({output(2)}));
  });
  rig.network.run();
  return first_delivery < 0 ? -1.0
                            : static_cast<double>(first_delivery - install_at) / 1000.0;
}

double installs_per_second(int count) {
  RigOptions options;
  options.host_count = 2;
  HarmlessRig rig(options);
  controller::Controller ctrl;
  controller::Session& session = ctrl.connect(rig.fabric->control_channel());
  rig.network.run();

  const sim::SimNanos start = rig.network.now();
  for (int i = 0; i < count; ++i)
    session.flow_add(0, 10,
                     Match().eth_dst(net::MacAddr::from_u64(0x0badULL + static_cast<std::uint64_t>(i))),
                     apply({output(1)}));
  session.barrier();
  rig.network.run();
  const double elapsed_ns = static_cast<double>(rig.network.now() - start);
  return static_cast<double>(count) * 1e9 / elapsed_ns;
}

}  // namespace

int main() {
  std::cout << "E8 - control-plane reactivity on the HARMLESS fabric\n"
            << "(control channel: 50 us one-way; data plane: 1G access, 10G trunk)\n\n";

  const double reactive = reactive_rtt_us();
  const double dataplane = dataplane_latency_us();
  const double rule_effect = rule_to_effect_us();
  const double rate_1k = installs_per_second(1'000);

  util::Table table({"metric", "value", "note"});
  table.add_row({"data-plane p50 (installed rule)", util::format("%.1f us", dataplane),
                 "E2's steady-state path"});
  table.add_row({"reactive p50 (punt + packet-out)", util::format("%.1f us", reactive),
                 util::format("%.0fx the data plane", reactive / dataplane)});
  table.add_row({"flow_add -> first delivery", util::format("%.1f us", rule_effect),
                 "one-way channel + probe quantization"});
  table.add_row({"flow_mod install rate", util::si_format(rate_1k, "mods/s"),
                 "1000 mods; channel models latency, not bandwidth"});
  std::cout << table.to_string() << '\n';

  std::cout << "Shape check: reactive forwarding costs ~2 channel traversals (~100 us\n"
               "+ datapath work) per packet - two orders above the data plane, which\n"
               "is why every HARMLESS app installs proactive rules and uses punts only\n"
               "for decisions; rule installs land in ~one channel delay and stream at\n"
               "channel rate, so 'fully reconfigurable' is millisecond-scale, not\n"
               "flag-day-scale.\n";
  return 0;
}
