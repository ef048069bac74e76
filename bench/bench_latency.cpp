// E2 — latency ("...or latency penalty").
//
// One paced packet at a time (no queueing): one-way delivery latency
// through each data plane, per frame size, decomposed into wire time
// (serialization + propagation) and processing time (ASIC / CPU work
// the packet was charged). Reports p50/p95/p99 and the absolute delta
// HARMLESS adds over the legacy baseline.
#include <iostream>

#include "bench/common.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace harmless;
using namespace harmless::bench;

namespace {

constexpr std::size_t kPackets = 2'000;
constexpr sim::SimNanos kPacing = 100'000;  // 100 us: strictly one in flight

struct LatencyResult {
  double p50 = 0, p95 = 0, p99 = 0, processing_mean = 0, hops = 0;
};

template <typename Rig>
LatencyResult run_paced(const RigOptions& options, std::size_t frame_size) {
  Rig rig(options);
  sim::LatencyRecorder recorder;
  rig.hosts[0]->set_recorder(&recorder);
  rig.hosts[1]->set_recorder(&recorder);
  rig.stream(0, 1, kPackets, frame_size, kPacing);
  rig.network.run();
  LatencyResult result;
  result.p50 = recorder.latency().p50();
  result.p95 = recorder.latency().p95();
  result.p99 = recorder.latency().p99();
  result.processing_mean = recorder.processing().mean();
  result.hops = recorder.hops().mean();
  return result;
}

}  // namespace

int main() {
  std::cout << "E2 - one-way latency: legacy vs native software switch vs HARMLESS\n"
            << "(paced " << kPackets << " packets, 1G access / 10G trunk, no queueing)\n\n";

  RigOptions options;
  options.access_link = sim::LinkSpec::gbps(1);
  options.fabric.trunk_link = sim::LinkSpec::gbps(10);

  util::Table table({"frame", "setup", "p50 (us)", "p95 (us)", "p99 (us)", "proc (ns)",
                     "hops", "delta vs legacy (us)"});
  for (const std::size_t frame_size : {64u, 512u, 1500u}) {
    const LatencyResult legacy_lat = run_paced<LegacyRig>(options, frame_size);
    const LatencyResult native_lat = run_paced<NativeRig>(options, frame_size);
    const LatencyResult harmless_lat = run_paced<HarmlessRig>(options, frame_size);

    auto row = [&](const char* name, const LatencyResult& r) {
      table.add_row({std::to_string(frame_size) + "B", name,
                     util::format("%.2f", r.p50 / 1000.0), util::format("%.2f", r.p95 / 1000.0),
                     util::format("%.2f", r.p99 / 1000.0), util::format("%.0f", r.processing_mean),
                     util::format("%.0f", r.hops),
                     util::format("%+.2f", (r.p50 - legacy_lat.p50) / 1000.0)});
    };
    row("legacy", legacy_lat);
    row("native SS", native_lat);
    row("HARMLESS", harmless_lat);
  }
  std::cout << table.to_string() << '\n';

  std::cout << "Shape check: HARMLESS adds a fixed, frame-size-independent few-us\n"
               "detour (trunk hop + two SS_1 passes + SS_2) on top of the legacy\n"
               "path - small against end-to-end application latencies, which is the\n"
               "paper's 'no major latency penalty'.\n";
  return 0;
}
