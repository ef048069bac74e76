// perfbench/cpp/main.cpp — one run of one workload.
//
//   harmless_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                      [--fault-link-down] [--source-id <id>] [--trace-dir <dir>]
//
// --trace 0 sets the workload up 3 to 15 times (setup_s is the median),
// runs the measured phase once, checks every output and prints the
// end-to-end metrics. --trace 1 runs the workload twice in this
// process, untraced then traced: the two runs' counts and sim_* values
// must be identical, and the traced one feeds the per-layer sheet.
// The last stdout line is the result object; any failed check exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/// Setup repetitions for setup_s: at least kMinSetups, more while the
/// setups so far took under kSetupBudgetS (cheap setups get more
/// samples behind their median), at most kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;

/// End-to-end metrics (--trace 0), in the order BENCHMARK.json lists them.
const char* const kEndToEnd[] = {"host_mpps",          "setup_s",           "peak_rss_mb",
                                 "completed_ratio",    "sim_capacity_mpps", "sim_latency_p50_us",
                                 "sim_latency_p99_us"};

/// Per-layer metrics (--trace 1), in the order BENCHMARK.json lists them.
const char* const kPerLayer[] = {
    "sim.events_per_pkt",
    "sim.engine_ns_per_event",
    "sim.link_ns_per_frame",
    "sim.recorder_ns_per_pkt",
    "sim.residence_ns_p50.legacy",
    "sim.residence_ns_p99.legacy",
    "sim.residence_ns_p50.ss1_ss2",
    "sim.residence_ns_p99.ss1_ss2",
    "sim.wire_ns_p50",
    "sim.rxq_peak_depth.ss1",
    "sim.rxq_peak_depth.ss2",
    "sim.rxq_drops.ss1",
    "sim.rxq_drops.ss2",
    "net.parse_ns_per_pkt",
    "net.frame_copies_per_pkt",
    "legacy.forward_ns_per_pkt",
    "harmless.migrate_ms",
    "harmless.fabric_build_ms",
    "mgmt.push_ms",
    "openflow.cache_hit_ratio",
    "openflow.microflow_hit_ratio",
    "openflow.subtable_probes_per_lookup",
    "openflow.cache_insertions_per_kpkt",
    "openflow.cache_evictions_per_kpkt",
    "openflow.cache_invalidations_per_kpkt",
    "openflow.cache_lookup_ns",
    "openflow.slowpath_ns_per_miss",
    "openflow.pipeline_ns_per_pkt",
    "openflow.ctl_msgs",
    "openflow.ctl_dropped",
    "openflow.ct_classify_ns",
    "openflow.ct_created",
    "openflow.ct_expired",
    "openflow.ct_evicted",
    "openflow.ct_invalid",
    "openflow.ct_nat_failures",
    "openflow.ct_connections_peak",
    "softswitch.busy_ns_per_pkt.ss1",
    "softswitch.busy_ns_per_pkt.ss2",
    "softswitch.pkts_per_burst.ss1",
    "softswitch.pkts_per_burst.ss2",
    "softswitch.replay_groups_per_burst",
    "softswitch.core_busy_max_over_mean",
    "softswitch.repl_deltas_per_conn",
    "softswitch.repl_dropped",
    "softswitch.checkpoint_bytes_per_sim_s",
    "softswitch.repl_apply_ns",
    "controller.flow_mods",
    "controller.packet_ins",
    "bench.gen_ns_per_pkt",
    "bench.unattributed_ns_per_pkt",
    "bench.trace_overhead_ratio",
    "bench.latency_samples",
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "harmless_perfbench: %s\nusage: harmless_perfbench --workload "
               "{harmless_fastpath|acl_churn|nat_conn_churn} --seed N --seconds S --trace 0|1 "
               "[--fault-link-down] [--source-id ID] [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") options.workload = value();
    else if (arg == "--seed") options.seed = std::stoull(value());
    else if (arg == "--seconds") options.seconds = std::stod(value());
    else if (arg == "--trace") options.trace = value() != "0";
    else if (arg == "--fault-link-down") options.fault_link_down = true;
    else if (arg == "--source-id") options.source_id = value();
    else if (arg == "--trace-dir") options.trace_dir = value();
    else usage(("unknown argument " + arg).c_str());
  }
  if (!known_workload(options.workload)) usage("unknown workload");
  if (!(options.seconds > 0 && options.seconds <= 600)) usage("--seconds out of range");
  return options;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// FNV-1a over the deterministic values, printed with every digit.
std::string fingerprint(const Sheet& counts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [name, metric] : counts) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s=%.17g;", name.c_str(), metric.value);
    for (const char* p = buf; *p; ++p) h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ULL;
  }
  char out[24];
  std::snprintf(out, sizeof out, "%016" PRIx64, h);
  return out;
}

/// The count and sim_* values both runs must agree on (the traced run
/// adds residence numbers the untraced one has no taps for).
Sheet deterministic_part(const Sheet& sheet) {
  Sheet out;
  for (const auto& [name, metric] : sheet)
    if (name.rfind("sim.residence", 0) != 0 && name != "sim.wire_ns_p50") out[name] = metric;
  return out;
}

struct RunOutcome {
  std::unique_ptr<Scenario> scenario;
  Sheet counts;
};

/// Set the workload up (repeatedly when `setup_s` collects timings),
/// then run the measured phase, drain, check and count.
RunOutcome run_once(const Options& options, Tracer& tracer, Checks& checks,
                    std::vector<double>* setup_s) {
  RunOutcome out;
  double spent = 0;
  for (int rep = 0;; ++rep) {
    out.scenario.reset();  // the previous estate goes away before the next one
    out.scenario = make_scenario(options, tracer);
    const std::int64_t t0 = host_now_ns();
    out.scenario->setup();
    if (!setup_s) break;
    setup_s->push_back(static_cast<double>(host_now_ns() - t0) / 1e9);
    spent += setup_s->back();
    if (rep + 1 >= kMaxSetups || (rep + 1 >= kMinSetups && spent >= kSetupBudgetS)) break;
  }
  out.scenario->measure();
  out.scenario->drain();
  out.scenario->check(checks);
  out.scenario->count_metrics(out.counts);
  return out;
}

void print_metric(std::string& json, const std::string& name, const Metric& metric) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json.size() > 1 ? ", " : "", name.c_str(), metric.value, metric.unit.c_str());
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  Checks checks(options.workload);
  Sheet out;
  Sheet counts;
  std::uint64_t attempted = 0, failed = 0;
  try {
    if (!options.trace) {
      Tracer tracer(false);
      std::vector<double> setup_s;
      RunOutcome run = run_once(options, tracer, checks, &setup_s);
      std::sort(setup_s.begin(), setup_s.end());
      counts = deterministic_part(run.counts);
      attempted = run.scenario->attempted();
      failed = run.scenario->failed();
      out["host_mpps"] = {run.scenario->host_mpps(), "Mpps"};
      out["setup_s"] = {setup_s[setup_s.size() / 2], "s"};
      out["peak_rss_mb"] = {peak_rss_mb(), "MB"};
      out["completed_ratio"] = {
          1.0 - static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted)),
          "ratio"};
      for (const char* name : {"sim_capacity_mpps", "sim_latency_p50_us", "sim_latency_p99_us"})
        out[name] = run.counts.at(name);
    } else {
      Tracer off(false);
      Checks untraced_checks(options.workload + " (untraced pass)");
      RunOutcome plain = run_once(options, off, untraced_checks, nullptr);
      const double plain_mpps = plain.scenario->host_mpps();
      const Sheet plain_counts = deterministic_part(plain.counts);
      plain.scenario.reset();

      Tracer tracer(true);
      RunOutcome traced = run_once(options, tracer, checks, nullptr);
      for (const auto& failure : untraced_checks.failures()) checks.expect(false, failure);
      counts = deterministic_part(traced.counts);
      std::string differing;
      for (const auto& [name, metric] : counts) {
        const auto it = plain_counts.find(name);
        if (it == plain_counts.end() || it->second.value != metric.value) differing += name + " ";
      }
      checks.expect(differing.empty() && counts.size() == plain_counts.size(),
                    "traced-run-counts-equal-untraced", differing);
      attempted = traced.scenario->attempted();
      failed = traced.scenario->failed();
      Scenario& scenario = *traced.scenario;
      const double measured_ns_per_pkt = 1e3 / plain_mpps;  // untraced host ns per packet
      Sheet sheet = traced.counts;
      scenario.replay_layers(sheet, measured_ns_per_pkt);
      sheet["harmless.migrate_ms"] = {scenario.migrate_ms, "ms"};
      sheet["harmless.fabric_build_ms"] = {scenario.fabric_build_ms, "ms"};
      sheet["mgmt.push_ms"] = {scenario.mgmt_push_ms, "ms"};
      sheet["bench.trace_overhead_ratio"] = {scenario.host_mpps() / plain_mpps, "ratio"};
      for (const char* name : kPerLayer) {
        const auto it = sheet.find(name);
        if (it != sheet.end()) out[name] = it->second;
        else out[name] = {0, "count"};
      }
      if (!options.trace_dir.empty()) {
        const std::string path = options.trace_dir + "/" + options.workload + "-seed" +
                                 std::to_string(options.seed) + ".spans.jsonl";
        if (!tracer.write(path)) std::fprintf(stderr, "could not write %s\n", path.c_str());
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "harmless_perfbench [%s]: %s\n", options.workload.c_str(), error.what());
    return 3;
  }

  // The run record: where and what this result came from.
  std::printf(
      "run_record: {\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %.17g, \"trace\": %d, "
      "\"source\": \"%s\", \"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"fingerprint\": \"%s\", \"latency_samples\": %.0f, "
      "\"window_packets\": %.0f, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", "
      "\"failed_ratio\": %.17g, \"checks_failed\": %zu}\n",
      options.workload.c_str(), options.seed, options.seconds, options.trace ? 1 : 0,
      json_escape(options.source_id).c_str(), json_escape(cpu_model()).c_str(),
      std::thread::hardware_concurrency(), json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      fingerprint(counts).c_str(), counts.count("bench.latency_samples") ? counts.at("bench.latency_samples").value : 0,
      counts.count("bench.window_packets") ? counts.at("bench.window_packets").value : 0, attempted, failed,
      static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted)),
      checks.failures().size());

  std::string json = "{";
  if (!options.trace)
    for (const char* name : kEndToEnd) print_metric(json, name, out.at(name));
  else
    for (const char* name : kPerLayer) print_metric(json, name, out.at(name));
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              checks.passed() ? "true" : "false", std::max<std::uint64_t>(1, attempted), failed,
              json.c_str());
  std::fflush(stdout);
  return checks.passed() ? 0 : 1;
}
