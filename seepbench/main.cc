// seepbench: runs one workload of the SEEP benchmark and prints its metrics.
//
//   seepbench --workload <name> --seed <n> --seconds <s> --mode timed|traced
//             --workdir <dir>
//
// `timed` repeats the untraced workload for at least --seconds and reports
// the end-to-end metrics; `traced` makes one untraced and one traced run,
// the audit pass and the layer replays, and reports the per-layer metrics.
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}, "reasons", "build"}.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "replay.h"
#include "workloads.h"

namespace seepbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string mode = "timed";
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--mode") {
      args->mode = value;
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && IsKnownWorkload(args->workload) &&
         !args->workdir.empty() && args->seconds > 0 &&
         (args->mode == "timed" || args->mode == "traced");
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

rusage Usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

double PeakRssMib() {
  return double(Usage().ru_maxrss) / 1024;  // ru_maxrss is in KiB on Linux
}

/// The result of one invocation: accumulated checks and failures plus the
/// metrics printed, in print order.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> reasons;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      Fail(name + " is not a finite number");
      value = 0;
    }
    metrics.push_back({name, {value, unit}});
  }
  void Absorb(const RunResult& run, const std::string& label) {
    attempted += run.checks + run.probe->source_tuples;
    failed += run.failed;
    for (const std::string& r : run.reasons) Note(label + ": " + r);
  }
  void Fail(const std::string& why) {
    ++failed;
    Note(why);
  }
  void Note(const std::string& why) {
    if (reasons.size() < 8) reasons.push_back(why);
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void PrintReport(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  1, report.attempted)),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, value] = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), value.first,
                value.second.c_str());
  }
  std::printf("}, \"reasons\": [");
  for (size_t i = 0; i < report.reasons.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                JsonEscape(report.reasons[i]).c_str());
  }
  std::printf("], \"build\": {\"compiler\": \"%s\", \"build_type\": "
              "\"%s\"}}\n",
              SEEPBENCH_COMPILER, SEEPBENCH_BUILD_TYPE);
}

/// Sps set-ups timed after each repetition: setup_s is the median of many
/// short samples spread over the whole invocation.
constexpr int kSetupSamplesPerRep = 20;
/// Repetitions measured at least, whatever --seconds says.
constexpr int kMinReps = 5;

Report Timed(const Args& args) {
  Report report;
  const Reference reference = ComputeReference(args.workload, args.seed);
  RunConfig run;
  run.workload = args.workload;
  run.seed = args.seed;
  run.audit_level = 0;

  std::vector<double> wall, tput, setup;
  double peak_rss_mib = 0;
  std::unique_ptr<RunResult> first;
  const int64_t start = NowNs();
  for (int rep = 0;
       rep < kMinReps || double(NowNs() - start) / 1e9 < args.seconds;
       ++rep) {
    run.workdir = args.workdir + "/rep-" + std::to_string(rep);
    const rusage before = Usage();
    auto r = std::make_unique<RunResult>(RunWorkload(run, reference));
    const rusage after = Usage();
    report.Absorb(*r, "rep " + std::to_string(rep));
    wall.push_back(r->run_wall_s);
    tput.push_back(double(r->probe->source_tuples) / r->run_wall_s);
    // Later repetitions reuse the allocator's free lists, so only the
    // first one shows the memory a single run needs.
    if (rep == 0) peak_rss_mib = PeakRssMib();
    for (int i = 0; i < kSetupSamplesPerRep; ++i) {
      run.workdir = args.workdir + "/setup";
      setup.push_back(MeasureSetup(run));
    }
    // Per-repetition line: lets the spread of run_wall_s be set against
    // the durable log's fsync time, page faults and preemption.
    std::printf("rep %d run_wall_s %.6f store.fsync_ms %.3f store.fsyncs "
                "%.0f minor_faults %ld preempted %ld\n",
                rep, r->run_wall_s, r->values.at("store.fsync_ms"),
                r->values.at("store.fsyncs"),
                after.ru_minflt - before.ru_minflt,
                after.ru_nivcsw - before.ru_nivcsw);
    if (!first) {
      first = std::move(r);
    } else if (IsSimulated(args.workload) && !SameSimOutcome(*r, *first)) {
      report.Fail("rep " + std::to_string(rep) +
                  ": simulated outcome differs from repetition 0");
    }
  }

  report.Add("run_wall_s", Median(wall), "s");
  report.Add("tuples_per_wall_s", Median(tput), "1/s");
  report.Add("setup_s", Median(setup), "s");
  report.Add("peak_rss_mib", peak_rss_mib, "MiB");
  return report;
}

/// Operators whose Process self time is reported, by their names in the
/// library's word-count and Linear Road queries. An operator absent from
/// the workload reports 0.
const char* const kProcessOps[] = {
    "word-splitter",   "word-counter",   "forwarder",      "toll-calculator",
    "toll-assessment", "toll-collector", "balance-account",
};

double PerUnit(double total, double units) {
  return units > 0 ? total / units : 0;
}

/// Mean cost of one steady-clock read, to read per-call layer costs
/// against.
double ClockReadNs() {
  constexpr int kReads = 1'000'000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kReads; ++i) (void)NowNs();
  return double(NowNs() - t0) / kReads;
}

/// Writes the traced run's spans (Chrome trace-event format, loadable in
/// a standard trace viewer) and layer aggregates.
void WriteTrace(const Probe& probe, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::vector<int64_t> child_ns(probe.spans.size(), 0);
  for (const Span& s : probe.spans) {
    if (s.parent >= 0) child_ns[size_t(s.parent)] += s.end_ns - s.start_ns;
  }
  const int64_t origin = probe.spans.empty() ? 0 : probe.spans[0].start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (size_t i = 0; i < probe.spans.size(); ++i) {
    const Span& s = probe.spans[i];
    const std::string op =
        s.op >= 0 && size_t(s.op) < probe.op_names.size()
            ? probe.op_names[size_t(s.op)]
            : "";
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"op\": \"%s\", \"parent\": %d, \"self_us\": %.3f}}\n",
                 i == 0 ? "" : ",", s.name, s.op + 1,
                 double(s.start_ns - origin) / 1e3,
                 double(s.end_ns - s.start_ns) / 1e3, op.c_str(), s.parent,
                 double(s.end_ns - s.start_ns - child_ns[i]) / 1e3);
  }
  std::fprintf(f, "], \"layers\": {");
  std::vector<std::pair<std::string, const Layer*>> layers = {
      {"source", &probe.source},   {"emit", &probe.emit},
      {"sink", &probe.sink},       {"capture", &probe.capture_state},
      {"restore", &probe.restore},
  };
  for (const auto& [op, layer] : probe.process) {
    layers.push_back({"process." + probe.op_names[op], &layer});
  }
  for (const auto& [op, layer] : probe.timer) {
    layers.push_back({"timer." + probe.op_names[op], &layer});
  }
  for (size_t i = 0; i < layers.size(); ++i) {
    const Layer& l = *layers[i].second;
    std::fprintf(f,
                 "%s\n\"%s\": {\"calls\": %llu, \"units\": %llu, "
                 "\"ns\": %lld, \"log2_ns\": [",
                 i == 0 ? "" : ",", layers[i].first.c_str(),
                 static_cast<unsigned long long>(l.calls),
                 static_cast<unsigned long long>(l.units),
                 static_cast<long long>(l.ns));
    for (size_t b = 0; b < l.log2_ns.size(); ++b) {
      std::fprintf(f, "%s%llu", b == 0 ? "" : ", ",
                   static_cast<unsigned long long>(l.log2_ns[b]));
    }
    std::fprintf(f, "]}");
  }
  std::fprintf(f, "\n}}\n");
  std::fclose(f);
}

Report Traced(const Args& args) {
  Report report;
  const Reference reference = ComputeReference(args.workload, args.seed);
  const bool simulated = IsSimulated(args.workload);
  RunConfig run;
  run.workload = args.workload;
  run.seed = args.seed;
  run.audit_level = 0;

  run.workdir = args.workdir + "/untraced";
  const RunResult plain = RunWorkload(run, reference);
  report.Absorb(plain, "untraced");

  run.workdir = args.workdir + "/traced";
  run.traced = true;
  const RunResult traced = RunWorkload(run, reference);
  report.Absorb(traced, "traced");
  run.traced = false;
  if (simulated && !SameSimOutcome(plain, traced)) {
    report.Fail("the traced run's simulated outcome differs from the "
                "untraced run's");
  }

  // Audit pass: untimed, level 2, violations collected as failures.
  if (simulated) {
    run.workdir = args.workdir + "/audit";
    run.audit_level = 2;
    report.Absorb(RunWorkload(run, reference), "audit");
    run.audit_level = 0;
  }

  double tcp_over_sim = 0;
  if (!simulated) {
    run.workdir = args.workdir + "/sim-transport";
    run.force_sim_transport = true;
    const RunResult on_sim = RunWorkload(run, reference);
    report.Absorb(on_sim, "sim transport");
    tcp_over_sim = plain.run_wall_s / on_sim.run_wall_s;
  }

  const Probe& p = *traced.probe;
  const auto& v = traced.values;
  const ReplayResult replay =
      ReplayLayers(p, uint64_t(v.at("sim.events")), args.workdir);
  report.attempted += replay.attempted;
  report.failed += replay.failed;
  for (const std::string& r : replay.reasons) report.Note("replay: " + r);
  WriteTrace(p, args.workdir + "/trace.json");

  int64_t timed_ns = p.source.ns + p.emit.ns + p.sink.ns +
                     p.capture_state.ns + p.restore.ns + p.bookkeeping_ns;
  for (const auto& [op, layer] : p.process) timed_ns += layer.ns;
  for (const auto& [op, layer] : p.timer) timed_ns += layer.ns;
  const double residual_ns = traced.run_wall_s * 1e9 - double(timed_ns);
  const double events = v.at("sim.events");
  const auto op_layer = [&p](const std::map<OperatorId, Layer>& layers,
                             const char* name) -> const Layer* {
    for (const auto& [op, layer] : layers) {
      if (p.op_names[op] == name) return &layer;
    }
    return nullptr;
  };

  report.Add("workloads.source_ns_per_tuple",
             PerUnit(double(p.source.ns), double(p.source.units)), "ns");
  for (const char* name : kProcessOps) {
    const Layer* l = op_layer(p.process, name);
    report.Add(std::string("workloads.process_ns_per_tuple.") + name,
               l ? PerUnit(double(l->ns), double(l->calls)) : 0, "ns");
  }
  const Layer* timer = op_layer(p.timer, "word-counter");
  report.Add("workloads.timer_ms.word-counter",
             timer ? double(timer->ns) / 1e6 : 0, "ms");
  report.Add("workloads.sink_ns_per_tuple",
             PerUnit(double(p.sink.ns), double(p.sink.units)), "ns");
  report.Add("workloads.capture_ns_per_kib",
             PerUnit(double(p.capture_state.ns),
                     double(p.capture_state.units) / 1024),
             "ns");
  report.Add("workloads.restore_ms", double(p.restore.ns) / 1e6, "ms");

  report.Add("runtime.emit_ns_per_tuple",
             PerUnit(double(p.emit.ns), double(p.emit.units)), "ns");
  report.Add("runtime.emits", double(p.emit.units), "count");
  report.Add("runtime.residual_s", residual_ns / 1e9, "s");
  report.Add("runtime.residual_ns_per_event", PerUnit(residual_ns, events),
             "ns");
  report.Add("runtime.checkpoints", v.at("runtime.checkpoints"), "count");
  report.Add("runtime.ckpt_raw_kib", v.at("runtime.ckpt_raw_kib"), "KiB");
  report.Add("runtime.ckpt_wire_kib", v.at("runtime.ckpt_wire_kib"), "KiB");
  report.Add("runtime.wasted_ratio",
             PerUnit(v.at("runtime.replayed") +
                         v.at("runtime.duplicates_dropped"),
                     double(p.emit.units)),
             "ratio");

  report.Add("sim.events", events, "count");
  report.Add("sim.events_per_tuple", PerUnit(events, double(p.source_tuples)),
             "ratio");
  report.Add("sim.dispatch_ns_per_event",
             replay.values.at("sim.dispatch_ns_per_event"), "ns");
  report.Add("sim.latency_p50_ms", v.at("sim.latency_p50_ms"), "ms");
  report.Add("sim.latency_p99_ms", v.at("sim.latency_p99_ms"), "ms");
  report.Add("sim.latency_samples", v.at("sim.latency_samples"), "count");
  report.Add("sim.ckpt_pause_p99_ms", v.at("sim.ckpt_pause_p99_ms"), "ms");

  for (const char* name :
       {"serde.batch_encode_ns_per_tuple", "serde.batch_decode_ns_per_tuple",
        "serde.ckpt_serialize_ns_per_kib", "serde.ckpt_deserialize_ns_per_kib",
        "serde.frame_build_ns_per_kib"}) {
    report.Add(name, replay.values.at(name), "ns");
  }
  report.Add("serde.compress_ratio", replay.values.at("serde.compress_ratio"),
             "ratio");

  report.Add("store.appends", v.at("store.appends"), "count");
  report.Add("store.append_kib", v.at("store.append_kib"), "KiB");
  report.Add("store.reads", v.at("store.reads"), "count");
  report.Add("store.fsyncs", v.at("store.fsyncs"), "count");
  report.Add("store.fsync_ms", v.at("store.fsync_ms"), "ms");
  report.Add("store.compactions", v.at("store.compactions"), "count");
  report.Add("store.write_amp", v.at("store.write_amp"), "ratio");
  report.Add("store.append_us_per_mib",
             replay.values.at("store.append_us_per_mib"), "us");
  report.Add("store.read_us_per_mib",
             replay.values.at("store.read_us_per_mib"), "us");

  report.Add("control.scale_outs", v.at("control.scale_outs"), "count");
  report.Add("control.plans", v.at("control.plans"), "count");
  report.Add("control.plans_aborted", v.at("control.plans_aborted"), "count");
  report.Add("control.plan_sim_s_max", v.at("control.plan_sim_s_max"), "s");
  report.Add("control.recovery_sim_s", v.at("control.recovery_sim_s"), "s");
  report.Add("cloud.vms_peak", v.at("cloud.vms_peak"), "count");
  report.Add("cloud.vm_seconds", v.at("cloud.vm_seconds"), "s");

  report.Add("net.messages_delivered",
             plain.values.at("net.messages_delivered"), "count");
  report.Add("net.frames_dropped", plain.values.at("net.frames_dropped"),
             "count");
  report.Add("net.loopback_mib_s", replay.values.at("net.loopback_mib_s"),
             "MiB/s");
  report.Add("net.rtt_p99_us", replay.values.at("net.rtt_p99_us"), "us");
  report.Add("net.tcp_over_sim_ratio", tcp_over_sim, "ratio");

  report.Add("trace.overhead_pct",
             (traced.run_wall_s - plain.run_wall_s) / plain.run_wall_s * 100,
             "%");
  report.Add("trace.clock_read_ns", ClockReadNs(), "ns");
  return report;
}

}  // namespace
}  // namespace seepbench

int main(int argc, char** argv) {
  using namespace seepbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: seepbench --workload "
                 "wc-steady|wc-bigstate-failover|lrb-scaleout|wc-tcp "
                 "--seed N --seconds S --mode timed|traced --workdir DIR\n");
    return 2;
  }
  const Report report = args.mode == "timed" ? Timed(args) : Traced(args);
  PrintReport(report);
  return 0;
}
