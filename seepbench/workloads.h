// The benchmark's four workloads, run through the public sps::Sps API.
#ifndef SEEPBENCH_WORKLOADS_H_
#define SEEPBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "probes.h"

namespace seepbench {

bool IsKnownWorkload(const std::string& name);
/// True for the workloads on the deterministic sim transport (every
/// simulated outcome repeats exactly for a given seed).
bool IsSimulated(const std::string& name);

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Wrap every operator and read the clock (the traced run).
  bool traced = false;
  /// Audit level pinned into the cluster config, whatever SEEP_AUDIT says.
  int audit_level = 0;
  /// Fresh, empty directory owned by this run; the durable store lives
  /// inside it.
  std::string workdir;
  /// Run the workload's configuration on the sim transport (wc-tcp only:
  /// the denominator of net.tcp_over_sim_ratio).
  bool force_sim_transport = false;
};

/// Expected outputs, computed without the SPS from the same seed.
struct Reference {
  // Word count: (window id, word) -> count.
  std::map<std::pair<int64_t, std::string>, int64_t> counts;
};

Reference ComputeReference(const std::string& workload, uint64_t seed);

struct RunResult {
  double run_wall_s = 0;
  /// Outputs compared against the reference (cells or balance queries).
  uint64_t checks = 0;
  /// Operations that failed: wrong or missing outputs plus every failure
  /// counter the runtime keeps. `reasons` names the first few.
  uint64_t failed = 0;
  std::vector<std::string> reasons;
  /// Named outcomes of the run (sim outcomes and layer counters).
  std::map<std::string, double> values;
  std::unique_ptr<Probe> probe;

  void Fail(uint64_t n, const std::string& why);
};

/// Constructs and deploys the workload, runs it to the end of its drain and
/// checks its outputs against `reference`.
RunResult RunWorkload(const RunConfig& run, const Reference& reference);

/// Whether two runs of a simulated workload produced the same sink output
/// at the same simulated times and the same simulated outcomes.
bool SameSimOutcome(const RunResult& a, const RunResult& b);

/// Wall seconds of Sps construction plus Deploy alone.
double MeasureSetup(const RunConfig& run);

}  // namespace seepbench

#endif  // SEEPBENCH_WORKLOADS_H_
