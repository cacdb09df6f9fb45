// Layer replays: data captured by the probes in a traced run, pushed again
// through the public serde, store, sim and net functions in isolation, so
// each layer gets a cost per unit of work without instrumenting src/.
#ifndef SEEPBENCH_REPLAY_H_
#define SEEPBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probes.h"

namespace seepbench {

struct ReplayResult {
  std::map<std::string, double> values;
  /// Round trips that did not reproduce their input.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> reasons;
};

/// Median tuples per source batch of the run (at least 1): the batch size
/// every replay ships.
size_t ReplayBatchTuples(const Probe& probe);

/// Replays `probe`'s captured tuples and states, and `sim_events` no-op
/// events, through serde, store, sim and net. `workdir` is a fresh
/// directory for the replay's checkpoint log.
ReplayResult ReplayLayers(const Probe& probe, uint64_t sim_events,
                          const std::string& workdir);

}  // namespace seepbench

#endif  // SEEPBENCH_REPLAY_H_
