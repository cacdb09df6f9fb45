// Layer probes for the SEEP benchmark. Everything here sits *outside* the
// program under test: wrappers around the public core::SourceGenerator,
// core::Operator, core::Collector and core::SinkConsumer interfaces, which
// the runtime calls exactly as it calls the unwrapped workload objects.
//
// A wrapper forwards every hook (state hooks, CostMicrosPerTuple, timers),
// so a wrapped query behaves identically in simulated time. In a traced run
// the wrappers also read the clock around each call: per-tuple calls fold
// into per-layer aggregates, coarse calls (GenerateBatch, OnTimer, state
// capture and restore, RunFor slices) keep raw spans.
#ifndef SEEPBENCH_PROBES_H_
#define SEEPBENCH_PROBES_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/operator.h"
#include "core/query_graph.h"
#include "core/state.h"

namespace seepbench {

using seep::OperatorId;
using seep::SimTime;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Aggregate of one per-call layer: calls, units of work (tuples or bytes),
/// busy nanoseconds and a log2 histogram of call durations.
struct Layer {
  uint64_t calls = 0;
  uint64_t units = 0;
  int64_t ns = 0;
  std::array<uint64_t, 40> log2_ns{};

  void Add(int64_t dur_ns, uint64_t n_units) {
    ++calls;
    units += n_units;
    ns += dur_ns;
    size_t bucket = 0;
    for (int64_t v = dur_ns; v > 1 && bucket + 1 < log2_ns.size(); v >>= 1) {
      ++bucket;
    }
    ++log2_ns[bucket];
  }
};

/// One coarse call: [start, end) in steady-clock ns, the enclosing RunFor
/// slice (-1 for none) and the operator it ran for (-1 for none).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int32_t op = -1;
};

/// Shared state of every wrapper in one run. The run owns it and outlives
/// the deployment whose wrappers point at it.
struct Probe {
  // ------------------------------------------------------------ settings
  /// Traced run: read the clock around calls and keep tuples and states
  /// for the layer replays.
  bool timed = false;
  bool lrb = false;  // record LRB balance-query ids at source and sink
  /// Sources emit nothing from this sim time on, so the run can drain.
  SimTime stop_at = INT64_MAX;
  std::vector<std::string> op_names;  // by OperatorId

  // ------------------------------------------------- counts (every run)
  uint64_t source_tuples = 0;
  uint64_t sink_digest = 0xcbf29ce484222325ull;
  std::vector<int64_t> queries_emitted;
  std::vector<int64_t> queries_answered;
  std::vector<uint32_t> source_batch_sizes;

  // ------------------------------------------------ layers (traced run)
  Layer source;   // GenerateBatch self time
  Layer emit;     // the runtime Collector::EmitTo
  Layer sink;     // SinkConsumer::Consume
  Layer capture_state;  // GetProcessingState / TakeProcessingStateDelta
  Layer restore;        // SetProcessingState / MergeProcessingState
  std::map<OperatorId, Layer> process;  // Process self time
  std::map<OperatorId, Layer> timer;    // OnTimer self time
  /// Time the probe spent on its own bookkeeping (captures) inside timed
  /// windows; excluded from every layer and from the residual.
  int64_t bookkeeping_ns = 0;
  std::vector<Span> spans;
  int32_t open_slice = -1;

  // ---------------------------------------- captured data (traced run)
  std::vector<seep::core::Tuple> tuples;
  struct CapturedState {
    OperatorId op = 0;
    seep::core::ProcessingState state;
  };
  std::vector<CapturedState> states;
  uint64_t captured_state_bytes = 0;

  static constexpr size_t kMaxCapturedTuples = 100'000;
  static constexpr uint64_t kMaxCapturedStateBytes = 24ull << 20;

  int32_t BeginSpan(const char* name, int32_t op);
  void EndSpan(int32_t index) {
    spans[static_cast<size_t>(index)].end_ns = NowNs();
  }
  void NoteCapture(OperatorId op, const seep::core::ProcessingState& state,
                   int64_t dur_ns);
};

/// Builds a copy of `graph` whose sources and sinks are wrapped with
/// counting probes and, when `wrap_operators`, whose operators are wrapped
/// too. Vertex ids, names, costs and port order are preserved.
seep::core::QueryGraph WrapGraph(const seep::core::QueryGraph& graph,
                                 Probe* probe, bool wrap_operators);

}  // namespace seepbench

#endif  // SEEPBENCH_PROBES_H_
