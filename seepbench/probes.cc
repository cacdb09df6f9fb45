#include "probes.h"

#include <utility>

#include "common/hash.h"
#include "common/macros.h"
#include "workloads/lrb/lrb.h"

namespace seepbench {

using seep::SimTime;
using seep::core::Collector;
using seep::core::Operator;
using seep::core::ProcessingState;
using seep::core::SinkConsumer;
using seep::core::SourceGenerator;
using seep::core::StateDelta;
using seep::core::Tuple;

int32_t Probe::BeginSpan(const char* name, int32_t op) {
  Span span;
  span.name = name;
  span.parent = open_slice;
  span.op = op;
  span.start_ns = NowNs();
  spans.push_back(span);
  return static_cast<int32_t>(spans.size() - 1);
}

void Probe::NoteCapture(OperatorId op, const ProcessingState& state,
                        int64_t dur_ns) {
  capture_state.Add(dur_ns, state.ByteSize());
  if (captured_state_bytes >= kMaxCapturedStateBytes) return;
  const int64_t t0 = NowNs();
  states.push_back({op, state});
  captured_state_bytes += state.ByteSize();
  bookkeeping_ns += NowNs() - t0;
}

namespace {

/// Stands between an operator (or source) and the runtime's collector:
/// counts emissions, records LRB query ids at the source, keeps a sample
/// of emitted tuples for the serde/net replays and, when timed, measures
/// the runtime's EmitTo separately from the caller's own work.
class ProbeCollector final : public Collector {
 public:
  ProbeCollector(Collector* inner, Probe* probe, bool at_source)
      : inner_(inner), probe_(probe), at_source_(at_source) {}

  void EmitTo(int port, Tuple tuple) override {
    ++emitted_;
    if (at_source_ && probe_->lrb &&
        tuple.ints[0] == seep::workloads::lrb::kBalanceQuery) {
      probe_->queries_emitted.push_back(tuple.ints[2]);
    }
    if (!probe_->timed) {
      inner_->EmitTo(port, std::move(tuple));
      return;
    }
    if (probe_->tuples.size() < Probe::kMaxCapturedTuples) {
      const int64_t c0 = NowNs();
      probe_->tuples.push_back(tuple);
      bookkeeping_ns_ += NowNs() - c0;
    }
    const int64_t t0 = NowNs();
    inner_->EmitTo(port, std::move(tuple));
    emit_ns_ += NowNs() - t0;
  }

  /// Folds this call's emissions into the probe; returns the nanoseconds
  /// of `total_ns` that belong to the caller itself.
  int64_t Settle(int64_t total_ns) {
    if (emitted_ > 0) probe_->emit.Add(emit_ns_, emitted_);
    probe_->bookkeeping_ns += bookkeeping_ns_;
    return total_ns - emit_ns_ - bookkeeping_ns_;
  }

  uint64_t emitted() const { return emitted_; }

 private:
  Collector* inner_;
  Probe* probe_;
  bool at_source_;
  uint64_t emitted_ = 0;
  int64_t emit_ns_ = 0;
  int64_t bookkeeping_ns_ = 0;
};

class ProbeSource final : public SourceGenerator {
 public:
  ProbeSource(std::unique_ptr<SourceGenerator> inner, Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  void GenerateBatch(SimTime now, SimTime dt, Collector* emit) override {
    if (now >= probe_->stop_at) return;
    ProbeCollector collector(emit, probe_, /*at_source=*/true);
    if (!probe_->timed) {
      inner_->GenerateBatch(now, dt, &collector);
    } else {
      const int32_t span = probe_->BeginSpan("GenerateBatch", -1);
      inner_->GenerateBatch(now, dt, &collector);
      probe_->EndSpan(span);
      const Span& s = probe_->spans[static_cast<size_t>(span)];
      probe_->source.Add(collector.Settle(s.end_ns - s.start_ns),
                         collector.emitted());
    }
    probe_->source_tuples += collector.emitted();
    probe_->source_batch_sizes.push_back(
        static_cast<uint32_t>(collector.emitted()));
  }

  double TargetRate(SimTime now) const override {
    return inner_->TargetRate(now);
  }

 private:
  std::unique_ptr<SourceGenerator> inner_;
  Probe* probe_;
};

class ProbeOperator final : public Operator {
 public:
  ProbeOperator(std::unique_ptr<Operator> inner, Probe* probe, OperatorId op)
      : inner_(std::move(inner)), probe_(probe), op_(op) {}

  void Process(const Tuple& input, Collector* out) override {
    if (!probe_->timed) {
      inner_->Process(input, out);
      return;
    }
    ProbeCollector collector(out, probe_, /*at_source=*/false);
    const int64_t t0 = NowNs();
    inner_->Process(input, &collector);
    const int64_t total = NowNs() - t0;
    probe_->process[op_].Add(collector.Settle(total), 1);
  }

  bool IsStateful() const override { return inner_->IsStateful(); }

  ProcessingState GetProcessingState() const override {
    if (!probe_->timed) return inner_->GetProcessingState();
    const int32_t span = probe_->BeginSpan("capture", Op());
    ProcessingState state = inner_->GetProcessingState();
    probe_->EndSpan(span);
    probe_->NoteCapture(op_, state, SpanNs(span));
    return state;
  }

  void SetProcessingState(const ProcessingState& state) override {
    if (!probe_->timed) return inner_->SetProcessingState(state);
    const int32_t span = probe_->BeginSpan("restore", Op());
    inner_->SetProcessingState(state);
    probe_->EndSpan(span);
    probe_->restore.Add(SpanNs(span), state.ByteSize());
  }

  void MergeProcessingState(const ProcessingState& state) override {
    if (!probe_->timed) return inner_->MergeProcessingState(state);
    const int32_t span = probe_->BeginSpan("restore", Op());
    inner_->MergeProcessingState(state);
    probe_->EndSpan(span);
    probe_->restore.Add(SpanNs(span), state.ByteSize());
  }

  bool SupportsIncrementalState() const override {
    return inner_->SupportsIncrementalState();
  }

  StateDelta TakeProcessingStateDelta() override {
    if (!probe_->timed) return inner_->TakeProcessingStateDelta();
    const int32_t span = probe_->BeginSpan("capture", Op());
    StateDelta delta = inner_->TakeProcessingStateDelta();
    probe_->EndSpan(span);
    probe_->NoteCapture(op_, delta.updated, SpanNs(span));
    return delta;
  }

  void ClearStateDelta() override { inner_->ClearStateDelta(); }

  double CostMicrosPerTuple() const override {
    return inner_->CostMicrosPerTuple();
  }

  SimTime TimerInterval() const override { return inner_->TimerInterval(); }

  void OnTimer(SimTime now, Collector* out) override {
    if (!probe_->timed) return inner_->OnTimer(now, out);
    ProbeCollector collector(out, probe_, /*at_source=*/false);
    const int32_t span = probe_->BeginSpan("OnTimer", Op());
    inner_->OnTimer(now, &collector);
    probe_->EndSpan(span);
    probe_->timer[op_].Add(collector.Settle(SpanNs(span)),
                           collector.emitted());
  }

 private:
  int32_t Op() const { return static_cast<int32_t>(op_); }
  int64_t SpanNs(int32_t span) const {
    const Span& s = probe_->spans[static_cast<size_t>(span)];
    return s.end_ns - s.start_ns;
  }

  std::unique_ptr<Operator> inner_;
  Probe* probe_;
  OperatorId op_;
};

class ProbeSink final : public SinkConsumer {
 public:
  ProbeSink(std::unique_ptr<SinkConsumer> inner, Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  void Consume(const Tuple& tuple, SimTime now) override {
    // Order-sensitive digest of everything the sink saw, and when: equal
    // digests mean equal outputs at equal simulated times.
    uint64_t h = probe_->sink_digest;
    for (int64_t v : tuple.ints) h = seep::HashCombine(h, uint64_t(v));
    h = seep::HashCombine(h, seep::HashBytes(tuple.text));
    h = seep::HashCombine(h, uint64_t(tuple.event_time));
    probe_->sink_digest = seep::HashCombine(h, uint64_t(now));
    if (probe_->lrb &&
        tuple.ints[0] == seep::workloads::lrb::kBalanceAnswer) {
      probe_->queries_answered.push_back(tuple.ints[3]);
    }
    if (!probe_->timed) {
      inner_->Consume(tuple, now);
      return;
    }
    const int64_t t0 = NowNs();
    inner_->Consume(tuple, now);
    probe_->sink.Add(NowNs() - t0, 1);
  }

 private:
  std::unique_ptr<SinkConsumer> inner_;
  Probe* probe_;
};

}  // namespace

seep::core::QueryGraph WrapGraph(const seep::core::QueryGraph& graph,
                                 Probe* probe, bool wrap_operators) {
  using seep::core::VertexKind;
  seep::core::QueryGraph out;
  probe->op_names.clear();
  for (const seep::core::OperatorSpec& spec : graph.operators()) {
    probe->op_names.push_back(spec.name);
    OperatorId id = 0;
    switch (spec.kind) {
      case VertexKind::kSource:
        id = out.AddSource(
            spec.name,
            [f = spec.source_factory, probe](uint32_t index, uint32_t count) {
              return std::make_unique<ProbeSource>(f(index, count), probe);
            },
            spec.endpoint_cost_us, spec.source_parallelism);
        break;
      case VertexKind::kOperator:
        id = out.AddOperator(
            spec.name,
            wrap_operators
                ? seep::core::OperatorFactory(
                      [f = spec.factory, probe, op = spec.id]() {
                        return std::make_unique<ProbeOperator>(f(), probe, op);
                      })
                : spec.factory,
            spec.stateful, spec.scalable);
        break;
      case VertexKind::kSink:
        id = out.AddSink(
            spec.name,
            [f = spec.sink_factory, probe]() {
              return std::make_unique<ProbeSink>(f(), probe);
            },
            spec.endpoint_cost_us);
        break;
    }
    SEEP_CHECK_EQ(id, spec.id);
  }
  for (const seep::core::OperatorSpec& spec : graph.operators()) {
    for (OperatorId down : graph.Downstream(spec.id)) {
      SEEP_CHECK(out.Connect(spec.id, down).ok());
    }
  }
  return out;
}

}  // namespace seepbench
