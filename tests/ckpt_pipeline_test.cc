// Tests for the checkpoint path: capture (full and delta) on a deployed
// instance, frame build round-trips through compression and framing, and
// short sim end-to-end runs proving asynchronous checkpoints produce the
// synchronous baseline's results under a level-2 audit, with checkpoint
// bytes counted only where they are produced.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "control/deployment_manager.h"
#include "core/state.h"
#include "runtime/ckpt_pipeline.h"
#include "runtime/cluster.h"
#include "runtime/operator_instance.h"
#include "serde/block_codec.h"
#include "serde/encoder.h"
#include "serde/frame.h"
#include "sps/sps.h"
#include "workloads/wordcount/wordcount.h"

namespace seep::runtime {
namespace {

core::Tuple MakeTuple(int64_t ts, const std::string& text) {
  core::Tuple t;
  t.timestamp = ts;
  t.key = static_cast<KeyHash>(ts) * 1315423911u;
  t.origin = 3;
  t.event_time = ts;
  t.text = text;
  return t;
}

void FillHeader(core::StateCheckpoint* c) {
  c->op = 3;
  c->instance = 11;
  c->origin = 2;
  c->out_clock = 40;
  c->seq = 7;
  c->taken_at = 1234;
  c->positions.Set(1, 33);
  c->processing.Add(5, "value-a");
  c->processing.Add(9, "value-b");
}

std::vector<uint8_t> EncodeDirect(const core::StateCheckpoint& c) {
  serde::Encoder enc;
  c.Encode(&enc);
  return std::move(enc).TakeBuffer();
}

std::vector<uint8_t> EncodeBuffer(const core::BufferState& b) {
  serde::Encoder enc;
  b.Encode(&enc);
  return std::move(enc).TakeBuffer();
}

// ---------------------------------------------------------------- capture

// A deployed word-count query whose counter instance's replay buffer each
// test replaces with hand-made tuples. The simulation never runs, so no
// trim or emission touches the buffer between captures.
struct CaptureHarness {
  CaptureHarness()
      : query(workloads::wordcount::BuildWordCountQuery({})),
        cluster(&query.graph, ClusterConfig{}) {
    control::DeploymentManager deployer(&cluster);
    EXPECT_TRUE(deployer.DeployAll().ok());
    inst = cluster.GetInstance(cluster.LiveInstancesOf(query.counter).at(0));
  }

  workloads::wordcount::WordCountQuery query;
  Cluster cluster;
  OperatorInstance* inst = nullptr;
};

TEST(CaptureTest, FullCaptureCopiesTheWholeLiveBuffer) {
  CaptureHarness h;
  core::BufferState& live = h.inst->buffer_state();
  live.Append(4, MakeTuple(10, "alpha"));
  live.Append(4, MakeTuple(20, "beta"));
  live.Append(5, MakeTuple(15, "delta"));
  live.buffers()[6];  // a deployed-but-empty downstream

  const core::StateCheckpoint ckpt = h.inst->MakeCheckpoint();
  EXPECT_FALSE(ckpt.is_delta);
  EXPECT_EQ(EncodeBuffer(ckpt.buffer), EncodeBuffer(live));
  // Empty downstream entries survive a full capture (restore recreates
  // them).
  EXPECT_EQ(ckpt.buffer.buffers().size(), 3u);
}

TEST(CaptureTest, ByteSizeCountsTheCapturedBuffer) {
  CaptureHarness h;
  core::BufferState& live = h.inst->buffer_state();
  live.Append(4, MakeTuple(10, "alpha"));
  live.Append(4, MakeTuple(20, "beta"));

  // The shipped charge is ByteSize(): the buffered tuples' wire bytes are
  // part of it.
  const core::StateCheckpoint ckpt = h.inst->MakeCheckpoint();
  core::StateCheckpoint without_buffer = ckpt;
  without_buffer.buffer = core::BufferState();
  EXPECT_EQ(without_buffer.ByteSize() + live.ByteSize(), ckpt.ByteSize());
}

TEST(CaptureTest, DeltaCaptureTakesUnshippedSuffix) {
  CaptureHarness h;
  core::BufferState& live = h.inst->buffer_state();
  live.Append(4, MakeTuple(10, "alpha"));
  live.Append(4, MakeTuple(20, "beta"));
  live.buffers()[6];
  const core::StateCheckpoint base = h.inst->MakeCheckpoint();

  // Op 4 gains one tuple past the shipped position; op 5 appears and was
  // never shipped; op 6 stays empty.
  live.Append(4, MakeTuple(30, "gamma"));
  live.Append(5, MakeTuple(15, "delta"));
  const core::StateCheckpoint delta = h.inst->MakeDeltaCheckpoint();

  EXPECT_TRUE(delta.is_delta);
  EXPECT_EQ(delta.base_seq, base.seq);
  EXPECT_EQ(delta.seq, base.seq + 1);
  ASSERT_NE(delta.buffer.Get(4), nullptr);
  ASSERT_EQ(delta.buffer.Get(4)->size(), 1u);
  EXPECT_EQ(delta.buffer.Get(4)->front().timestamp, 30);
  ASSERT_NE(delta.buffer.Get(5), nullptr);
  EXPECT_EQ(delta.buffer.Get(5)->size(), 1u);
  // Deltas skip downstreams with nothing new, but carry every buffer front
  // so the holder can mirror trims.
  EXPECT_EQ(delta.buffer.Get(6), nullptr);
  EXPECT_EQ(delta.buffer_front.size(), 3u);
  EXPECT_EQ(delta.buffer_front.at(4), 10);
}

TEST(CaptureTest, DeltaWithNothingNewCarriesNoTuples) {
  CaptureHarness h;
  core::BufferState& live = h.inst->buffer_state();
  live.Append(4, MakeTuple(10, "alpha"));
  live.Append(5, MakeTuple(15, "delta"));
  (void)h.inst->MakeCheckpoint();
  const core::StateCheckpoint first = h.inst->MakeDeltaCheckpoint();
  const core::StateCheckpoint second = h.inst->MakeDeltaCheckpoint();
  EXPECT_EQ(first.buffer.TotalTuples(), 0u);
  EXPECT_EQ(second.buffer.TotalTuples(), 0u);
  EXPECT_EQ(second.base_seq, first.seq);
  // Capturing never touches the live buffer itself.
  EXPECT_EQ(live.TotalTuples(), 2u);
}

// ---------------------------------------------------------- frame building

CkptSerializer::Job JobWithSnapshot(core::StateCheckpoint snapshot) {
  CkptSerializer::Job job;
  job.owner = snapshot.instance;
  job.owner_op = snapshot.op;
  job.seq = snapshot.seq;
  job.snapshot = std::move(snapshot);
  return job;
}

core::StateCheckpoint CompressibleSnapshot() {
  core::StateCheckpoint c;
  FillHeader(&c);
  for (int i = 0; i < 200; ++i) {
    c.processing.Add(100 + i, "window-count-payload-window-count-payload");
  }
  return c;
}

TEST(BuildFrameTest, CompressedFrameRoundTripsToTheSnapshot) {
  const std::vector<uint8_t> raw = EncodeDirect(CompressibleSnapshot());
  const SerializedCkptFrame frame =
      CkptSerializer::BuildFrame(JobWithSnapshot(CompressibleSnapshot()),
                                 /*compress=*/true);
  EXPECT_TRUE(frame.compressed);
  EXPECT_EQ(frame.raw_bytes, raw.size());
  EXPECT_LT(frame.frame.size(), raw.size());  // compression actually won

  auto payload = serde::UnframePayload(frame.frame);
  ASSERT_TRUE(payload.ok());
  auto restored = serde::BlockDecompress(payload.value(), frame.raw_bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), raw);
}

TEST(BuildFrameTest, UncompressedFrameCarriesTheRawEncoding) {
  const std::vector<uint8_t> raw = EncodeDirect(CompressibleSnapshot());
  const SerializedCkptFrame frame =
      CkptSerializer::BuildFrame(JobWithSnapshot(CompressibleSnapshot()),
                                 /*compress=*/false);
  EXPECT_FALSE(frame.compressed);
  auto payload = serde::UnframePayload(frame.frame);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload.value(), raw);
}

TEST(BuildFrameTest, CorruptedFrameIsRejectedByTheCrc) {
  SerializedCkptFrame frame = CkptSerializer::BuildFrame(
      JobWithSnapshot(CompressibleSnapshot()), /*compress=*/true);
  frame.frame[frame.frame.size() / 2] ^= 0x40;
  EXPECT_FALSE(serde::UnframePayload(frame.frame).ok());
}

// --------------------------------------------------------- sim end to end

using Counts = std::map<std::pair<int64_t, std::string>, int64_t>;

struct PipelineOutcome {
  Counts counts;
  uint64_t async_captures = 0;
  uint64_t aborted = 0;
  uint64_t decode_failures = 0;
  uint64_t checkpoints_taken = 0;
  uint64_t raw_bytes = 0;
  uint64_t wire_bytes = 0;
};

PipelineOutcome RunWordCount(bool async,
                             BackupDurability durability =
                                 BackupDurability::kMemory) {
  workloads::wordcount::WordCountConfig wc;
  wc.rate_tuples_per_sec = 100;
  wc.vocabulary = 500;
  wc.window = SecondsToSim(10);
  wc.seed = 7;

  sps::SpsConfig config;
  config.cluster.checkpoint_interval = SecondsToSim(3);
  config.cluster.async_checkpoints = async;
  config.cluster.backup_durability = durability;
  // Full audit with the abort-on-violation default: any violated invariant
  // kills the test.
  config.cluster.audit_level = verify::kAuditExpensive;
  config.cluster.pool.target_size = 4;
  config.scaling.enabled = false;

  workloads::wordcount::WordCountQuery query =
      workloads::wordcount::BuildWordCountQuery(wc);
  auto results = query.results;
  sps::Sps sps(std::move(query.graph), config);
  EXPECT_TRUE(sps.Deploy().ok());
  sps.RunFor(35);

  PipelineOutcome out;
  out.counts = results->counts;
  out.async_captures = sps.metrics().async_ckpt_captures;
  out.aborted = sps.metrics().async_ckpts_aborted;
  out.decode_failures = sps.metrics().ckpt_decode_failures;
  out.checkpoints_taken = sps.metrics().checkpoints_taken;
  out.raw_bytes = sps.metrics().ckpt_raw_bytes;
  out.wire_bytes = sps.metrics().ckpt_wire_bytes;
  return out;
}

TEST(AsyncPipelineEndToEnd, MatchesSynchronousResultsUnderFullAudit) {
  const PipelineOutcome sync = RunWordCount(false);
  const PipelineOutcome async = RunWordCount(true);

  // The async path really ran, and nothing needed aborting in a
  // failure-free run.
  EXPECT_EQ(sync.async_captures, 0u);
  EXPECT_GT(async.async_captures, 5u);
  EXPECT_EQ(async.aborted, 0u);
  EXPECT_GT(async.checkpoints_taken, 0u);

  // The simulator ships checkpoints as objects: no bytes are produced
  // while no durable tier stores them.
  EXPECT_EQ(async.decode_failures, 0u);
  EXPECT_EQ(sync.raw_bytes, 0u);
  EXPECT_EQ(async.raw_bytes, 0u);

  // Same results: windows are event-time keyed, so moving serialization off
  // the processing path cannot change their contents.
  EXPECT_FALSE(sync.counts.empty());
  EXPECT_EQ(sync.counts, async.counts);
}

TEST(AsyncShipAbort, SuspendDuringPauseAbortsEvenIfResumedWithinDelay) {
  // An asynchronous checkpoint whose owner is suspended while the
  // checkpoint job's pause runs must abort when the pause ends. Resuming
  // inside the serialization delay must not let the pre-suspension
  // snapshot ship: its trim acks would drop tuples the scale-out's restore
  // point still needs.
  ClusterConfig config;
  config.async_checkpoints = true;
  config.checkpoint_interval = SecondsToSim(1000);  // no periodic ones
  // Empty processing state counts 64 B = 1/16 KiB: a 10 ms pause, then a
  // 100 ms serialization delay.
  config.capture_cost_us_per_kb = 160'000.0;
  config.serialize_cost_us_per_kb = 1'600'000.0;
  workloads::wordcount::WordCountQuery query =
      workloads::wordcount::BuildWordCountQuery({});
  Cluster cluster(&query.graph, config);
  control::DeploymentManager deployer(&cluster);
  ASSERT_TRUE(deployer.DeployAll().ok());
  OperatorInstance* inst =
      cluster.GetInstance(cluster.LiveInstancesOf(query.counter).at(0));

  JobScheduler::Job job;
  job.kind = JobScheduler::Job::Kind::kCheckpoint;
  inst->EnqueueJob(std::move(job));
  sim::Simulation* sim = cluster.simulation();
  sim->Schedule(MillisToSim(5), [inst]() { inst->SuspendCheckpoints(); });
  sim->Schedule(MillisToSim(20), [inst]() { inst->ResumeCheckpoints(); });
  sim->RunUntil(sim->Now() + MillisToSim(500));

  EXPECT_FALSE(inst->checkpoints_suspended());
  EXPECT_EQ(cluster.metrics()->async_ckpts_aborted, 1u);
  EXPECT_EQ(cluster.metrics()->async_ckpt_captures, 0u);
  EXPECT_EQ(cluster.metrics()->checkpoints_taken, 0u);
  EXPECT_FALSE(cluster.backups()->LatestSeq(inst->id()).has_value());
}

TEST(CheckpointBytesMetric, CountedAtTheDurableAppendInBothModes) {
  // The frame bytes metrics count where bytes are really produced. On the
  // sim backend that is the durable append, which happens in both modes.
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    const PipelineOutcome out = RunWordCount(async, BackupDurability::kDisk);
    EXPECT_GT(out.checkpoints_taken, 0u);
    EXPECT_GT(out.raw_bytes, 0u);
    // The durable tier compresses when that makes the record smaller.
    EXPECT_LT(out.wire_bytes, out.raw_bytes);
  }
}

}  // namespace
}  // namespace seep::runtime
