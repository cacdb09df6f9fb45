#include "replay.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/sync.h"
#include "core/tuple.h"
#include "net/local_cluster.h"
#include "net/wire.h"
#include "runtime/ckpt_pipeline.h"
#include "serde/decoder.h"
#include "serde/encoder.h"
#include "sim/simulation.h"
#include "store/checkpoint_log.h"

namespace seepbench {
namespace {

using seep::core::StateCheckpoint;
using seep::core::Tuple;
using seep::core::TupleBatch;

/// Each replay repeats whole passes over its data until at least this much
/// wall time has passed, so small captures still give a stable cost.
constexpr int64_t kMinReplayNs = 200'000'000;

/// Runs `pass` at least once and until kMinReplayNs; returns the mean
/// nanoseconds of one pass.
template <typename Pass>
double NsPerPass(Pass pass) {
  int64_t passes = 0;
  const int64_t t0 = NowNs();
  int64_t elapsed = 0;
  do {
    pass(passes);
    ++passes;
    elapsed = NowNs() - t0;
  } while (elapsed < kMinReplayNs);
  return double(elapsed) / double(passes);
}

bool SameTuple(const Tuple& a, const Tuple& b) {
  return a.timestamp == b.timestamp && a.key == b.key &&
         a.origin == b.origin && a.event_time == b.event_time &&
         a.ints == b.ints && a.text == b.text &&
         a.latency_sample == b.latency_sample;
}

// ------------------------------------------------------------------- sim

/// No-op events dispatched through ScheduleAt/RunAll, 64 self-rescheduling
/// chains deep (a small pending queue, like the runtime's).
double SimDispatchNsPerEvent(uint64_t events) {
  struct Chains {
    seep::sim::Simulation sim;
    uint64_t target = 0;
    uint64_t scheduled = 0;
    void Next() {
      if (scheduled >= target) return;
      ++scheduled;
      sim.ScheduleAt(sim.Now() + 1 + int64_t(scheduled % 7),
                     [this]() { Next(); });
    }
  };
  uint64_t executed = 0;
  const double ns = NsPerPass([&](int64_t) {
    Chains chains;
    chains.target = std::max<uint64_t>(events, 1);
    for (int c = 0; c < 64; ++c) chains.Next();
    chains.sim.RunAll();
    executed = chains.sim.executed_events();
  });
  return ns / double(std::max<uint64_t>(executed, 1));
}

// ----------------------------------------------------------------- serde

void ReplayBatches(const Probe& probe, size_t batch_tuples,
                   ReplayResult* out) {
  std::vector<TupleBatch> batches;
  for (size_t i = 0; i < probe.tuples.size(); i += batch_tuples) {
    TupleBatch batch;
    batch.from = 1;
    const size_t end = std::min(probe.tuples.size(), i + batch_tuples);
    batch.tuples.assign(probe.tuples.begin() + long(i),
                        probe.tuples.begin() + long(end));
    batches.push_back(std::move(batch));
  }
  const double tuples = double(std::max<size_t>(probe.tuples.size(), 1));

  const double encode_ns = NsPerPass([&](int64_t) {
    for (const TupleBatch& batch : batches) {
      seep::serde::Encoder enc;
      batch.Encode(&enc);
    }
  });
  std::vector<std::vector<uint8_t>> encoded;
  for (const TupleBatch& batch : batches) {
    seep::serde::Encoder enc;
    batch.Encode(&enc);
    encoded.push_back(enc.buffer());
  }
  uint64_t mismatched = 0;
  const double decode_ns = NsPerPass([&](int64_t pass) {
    for (size_t i = 0; i < encoded.size(); ++i) {
      seep::serde::Decoder dec(encoded[i]);
      auto decoded = TupleBatch::Decode(&dec);
      if (pass > 0) continue;
      const auto& want = batches[i].tuples;
      bool same = decoded.ok() && decoded.value().tuples.size() == want.size();
      for (size_t t = 0; same && t < want.size(); ++t) {
        same = SameTuple(decoded.value().tuples[t], want[t]);
      }
      mismatched += same ? 0 : 1;
    }
  });
  out->attempted += batches.size();
  out->failed += mismatched;
  if (mismatched > 0) out->reasons.push_back("tuple batch round trip");
  out->values["serde.batch_encode_ns_per_tuple"] = encode_ns / tuples;
  out->values["serde.batch_decode_ns_per_tuple"] = decode_ns / tuples;
}

/// Checkpoint frames built from the captured states, reused by the store
/// replay.
std::vector<seep::runtime::SerializedCkptFrame> ReplayCheckpoints(
    const Probe& probe, ReplayResult* out) {
  using seep::runtime::CkptSerializer;
  std::vector<CkptSerializer::Job> jobs;
  for (size_t i = 0; i < probe.states.size(); ++i) {
    CkptSerializer::Job job;
    job.owner = seep::InstanceId(i + 1);
    job.owner_op = probe.states[i].op;
    job.seq = i + 1;
    job.snapshot.op = probe.states[i].op;
    job.snapshot.instance = job.owner;
    job.snapshot.seq = job.seq;
    job.snapshot.processing = probe.states[i].state;
    jobs.push_back(std::move(job));
  }

  std::vector<std::vector<uint8_t>> serialized(jobs.size());
  const double serialize_ns = NsPerPass([&](int64_t) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      serialized[i] = jobs[i].snapshot.Serialize();
    }
  });
  double kib = 0;
  for (const auto& bytes : serialized) kib += double(bytes.size()) / 1024;
  kib = std::max(kib, 1.0 / 1024);

  uint64_t mismatched = 0;
  const double deserialize_ns = NsPerPass([&](int64_t pass) {
    for (size_t i = 0; i < serialized.size(); ++i) {
      auto ckpt = StateCheckpoint::Deserialize(serialized[i]);
      if (pass > 0) continue;
      const auto& want = jobs[i].snapshot.processing;
      const bool same = ckpt.ok() && ckpt.value().seq == jobs[i].seq &&
                        ckpt.value().processing.size() == want.size() &&
                        ckpt.value().processing.ByteSize() == want.ByteSize();
      mismatched += same ? 0 : 1;
    }
  });

  std::vector<seep::runtime::SerializedCkptFrame> frames(jobs.size());
  const double frame_ns = NsPerPass([&](int64_t) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      frames[i] = CkptSerializer::BuildFrame(jobs[i], /*compress=*/true);
    }
  });
  double raw = 0, wire = 0;
  for (const auto& f : frames) {
    raw += double(f.raw_bytes);
    wire += double(f.frame.size());
  }

  out->attempted += jobs.size();
  out->failed += mismatched;
  if (mismatched > 0) out->reasons.push_back("checkpoint round trip");
  out->values["serde.ckpt_serialize_ns_per_kib"] = serialize_ns / kib;
  out->values["serde.ckpt_deserialize_ns_per_kib"] = deserialize_ns / kib;
  out->values["serde.frame_build_ns_per_kib"] = frame_ns / kib;
  out->values["serde.compress_ratio"] = wire > 0 ? raw / wire : 0;
  return frames;
}

// ----------------------------------------------------------------- store

void ReplayStore(const std::vector<seep::runtime::SerializedCkptFrame>& frames,
                 const std::string& dir, ReplayResult* out) {
  out->values["store.append_us_per_mib"] = 0;
  out->values["store.read_us_per_mib"] = 0;
  if (frames.empty()) return;
  seep::store::CheckpointLogConfig config;
  config.directory = dir;
  auto opened = seep::store::CheckpointLog::Open(config);
  ++out->attempted;
  if (!opened.ok()) {
    ++out->failed;
    out->reasons.push_back("replay log: " + opened.status().ToString());
    return;
  }
  std::unique_ptr<seep::store::CheckpointLog> log =
      std::move(opened).value();
  double mib = 0;
  for (const auto& f : frames) mib += double(f.frame.size()) / (1 << 20);

  uint64_t failed = 0;
  const double append_ns = NsPerPass([&](int64_t pass) {
    for (size_t i = 0; i < frames.size(); ++i) {
      seep::store::RecordMeta meta;
      meta.owner = frames[i].owner;
      meta.seq = uint64_t(pass) * frames.size() + i + 1;
      meta.raw_bytes = frames[i].raw_bytes;
      meta.compressed = frames[i].compressed;
      failed += log->Append(meta, frames[i].frame.data(),
                            frames[i].frame.size())
                        .ok()
                    ? 0
                    : 1;
    }
  });
  const double read_ns = NsPerPass([&](int64_t) {
    for (const auto& f : frames) {
      auto payload = log->ReadPayload(f.owner);
      failed += payload.ok() && payload.value() == f.frame ? 0 : 1;
    }
  });
  out->attempted += frames.size();
  out->failed += failed;
  if (failed > 0) out->reasons.push_back("store append/read round trip");
  out->values["store.append_us_per_mib"] = append_ns / 1e3 / mib;
  out->values["store.read_us_per_mib"] = read_ns / 1e3 / mib;
}

// ------------------------------------------------------------------- net

/// Loopback throughput and round-trip time of one batch message through
/// net::LocalCluster::Post.
void ReplayNet(const Probe& probe, size_t batch_tuples, ReplayResult* out) {
  TupleBatch batch;
  batch.from = 1;
  batch.tuples.assign(
      probe.tuples.begin(),
      probe.tuples.begin() + long(std::min(batch_tuples, probe.tuples.size())));
  seep::serde::Encoder enc;
  batch.Encode(&enc);
  seep::net::Message msg;
  msg.type = seep::net::MessageType::kBatch;
  msg.from_vm = 1;
  msg.to_vm = 2;
  msg.body = enc.buffer();
  const double frame_mib =
      double(seep::net::EncodeMessage(msg).size()) / (1 << 20);
  // About 16 MiB per flood, within [200, 20000] messages.
  const uint64_t flood = std::clamp<uint64_t>(
      uint64_t(16.0 / std::max(frame_mib, 1e-9)), 200, 20000);

  seep::sync::Mutex mu;
  seep::sync::CondVar cv;
  uint64_t received SEEP_GUARDED_BY(mu) = 0;
  bool echoed SEEP_GUARDED_BY(mu) = false;
  const auto wait = [&](auto pred) {
    seep::sync::MutexLock lock(&mu);
    return cv.WaitFor(&mu, std::chrono::seconds(30), [&] {
      mu.AssertHeld();
      return pred();
    });
  };

  seep::net::LocalCluster cluster;
  bool ok = cluster
                .StartWorker(1,
                             [&](seep::net::Message) {
                               seep::sync::MutexLock lock(&mu);
                               echoed = true;
                               cv.NotifyAll();
                             })
                .ok() &&
            cluster
                .StartWorker(2,
                             [&](seep::net::Message) {
                               seep::sync::MutexLock lock(&mu);
                               ++received;
                               cv.NotifyAll();
                             })
                .ok();
  ok = ok && cluster.Post(1, 2, msg) != seep::net::SendStatus::kClosed &&
       wait([&] { return received >= 1; });

  double mib_s = 0;
  if (ok) {
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < flood; ++i) {
      while (cluster.Post(1, 2, msg) == seep::net::SendStatus::kOverflow) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    ok = wait([&] { return received >= flood + 1; });
    mib_s = double(flood) * frame_mib / (double(NowNs() - t0) / 1e9);
  }

  std::vector<double> rtt_us;
  if (ok) {
    cluster.KillWorker(2);
    ok = cluster
             .StartWorker(2,
                          [&cluster](seep::net::Message m) {
                            m.from_vm = 2;
                            m.to_vm = 1;
                            (void)cluster.Post(2, 1, m);
                          })
             .ok();
    constexpr int kWarmup = 50, kRounds = 1000;
    for (int i = 0; ok && i < kWarmup + kRounds; ++i) {
      {
        seep::sync::MutexLock lock(&mu);
        echoed = false;
      }
      const int64_t t0 = NowNs();
      ok = cluster.Post(1, 2, msg) != seep::net::SendStatus::kClosed &&
           wait([&] { return echoed; });
      if (i >= kWarmup) rtt_us.push_back(double(NowNs() - t0) / 1e3);
    }
  }
  cluster.Shutdown();
  std::sort(rtt_us.begin(), rtt_us.end());

  ++out->attempted;
  if (!ok) {
    ++out->failed;
    out->reasons.push_back("loopback replay did not complete");
  }
  out->values["net.loopback_mib_s"] = mib_s;
  out->values["net.rtt_p99_us"] =
      rtt_us.empty() ? 0 : rtt_us[rtt_us.size() * 99 / 100];
}

}  // namespace

size_t ReplayBatchTuples(const Probe& probe) {
  std::vector<uint32_t> sizes;
  for (uint32_t s : probe.source_batch_sizes) {
    if (s > 0) sizes.push_back(s);
  }
  if (sizes.empty()) return 1;
  std::nth_element(sizes.begin(), sizes.begin() + long(sizes.size() / 2),
                   sizes.end());
  return sizes[sizes.size() / 2];
}

ReplayResult ReplayLayers(const Probe& probe, uint64_t sim_events,
                          const std::string& workdir) {
  ReplayResult out;
  const size_t batch_tuples = ReplayBatchTuples(probe);
  out.values["sim.dispatch_ns_per_event"] = SimDispatchNsPerEvent(sim_events);
  ReplayBatches(probe, batch_tuples, &out);
  const auto frames = ReplayCheckpoints(probe, &out);
  ReplayStore(frames, workdir + "/replay-store", &out);
  ReplayNet(probe, batch_tuples, &out);
  std::error_code ec;
  std::filesystem::remove_all(workdir + "/replay-store", ec);
  return out;
}

}  // namespace seepbench
