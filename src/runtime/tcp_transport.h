#ifndef SEEP_RUNTIME_TCP_TRANSPORT_H_
#define SEEP_RUNTIME_TCP_TRANSPORT_H_

#include <cstdint>
#include <memory>

#include "common/time.h"
#include "runtime/ckpt_pipeline.h"
#include "runtime/transport.h"

namespace seep::net {
class LocalCluster;
}  // namespace seep::net

namespace seep::runtime {

/// Knobs for the TCP transport backend.
struct TcpTransportConfig {
  /// Sim interval between inbox pumps: how often deliveries that arrived on
  /// worker threads re-enter the (single-threaded) simulated runtime.
  SimTime pump_interval = MillisToSim(1);
  /// Soft watermark on a sending worker's queued outbound bytes; above it
  /// SendBatch reports kPressured and the sender throttles.
  size_t queue_pressure_bytes = 4u << 20;
  /// Hard cap: frames beyond it are dropped (replay recovers them, exactly
  /// as after a crash).
  size_t queue_max_bytes = 64u << 20;
  /// Ceiling a receiver enforces on a frame's declared payload length.
  uint64_t max_frame_bytes = 64ull << 20;
  /// Bulk state shipping sends min(logical size, this cap) of real filler
  /// bytes; the logical size still travels in the message.
  uint64_t ship_payload_cap = 1u << 20;
  /// Chunk size for checkpoint frames on the wire.
  size_t checkpoint_chunk_bytes = 256u << 10;
  /// Longest wall-clock wait per pump for in-flight messages to land before
  /// sim time advances past them (bounds sim-time skew without letting a
  /// stalled link wedge the simulation).
  int64_t pump_wait_micros = 200;
};

/// Transport over real loopback TCP: per-VM worker threads (net::Worker)
/// ship length-prefixed crc32c frames between epoll event loops, while the
/// logical runtime stays single-threaded on the simulation driver thread.
/// Worker threads never touch runtime state — inbound messages land in a
/// thread-safe inbox that a recurring sim "pump" event drains and dispatches
/// through exactly the same handlers SimTransport uses (OnBatch,
/// DeliverCheckpointToHolder). Per-link FIFO order is preserved because
/// each VM pair shares one TCP connection; only arrival *times* differ from
/// the sim backend, and the protocol's correctness is timing-independent.
class TcpTransport : public Transport {
 public:
  TcpTransport(Cluster* cluster, TcpTransportConfig config);
  ~TcpTransport() override;

  void AttachVm(VmId vm) override;
  void DetachVm(VmId vm) override;
  SendPressure SendBatch(OperatorInstance* from, InstanceId to,
                         core::TupleBatch batch) override;
  /// The only checkpoint sender that produces bytes: frames the checkpoint
  /// with CkptSerializer::BuildFrame (crc32c, no compression — loopback
  /// bandwidth is not worth the CPU) and posts it as a stream of
  /// kCheckpointChunk messages of at most `checkpoint_chunk_bytes`, so
  /// multi-MB checkpoints interleave with data batches on the link.
  void SendCheckpoint(const CheckpointRoute& route,
                      core::StateCheckpoint ckpt) override;
  void ShipState(VmId from, VmId to, uint64_t size_bytes,
                 std::function<void()> on_delivery) override;

  /// Times any worker observed a peer link die (failure tests assert the
  /// upstream actually saw the disconnection).
  uint64_t disconnects_observed() const;
  /// Messages delivered over TCP into the runtime, and frames dropped by
  /// the net layer (overflow or link death).
  uint64_t messages_delivered() const;
  uint64_t frames_dropped() const;

  /// The loopback harness carrying this transport's traffic.
  net::LocalCluster* net_cluster();

 private:
  struct Impl;

  void Pump();
  void SchedulePump();

  /// Holder-side arrival of one checkpoint chunk (driver thread): audits
  /// the chunk stream, reassembles, and on completion decodes the frame
  /// and delivers it through DeliverCheckpointToHolder. A frame that fails
  /// to decode is dropped — the owner's next checkpoint supersedes it,
  /// exactly like a frame lost to a link failure.
  void DeliverChunk(const CkptChunkHeader& header, const uint8_t* data,
                    size_t n);

  /// A wire body that fails to decode after passing the net layer's
  /// crc32c is protocol divergence: drop the message, but loudly —
  /// count it and log what/why so the loss is attributable.
  void NoteWireDecodeFailure(const char* what, const Status& status);

  Cluster* cluster_;
  TcpTransportConfig config_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_TCP_TRANSPORT_H_
