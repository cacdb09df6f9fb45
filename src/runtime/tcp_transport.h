#ifndef SEEP_RUNTIME_TCP_TRANSPORT_H_
#define SEEP_RUNTIME_TCP_TRANSPORT_H_

#include <cstdint>
#include <memory>

#include "runtime/transport.h"

namespace seep::net {
class LocalCluster;
}  // namespace seep::net

namespace seep::runtime {

/// Knobs for the TCP transport backend.
struct TcpTransportConfig {
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
  /// The only checkpoint sender that produces bytes: encodes
  /// `owner | holder | checkpoint` straight into the body of one kCheckpoint
  /// message. The wire envelope's crc32c and frame-size cap cover it; no
  /// compression, because loopback bandwidth is not worth the CPU.
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
