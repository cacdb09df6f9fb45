#ifndef SEEP_RUNTIME_TRANSPORT_H_
#define SEEP_RUNTIME_TRANSPORT_H_

#include <functional>

#include "common/ids.h"
#include "core/state.h"
#include "core/tuple.h"

namespace seep::runtime {

class Cluster;
class OperatorInstance;

/// What SendBatch reports about the sender's outbound queues. The simulated
/// backend never pushes back (the sim models links, not finite socket
/// buffers), so kNone keeps every sim run byte-identical; the TCP backend
/// reports kPressured when the sending worker's queued bytes cross its soft
/// watermark, and the sending instance throttles its job scheduler briefly
/// in response.
enum class [[nodiscard]] SendPressure : uint8_t {
  kNone = 0,
  kPressured = 1,
};

/// Where one checkpoint goes: its owner and the holder Algorithm 1 chose at
/// ship time (backup_protocol.h), with the VMs hosting both.
struct CheckpointRoute {
  InstanceId owner = kInvalidInstance;
  VmId owner_vm = kInvalidVm;
  InstanceId holder = kInvalidInstance;
  VmId holder_vm = kInvalidVm;
};

/// All inter-instance message shipping: tuple batches on the data path,
/// checkpoints on the background path, and bulk state shipping during scale
/// out / recovery. Everything an instance or coordinator sends to another
/// VM goes through this interface — a threaded or socket-based backend is a
/// drop-in replacement for the simulated one. Transports only carry; the
/// backup protocol (holder choice, abort, store, trim acks) lives in
/// backup_protocol.h, once for every backend.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Brings up / tears down the transport endpoint of a VM. Membership calls
  /// these as VMs are deployed, released and killed; after DetachVm, traffic
  /// to the VM is dead (dropped by the sim network, or met with closed
  /// sockets by the TCP backend — a dead TCP peer and a detached VM are the
  /// same event to the protocol).
  virtual void AttachVm(VmId vm) = 0;
  virtual void DetachVm(VmId vm) = 0;

  /// Ships a tuple batch from one instance to another, reporting outbound
  /// queue pressure.
  virtual SendPressure SendBatch(OperatorInstance* from, InstanceId to,
                                 core::TupleBatch batch) = 0;

  /// Carries one checkpoint along `route` as background traffic and runs
  /// DeliverCheckpointToHolder at the holder when it arrives whole. A
  /// checkpoint lost on the way (dead VM, broken link) simply never
  /// arrives; the owner's next checkpoint supersedes it.
  virtual void SendCheckpoint(const CheckpointRoute& route,
                              core::StateCheckpoint ckpt) = 0;

  /// Bulk state shipping (partitioned checkpoints during scale out /
  /// recovery): `size_bytes` from VM `from` to VM `to`, then `on_delivery`.
  virtual void ShipState(VmId from, VmId to, uint64_t size_bytes,
                         std::function<void()> on_delivery) = 0;
};

/// Transport over the deterministic `sim::Network`: batches pay the data
/// path's bandwidth/latency; a checkpoint travels as one throttled
/// background message that must not delay the data path (the paper
/// checkpoints asynchronously). Messages are objects charged their encoded
/// size, so the simulator never serializes a batch or a checkpoint.
class SimTransport : public Transport {
 public:
  explicit SimTransport(Cluster* cluster) : cluster_(cluster) {}

  void AttachVm(VmId vm) override;
  void DetachVm(VmId vm) override;
  SendPressure SendBatch(OperatorInstance* from, InstanceId to,
                         core::TupleBatch batch) override;
  void SendCheckpoint(const CheckpointRoute& route,
                      core::StateCheckpoint ckpt) override;
  void ShipState(VmId from, VmId to, uint64_t size_bytes,
                 std::function<void()> on_delivery) override;

 private:
  Cluster* cluster_;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_TRANSPORT_H_
