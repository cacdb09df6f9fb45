#ifndef SEEP_RUNTIME_CHECKPOINT_PLANE_H_
#define SEEP_RUNTIME_CHECKPOINT_PLANE_H_

#include <map>

#include "common/ids.h"
#include "common/sync.h"
#include "core/state.h"

namespace seep::runtime {

class Cluster;
class OperatorInstance;

/// The checkpoint schedule and snapshot logic of one operator instance:
/// periodic full/delta checkpoints, suspension during scale-out, and the
/// sequence/shipped-buffer bookkeeping that decides when an incremental
/// checkpoint is admissible (paper §3.2 and Algorithm 1).
class CheckpointPlane {
 public:
  CheckpointPlane(Cluster* cluster, OperatorInstance* instance)
      : cluster_(cluster), inst_(instance) {}

  /// Begins the periodic checkpoint timer (R+SM mode, inner operators).
  void StartSchedule() SEEP_RUN_ON(sync::DriverThread);

  /// Freezes the schedule while the scale-out coordinator is partitioning
  /// this instance's backed-up state: a fresher checkpoint landing
  /// mid-operation would trim upstream buffers past the restore point. (The
  /// paper's Algorithm 3 likewise never asks the overloaded operator to
  /// checkpoint during its own scale out.) Suspension also aborts a
  /// checkpoint captured before it that has not shipped yet.
  void Suspend() SEEP_RUN_ON(sync::DriverThread);
  void Resume() SEEP_RUN_ON(sync::DriverThread);
  bool suspended() const SEEP_RUN_ON(sync::DriverThread) {
    return suspended_;
  }

  /// checkpoint-state(o) → (θo, τo, βo): snapshots the processing state,
  /// positions and replay buffer. A full capture copies the whole live
  /// buffer; a delta (`delta`, which requires the operator's
  /// SupportsIncrementalState()) carries only the state entries changed
  /// since the previous checkpoint, the buffer tuples not yet shipped, and
  /// the buffer fronts so the holder can mirror trims. Advances the
  /// sequence/shipped-buffer lineage either way.
  core::StateCheckpoint Capture(bool delta) SEEP_RUN_ON(sync::DriverThread);

  /// The checkpoint job's processing pause for `ckpt`, µs on the reference
  /// core. Synchronous and asynchronous checkpoints differ only in where
  /// the modeled serialization cost goes: into this pause (sync), or into a
  /// delay before shipping (async, whose pause is the cheap capture).
  double PauseCostMicros(const core::StateCheckpoint& ckpt) const;

  /// Sends a captured checkpoint on its way once the checkpoint job's
  /// pause ends: straight away when synchronous, after the serialization
  /// delay when asynchronous. The abort rule (AbortIfOwnerGone) and holder
  /// choice happen in ShipCheckpoint (backup_protocol.h); an asynchronous
  /// checkpoint is also checked before its delay starts.
  void Ship(core::StateCheckpoint ckpt) SEEP_RUN_ON(sync::DriverThread);

  /// Whether the next periodic checkpoint may be shipped as a delta
  /// (incremental mode on, operator supports it, a full base is stored at
  /// the holder Algorithm 1 currently selects, and no full resync is due).
  bool CanCheckpointIncrementally() const SEEP_RUN_ON(sync::DriverThread);

  /// Continues the checkpoint lineage of a restored checkpoint: the restored
  /// state equals the stored base of its sequence number, so subsequent
  /// delta checkpoints apply cleanly on top of it.
  void OnRestore(const core::StateCheckpoint& checkpoint)
      SEEP_RUN_ON(sync::DriverThread);

  /// Forgets all lineage (ResetEmpty).
  void Reset() SEEP_RUN_ON(sync::DriverThread);

 private:
  void ScheduleTimer() SEEP_RUN_ON(sync::DriverThread);
  double SerializeCostMicros(const core::StateCheckpoint& ckpt) const;
  core::StateCheckpoint CaptureFull() SEEP_RUN_ON(sync::DriverThread);
  core::StateCheckpoint CaptureDelta() SEEP_RUN_ON(sync::DriverThread);

  Cluster* cluster_;
  OperatorInstance* inst_;
  bool suspended_ SEEP_GUARDED_BY(sync::DriverThread) = false;
  uint64_t ckpt_seq_ SEEP_GUARDED_BY(sync::DriverThread) = 0;
  // Highest buffered timestamp shipped per downstream op (delta checkpoint
  // bookkeeping).
  std::map<OperatorId, int64_t> shipped_buffer_back_
      SEEP_GUARDED_BY(sync::DriverThread);
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_CHECKPOINT_PLANE_H_
