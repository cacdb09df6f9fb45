#include "runtime/backup_protocol.h"

#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/sync.h"
#include "core/state_ops.h"
#include "runtime/cluster.h"
#include "runtime/operator_instance.h"

namespace seep::runtime {

InstanceId ChooseBackupHolder(const Cluster* cluster,
                              const OperatorInstance* owner) {
  const std::vector<InstanceId> upstream =
      cluster->membership()->UpstreamInstancesOf(owner->op());
  if (upstream.empty()) return kInvalidInstance;
  return cluster->config().spread_backups
             ? core::ChooseBackupInstance(owner->id(), upstream)
             : upstream.front();
}

bool AbortIfOwnerGone(Cluster* cluster, InstanceId owner_id, uint64_t seq) {
  SEEP_ASSERT_RUN_ON(sync::DriverThread);
  const OperatorInstance* owner = cluster->GetInstance(owner_id);
  if (owner != nullptr && owner->alive() && !owner->stopped() &&
      !owner->checkpoints_suspended()) {
    return false;
  }
  ++cluster->metrics()->async_ckpts_aborted;
  if (auto* audit = cluster->audit()) {
    audit->OnAsyncCheckpointAborted(owner_id, seq);
  }
  return true;
}

void ShipCheckpoint(Cluster* cluster, InstanceId owner_id,
                    core::StateCheckpoint ckpt) {
  SEEP_ASSERT_RUN_ON(sync::DriverThread);
  if (AbortIfOwnerGone(cluster, owner_id, ckpt.seq)) return;
  OperatorInstance* owner = cluster->GetInstance(owner_id);
  // Algorithm 1 line 2: spread backup load over upstream instances by hash
  // (unless disabled for the ablation baseline), chosen at ship time.
  const InstanceId holder_id = ChooseBackupHolder(cluster, owner);
  if (holder_id == kInvalidInstance) return;  // no live upstream
  const OperatorInstance* holder = cluster->GetInstance(holder_id);
  SEEP_CHECK(holder != nullptr);
  CheckpointRoute route;
  route.owner = owner_id;
  route.owner_vm = owner->vm();
  route.holder = holder_id;
  route.holder_vm = holder->vm();
  cluster->transport()->SendCheckpoint(route, std::move(ckpt));
}

void DeliverCheckpointToHolder(Cluster* cluster, InstanceId owner_id,
                               InstanceId holder_id,
                               core::StateCheckpoint ckpt) {
  SEEP_ASSERT_RUN_ON(sync::DriverThread);
  Membership* members = cluster->membership();
  MetricsRegistry* metrics = cluster->metrics();
  const OperatorId owner_op = ckpt.op;
  const uint64_t bytes = ckpt.ByteSize();
  const SimTime taken_at = ckpt.taken_at;
  OperatorInstance* h = members->GetInstance(holder_id);
  if (h == nullptr || !h->alive() || h->stopped()) return;
  OperatorInstance* o = members->GetInstance(owner_id);
  if (o == nullptr || !o->alive()) return;  // owner died meanwhile
  // A checkpoint caught in flight when the scale-out coordinator suspended
  // the owner must not land: the coordinator already retrieved the older
  // backup as the restore point, and this checkpoint's trim
  // acknowledgements would drop upstream tuples that restore point still
  // needs replayed.
  if (o->checkpoints_suspended()) return;

  // Algorithm 1 lines 3/5-7: store (or apply a delta onto the held base),
  // superseding any previous holder.
  const core::InputPositions positions = ckpt.positions;
  uint64_t stored_seq = 0;
  if (ckpt.is_delta) {
    BackupStore::Entry* entry = cluster->backups()->Mutable(owner_id);
    if (entry == nullptr || entry->holder != holder_id) {
      ++metrics->delta_apply_failures;
      return;  // base missing or moved; the next full resyncs
    }
    // Applied in place on the stored base: ApplyDelta validates before
    // mutating, so a rejected delta leaves the older consistent base.
    const Status applied = core::ApplyDelta(&entry->checkpoint, ckpt);
    if (!applied.ok()) {
      ++metrics->delta_apply_failures;
      return;  // out-of-order delta; keep the older consistent base
    }
    stored_seq = entry->checkpoint.seq;
    // The in-place mutation bypassed Store; re-append so the durable tier
    // catches up with the folded base (no-op in kMemory mode). The
    // in-memory copy stays canonical, so a refresh failure degrades
    // durability (counted) without blocking the ack below.
    const Status refreshed = cluster->backups()->RefreshDurable(owner_id);
    if (!refreshed.ok()) ++metrics->ckpt_store_failures;
  } else {
    // Background checkpoint shipments to different holders can arrive out
    // of order; a stale one must never supersede a fresher stored
    // checkpoint whose higher positions were already acknowledged upstream
    // (recovery from the stale one would need trimmed tuples). LatestSeq
    // consults every tier, so the guard also holds under kDisk where no
    // in-memory entry exists.
    const auto existing = cluster->backups()->LatestSeq(owner_id);
    if (existing.has_value() && *existing >= ckpt.seq) {
      return;
    }
    stored_seq = ckpt.seq;
    const Status stored =
        cluster->backups()->Store(owner_id, holder_id, std::move(ckpt));
    if (!stored.ok()) {
      // Nothing holds this checkpoint (kDisk append failed). Firing the
      // trim acks below would let upstream buffers drop tuples the
      // (nonexistent) backup cannot replay — the exact lost-window bug
      // the unchecked-status rule guards. Skip the stored event and the
      // acks; the owner's next checkpoint retries the append.
      ++metrics->ckpt_store_failures;
      return;
    }
  }
  if (auto* audit = cluster->audit()) {
    audit->OnCheckpointStored(owner_id, o->vm(), holder_id, h->vm(),
                              stored_seq);
  }
  metrics->checkpoints_taken++;
  metrics->checkpoint_bytes += bytes;
  // Capture-to-stored latency of the whole pipeline (sampling only; no
  // effect on simulated behaviour).
  metrics->ckpt_e2e_ms.Add(SimToMillis(cluster->Now() - taken_at));

  // Algorithm 1 line 4: acknowledge the checkpointed positions to all
  // upstream instances so they can trim their output buffers.
  for (OperatorId up_op : cluster->graph()->Upstream(owner_op)) {
    for (InstanceId uid : members->LiveInstancesOf(up_op)) {
      OperatorInstance* u = members->GetInstance(uid);
      u->OnTrimAck(owner_op, owner_id, positions.Get(u->origin()));
    }
  }
}

}  // namespace seep::runtime
