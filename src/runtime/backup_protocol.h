#ifndef SEEP_RUNTIME_BACKUP_PROTOCOL_H_
#define SEEP_RUNTIME_BACKUP_PROTOCOL_H_

#include <cstdint>

#include "common/ids.h"
#include "core/state.h"

namespace seep::runtime {

class Cluster;
class OperatorInstance;

/// Algorithm 1 backup-state as one backend-independent path. The owner's
/// checkpoint plane calls ShipCheckpoint once the checkpoint is ready to
/// leave (at the end of the pause when synchronous, after the modeled
/// serialization delay when asynchronous); the transport carries it to the
/// holder however its wire works; the holder side runs
/// DeliverCheckpointToHolder on arrival. Holder choice, the ship-time abort
/// and the store/ack therefore exist exactly once, so the sim and TCP
/// backends cannot drift apart on protocol.

/// Algorithm 1 line 2: the holder for `owner`'s checkpoints — spread over
/// the live upstream instances by hash (or the first one, for the ablation
/// baseline); kInvalidInstance when no upstream is live. Owners also use
/// this to decide whether an incremental checkpoint can target the same
/// holder as the stored base.
InstanceId ChooseBackupHolder(const Cluster* cluster,
                              const OperatorInstance* owner);

/// The ship-time abort rule, on the owner's side: true (after counting the
/// abort and telling the auditor) when the owner died, stopped or was
/// suspended since the capture of checkpoint `seq`. Suspension case: the
/// coordinator already chose an older backup as its restore point, and
/// this checkpoint's trim acks would drop tuples that point still needs.
/// An aborted sequence number is simply skipped: the holder's stored seq
/// then trails the owner's, which forces the next checkpoint to be a full
/// resync. Asynchronous checkpoints apply it twice, when the pause ends and
/// again when serialization ends, so a suspend-and-resume inside the
/// serialization delay cannot let a pre-suspension snapshot through.
bool AbortIfOwnerGone(Cluster* cluster, InstanceId owner_id, uint64_t seq);

/// Ship time, on the owner's side: applies AbortIfOwnerGone, then chooses
/// the holder now and hands the checkpoint to the transport.
void ShipCheckpoint(Cluster* cluster, InstanceId owner_id,
                    core::StateCheckpoint ckpt);

/// Algorithm 1 lines 3-7 on the holder's side, run when a shipped checkpoint
/// arrives: validity/suspension guards, store (or delta-apply onto the held
/// base) with the stale-sequence guard, audit hook, metrics, and the trim
/// acknowledgements to the owner's upstream instances.
void DeliverCheckpointToHolder(Cluster* cluster, InstanceId owner_id,
                               InstanceId holder_id,
                               core::StateCheckpoint ckpt);

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_BACKUP_PROTOCOL_H_
