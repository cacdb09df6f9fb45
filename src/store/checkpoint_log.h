#ifndef SEEP_STORE_CHECKPOINT_LOG_H_
#define SEEP_STORE_CHECKPOINT_LOG_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/sync.h"
#include "serde/frame.h"
#include "store/log_format.h"
#include "store/store_metrics.h"

namespace seep::store {

/// When appended records reach the disk platter.
enum class FsyncPolicy : uint8_t {
  kAlways,      // fdatasync after every append
  kIntervalMs,  // fdatasync on the first append after the interval elapses
  kNever,       // the OS page cache decides (plus explicit Flush calls)
};

struct CheckpointLogConfig {
  /// Directory holding the segment files; created if missing.
  std::string directory;
  FsyncPolicy fsync = FsyncPolicy::kIntervalMs;
  uint64_t fsync_interval_ms = 50;
  /// A segment holding at least one record seals once it grows past this.
  uint64_t segment_bytes = 8ull << 20;
  /// Compaction runs when sealed segments hold at least this many dead
  /// bytes AND the dead fraction of sealed bytes reaches the ratio.
  uint64_t compact_min_bytes = 1ull << 20;
  double compact_min_dead_ratio = 0.5;
  /// Off: compaction only runs via CompactNow (deterministic tests).
  bool background_compaction = true;
  /// Ceiling on one record's checkpoint payload, pre-allocation-checked.
  uint64_t max_payload = serde::kDefaultMaxFramePayload;
};

/// What the startup recovery scan found and repaired.
struct RecoveryInfo {
  uint64_t segments_scanned = 0;
  uint64_t records_scanned = 0;  // intact records replayed into the index
  uint64_t live_records = 0;     // owners with a live checkpoint after replay
  uint64_t torn_bytes = 0;       // truncated from torn tails
  bool torn = false;
  std::string torn_detail;
};

/// A segmented, append-only, crc32c-framed checkpoint log with an in-memory
/// index: the durable backend behind the BackupStore seam.
///
/// Records are (meta frame, payload) pairs where the payload is the
/// checkpoint's own [length | crc32c | payload] frame written verbatim — the
/// frame BackupStore builds is appended without re-encoding, and
/// ReadPayload returns exactly those bytes for the normal unframe +
/// decompress + decode receive path. A tombstone record terminally deletes
/// its owner (instance ids are never reused). The latest intact checkpoint
/// record per non-tombstoned owner wins, independent of segment order, so
/// compaction can rewrite survivors into fresh segments without ordering
/// constraints.
///
/// Crash consistency: Open scans every segment front to back, verifying
/// both the meta frame and the payload frame crc32c of each record, and
/// truncates a segment at the first bad frame — a torn tail can only drop
/// the newest records, never resurrect superseded ones, because replay
/// consumes only the intact prefix.
///
/// Threading: the driver thread appends and reads under `mu_`; one
/// background compactor thread (sync.h discipline, StoreCompactorThread
/// role) rewrites sealed segments, holding `mu_` only to snapshot survivors
/// and to install the swap. `mu_` is a leaf in tools/lock_order.json.
class CheckpointLog {
 public:
  [[nodiscard]] static Result<std::unique_ptr<CheckpointLog>> Open(
      CheckpointLogConfig config);
  ~CheckpointLog();

  CheckpointLog(const CheckpointLog&) = delete;
  CheckpointLog& operator=(const CheckpointLog&) = delete;

  /// Appends a checkpoint record. `meta.payload_bytes` is derived from `n`;
  /// `payload` must be the checkpoint's framed bytes. Fails with
  /// FailedPrecondition for a tombstoned owner.
  [[nodiscard]]
  Status Append(RecordMeta meta, const uint8_t* payload, size_t n);

  /// Appends a tombstone, terminally deleting `owner`. Idempotent.
  [[nodiscard]] Status AppendTombstone(InstanceId owner);

  /// Reads back the framed payload of `owner`'s live checkpoint.
  [[nodiscard]]
  Result<std::vector<uint8_t>> ReadPayload(InstanceId owner) const;

  /// Index lookup: the live checkpoint's meta, or nullopt.
  std::optional<RecordMeta> Find(InstanceId owner) const;
  bool Has(InstanceId owner) const;

  /// Metas of every live (non-tombstoned) checkpoint, owner-ordered.
  std::vector<RecordMeta> LiveRecords() const;

  /// Forces an fdatasync of the active segment regardless of policy.
  [[nodiscard]] Status Flush();

  /// Runs one synchronous compaction pass over the sealed segments (no-op
  /// when none are sealed). Tests and benches call this for determinism.
  [[nodiscard]] Status CompactNow();

  /// Full cross-check: rescans the segment files and verifies the replayed
  /// state matches the in-memory index exactly. Expensive; tests only.
  [[nodiscard]] Status VerifyIndex() const;

  /// Cheap per-operation check (audit level 2): re-reads `owner`'s meta
  /// frame from disk and compares it against the index entry.
  [[nodiscard]] Status SpotCheck(InstanceId owner) const;

  const StoreMetrics& metrics() const { return metrics_; }
  const RecoveryInfo& recovery_info() const { return recovery_info_; }
  const CheckpointLogConfig& config() const { return config_; }

  size_t segment_count() const;
  uint64_t total_bytes() const;
  uint64_t live_bytes() const;
  [[nodiscard]] Status last_compaction_error() const;

 private:
  struct IndexEntry {
    RecordMeta meta;
    uint32_t segment = 0;
    uint64_t record_offset = 0;
    uint64_t payload_offset = 0;
    uint64_t record_bytes = 0;  // meta frame + payload
  };
  struct Segment {
    std::string path;
    int fd = -1;
    uint64_t bytes = 0;
    uint64_t live = 0;
    bool sealed = false;
  };
  /// A record carried forward by one compaction pass.
  struct Survivor {
    InstanceId owner = kInvalidInstance;
    bool tombstone = false;
    IndexEntry entry;
  };

  explicit CheckpointLog(CheckpointLogConfig config);

  [[nodiscard]] Status Recover();
  [[nodiscard]]
  Status AppendRecordLocked(const RecordMeta& meta, const uint8_t* payload,
                            size_t n, IndexEntry* out) SEEP_REQUIRES(mu_);
  [[nodiscard]] Status RollSegmentLocked() SEEP_REQUIRES(mu_);
  [[nodiscard]] Status CreateSegmentLocked(uint32_t id) SEEP_REQUIRES(mu_);
  [[nodiscard]] Status MaybeFsyncLocked(bool force) SEEP_REQUIRES(mu_);
  bool CompactionNeededLocked() const SEEP_REQUIRES(mu_);
  /// Returns true when a synchronous caller should run CompactOnce after
  /// releasing mu_ (background mode signals the compactor instead).
  bool SignalCompactionLocked() SEEP_REQUIRES(mu_);
  [[nodiscard]] Status CompactOnce();
  void CompactorLoop();
  [[nodiscard]] Status VerifyIndexLocked() const SEEP_REQUIRES(mu_);

  const CheckpointLogConfig config_;
  mutable StoreMetrics metrics_ SEEP_UNGUARDED("all counters are std::atomic");
  RecoveryInfo recovery_info_
      SEEP_UNGUARDED("written once by Open's recovery scan before the "
                     "compactor thread exists; read-only after");

  mutable sync::Mutex mu_;
  sync::CondVar compaction_cv_;
  std::map<InstanceId, IndexEntry> index_ SEEP_GUARDED_BY(mu_);
  std::map<InstanceId, IndexEntry> tombstones_ SEEP_GUARDED_BY(mu_);
  std::map<uint32_t, Segment> segments_ SEEP_GUARDED_BY(mu_);
  uint32_t active_id_ SEEP_GUARDED_BY(mu_) = 0;
  uint32_t next_segment_id_ SEEP_GUARDED_BY(mu_) = 1;
  std::chrono::steady_clock::time_point last_fsync_ SEEP_GUARDED_BY(mu_);
  bool dirty_since_fsync_ SEEP_GUARDED_BY(mu_) = false;
  bool stop_ SEEP_GUARDED_BY(mu_) = false;
  bool compaction_requested_ SEEP_GUARDED_BY(mu_) = false;
  bool compaction_running_ SEEP_GUARDED_BY(mu_) = false;
  Status last_compaction_error_ SEEP_GUARDED_BY(mu_);
  std::thread compactor_
      SEEP_UNGUARDED("started at the end of Open before the log is shared; "
                     "joined by the destructor after stop_ is set under mu_");
};

}  // namespace seep::store

#endif  // SEEP_STORE_CHECKPOINT_LOG_H_
