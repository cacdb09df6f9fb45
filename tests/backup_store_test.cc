// Unit tests for the checkpoint backup directory (the paper's backup(o)
// bookkeeping: store, supersede, retrieve, and loss on holder failure).

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "runtime/backup_store.h"
#include "runtime/ckpt_pipeline.h"
#include "store/checkpoint_log.h"

namespace seep::runtime {
namespace {

core::StateCheckpoint Ckpt(InstanceId owner, uint64_t seq) {
  core::StateCheckpoint c;
  c.instance = owner;
  c.seq = seq;
  return c;
}

TEST(BackupStoreTest, StoreAndRetrieve) {
  BackupStore store;
  EXPECT_FALSE(store.Has(1));
  EXPECT_EQ(store.HolderOf(1), kInvalidInstance);
  ASSERT_TRUE(store.Store(1, 10, Ckpt(1, 5)).ok());
  ASSERT_TRUE(store.Has(1));
  auto entry = store.Retrieve(1);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->holder, 10u);
  EXPECT_EQ(entry->checkpoint.seq, 5u);
}

TEST(BackupStoreTest, NewerStoreSupersedes) {
  BackupStore store;
  ASSERT_TRUE(store.Store(1, 10, Ckpt(1, 5)).ok());
  // Algorithm 1 lines 5-6: a re-backup (possibly at another holder)
  // replaces the old copy.
  ASSERT_TRUE(store.Store(1, 11, Ckpt(1, 6)).ok());
  auto entry = store.Retrieve(1);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->holder, 11u);
  EXPECT_EQ(entry->checkpoint.seq, 6u);
}

TEST(BackupStoreTest, RetrieveMissingIsNotFound) {
  BackupStore store;
  EXPECT_TRUE(store.Retrieve(99).status().IsNotFound());
}

TEST(BackupStoreTest, DropHeldByLosesOnlyThatHoldersBackups) {
  BackupStore store;
  ASSERT_TRUE(store.Store(1, 10, Ckpt(1, 1)).ok());
  ASSERT_TRUE(store.Store(2, 10, Ckpt(2, 1)).ok());
  ASSERT_TRUE(store.Store(3, 11, Ckpt(3, 1)).ok());
  EXPECT_EQ(store.DropHeldBy(10), 2u);
  EXPECT_FALSE(store.Has(1));
  EXPECT_FALSE(store.Has(2));
  EXPECT_TRUE(store.Has(3));
}

store::CheckpointLogConfig RejectingLogConfig(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / "backup_store_test_tmp" / name;
  std::filesystem::remove_all(dir);
  store::CheckpointLogConfig config;
  config.directory = dir.string();
  config.fsync = store::FsyncPolicy::kNever;
  config.background_compaction = false;
  // Every realistic checkpoint frame exceeds this, so each durable
  // append fails deterministically (the log's malformed-append guard).
  config.max_payload = 1;
  return config;
}

TEST(BackupStoreTest, DiskModeFailedAppendStoresNothing) {
  // Regression test for the seep_analyzer unchecked-status rule: the
  // durable append's Status used to be discarded, so under kDisk a
  // failed log append still acknowledged the checkpoint upstream and
  // the trim acks retired tuples the backup could not restore. Store
  // must surface the error and hold the record in no tier.
  auto log = store::CheckpointLog::Open(RejectingLogConfig("disk_fail"));
  ASSERT_TRUE(log.ok());
  BackupStore store;
  store.AttachDurable(log->get(), BackupDurability::kDisk,
                      /*audit=*/nullptr, /*metrics=*/nullptr);
  const Status stored = store.Store(1, 10, Ckpt(1, 5));
  EXPECT_FALSE(stored.ok());
  EXPECT_FALSE(store.Has(1));
  EXPECT_TRUE(store.Retrieve(1).status().IsNotFound());
}

TEST(BackupStoreTest, TieredModeFailedAppendKeepsMemoryCopy) {
  // Under kTiered the in-memory copy is canonical: a failed durable
  // append only degrades durability, so Store reports OK and the
  // backup stays retrievable (the caller logs and counts the
  // degradation instead of refusing the ack).
  auto log = store::CheckpointLog::Open(RejectingLogConfig("tiered_fail"));
  ASSERT_TRUE(log.ok());
  BackupStore store;
  store.AttachDurable(log->get(), BackupDurability::kTiered,
                      /*audit=*/nullptr, /*metrics=*/nullptr);
  ASSERT_TRUE(store.Store(1, 10, Ckpt(1, 5)).ok());
  ASSERT_TRUE(store.Has(1));
  auto entry = store.Retrieve(1);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->checkpoint.seq, 5u);
  EXPECT_FALSE(entry->from_disk);
}

TEST(BackupStoreTest, DurableRecordIsThePipelineFrame) {
  // The durable tier frames with the same codec as the TCP wire, so the
  // bytes on disk are exactly CkptSerializer::BuildFrame's output (and a
  // replay of BuildFrame + CheckpointLog::Append times what the runtime
  // really writes). The frame-bytes metrics count that append.
  const std::filesystem::path dir = std::filesystem::current_path() /
                                    "backup_store_test_tmp" / "frame";
  std::filesystem::remove_all(dir);
  store::CheckpointLogConfig config;
  config.directory = dir.string();
  config.fsync = store::FsyncPolicy::kNever;
  config.background_compaction = false;
  auto log = store::CheckpointLog::Open(config);
  ASSERT_TRUE(log.ok());
  MetricsRegistry metrics;
  BackupStore store;
  store.AttachDurable(log->get(), BackupDurability::kDisk,
                      /*audit=*/nullptr, &metrics);

  core::StateCheckpoint ckpt = Ckpt(1, 5);
  ckpt.op = 3;
  ckpt.taken_at = 777;
  for (int i = 0; i < 100; ++i) {
    ckpt.processing.Add(100 + i, "repetitive-window-count-payload");
  }
  CkptSerializer::Job job;
  job.owner = 1;
  job.owner_op = ckpt.op;
  job.seq = ckpt.seq;
  job.snapshot = ckpt;
  const SerializedCkptFrame expected =
      CkptSerializer::BuildFrame(job, /*compress=*/true);
  ASSERT_TRUE(expected.compressed);

  ASSERT_TRUE(store.Store(1, 10, std::move(ckpt)).ok());
  auto payload = log->get()->ReadPayload(1);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload.value(), expected.frame);
  const auto meta = log->get()->Find(1);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->raw_bytes, expected.raw_bytes);
  EXPECT_TRUE(meta->compressed);
  EXPECT_EQ(metrics.ckpt_raw_bytes, expected.raw_bytes);
  EXPECT_EQ(metrics.ckpt_wire_bytes, expected.frame.size());

  // And the shared decode reads it back.
  auto entry = store.Retrieve(1);
  ASSERT_TRUE(entry.ok());
  EXPECT_TRUE(entry->from_disk);
  EXPECT_EQ(entry->checkpoint.processing.size(), 100u);
  EXPECT_EQ(entry->checkpoint.taken_at, 777);
}

TEST(BackupStoreTest, DeleteRemovesEntry) {
  BackupStore store;
  ASSERT_TRUE(store.Store(1, 10, Ckpt(1, 1)).ok());
  store.Delete(1);
  EXPECT_FALSE(store.Has(1));
  store.Delete(1);  // idempotent
}

}  // namespace
}  // namespace seep::runtime
