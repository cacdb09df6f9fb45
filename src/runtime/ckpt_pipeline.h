#ifndef SEEP_RUNTIME_CKPT_PIPELINE_H_
#define SEEP_RUNTIME_CKPT_PIPELINE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "core/state.h"
#include "serde/decoder.h"
#include "serde/encoder.h"

namespace seep::runtime {

/// The checkpoint frame codec and the chunk stream that carries frames over
/// a real wire. A checkpoint travels as a `core::StateCheckpoint` object
/// everywhere except where it crosses a socket (TcpTransport) or reaches
/// disk (the durable tier of BackupStore); those two places, and only
/// those, turn it into bytes — both through CkptSerializer::BuildFrame, so
/// the log and the wire hold byte-compatible frames. This header is
/// Transport- and net-free by design (lint rule ckpt-worker-no-net).

/// One serialized checkpoint frame — [length | crc32c | payload] where the
/// payload is the encoded checkpoint, block-compressed when that made it
/// smaller.
struct SerializedCkptFrame {
  InstanceId owner = kInvalidInstance;
  OperatorId owner_op = 0;
  uint64_t seq = 0;
  uint64_t raw_bytes = 0;  // encoded payload size before compression
  bool compressed = false;
  std::vector<uint8_t> frame;
};

/// The checkpoint frame codec: serialize + compress + crc32c frame, and its
/// inverse. Stateless; the modeled CPU cost of serialization is charged in
/// simulated time by the checkpoint plane, not here.
class CkptSerializer {
 public:
  struct Job {
    InstanceId owner = kInvalidInstance;
    OperatorId owner_op = 0;
    uint64_t seq = 0;
    core::StateCheckpoint snapshot;
  };

  /// Encodes with an exact reserve, block-compresses when `compress` is set
  /// and that makes the payload smaller, and frames with crc32c.
  static SerializedCkptFrame BuildFrame(const Job& job, bool compress);

  /// Inverse of BuildFrame: unframe (crc32c), decompress when `compressed`,
  /// decode. Any malformed input is a non-OK status, never a crash.
  [[nodiscard]] static Result<core::StateCheckpoint> DecodeFrame(
      const std::vector<uint8_t>& frame, uint64_t raw_bytes, bool compressed);
};

/// The per-chunk header travelling with each slice of a serialized frame on
/// the wire. Chunks of one (owner, seq) stream arrive in order on their
/// FIFO link; `index`/`count` let the holder detect loss or interleaving
/// corruption, and `raw_bytes`/`compressed` parameterize decompression.
struct CkptChunkHeader {
  InstanceId owner = kInvalidInstance;
  OperatorId owner_op = 0;
  InstanceId holder = kInvalidInstance;
  uint64_t seq = 0;
  uint32_t index = 0;
  uint32_t count = 0;
  uint64_t frame_bytes = 0;  // total size of the reassembled frame
  uint64_t raw_bytes = 0;    // payload size before compression
  bool compressed = false;
};

void EncodeChunkHeader(const CkptChunkHeader& h, serde::Encoder* enc);
[[nodiscard]] Result<CkptChunkHeader> DecodeChunkHeader(serde::Decoder* dec);

/// Holder-side reassembly of chunked checkpoint frames, keyed by
/// (owner, seq, holder). Returns the whole frame when the last chunk lands.
/// Malformed streams (index gap, byte overflow, absurd declared size) are
/// dropped wholesale — the owner's next checkpoint supersedes them, exactly
/// like a frame lost to a link failure.
class CkptChunkReassembler {
 public:
  std::optional<std::vector<uint8_t>> OnChunk(const CkptChunkHeader& h,
                                              const uint8_t* data, size_t n);

  /// Drops partial streams of `owner` at or below `seq` (a stored
  /// checkpoint supersedes everything it outranks).
  void ForgetThrough(InstanceId owner, uint64_t seq);

  /// Drops every partial stream of `owner`, at any seq — the backup-delete
  /// path (Cluster::DeleteBackup), where a late-finishing stream must not
  /// resurrect a tombstoned instance.
  void ForgetOwner(InstanceId owner);

  size_t pending_streams() const { return pending_.size(); }

 private:
  struct Pending {
    uint32_t next_index = 0;
    uint32_t count = 0;
    uint64_t frame_bytes = 0;
    std::vector<uint8_t> frame;
  };
  // owner, seq, holder
  using Key = std::tuple<InstanceId, uint64_t, InstanceId>;
  std::map<Key, Pending> pending_;
};

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_CKPT_PIPELINE_H_
