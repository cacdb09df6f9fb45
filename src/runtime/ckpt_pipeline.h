#ifndef SEEP_RUNTIME_CKPT_PIPELINE_H_
#define SEEP_RUNTIME_CKPT_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "core/state.h"

namespace seep::runtime {

/// The checkpoint frame codec of the durable log. A checkpoint travels as a
/// `core::StateCheckpoint` object everywhere except where it crosses a
/// socket (TcpTransport, which encodes it straight into one wire message
/// whose envelope carries the crc32c) or reaches disk (the durable tier of
/// BackupStore, which frames it here). This header is Transport- and
/// net-free by design (lint rule ckpt-worker-no-net).

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

/// The durable record codec: serialize + compress + crc32c frame, and its
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

}  // namespace seep::runtime

#endif  // SEEP_RUNTIME_CKPT_PIPELINE_H_
