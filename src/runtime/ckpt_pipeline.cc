#include "runtime/ckpt_pipeline.h"

#include <utility>

#include "common/macros.h"
#include "serde/block_codec.h"
#include "serde/decoder.h"
#include "serde/encoder.h"
#include "serde/frame.h"

namespace seep::runtime {

SerializedCkptFrame CkptSerializer::BuildFrame(const Job& job, bool compress) {
  serde::Encoder enc;
  job.snapshot.Encode(&enc);  // Encode reserves EncodedSize() exactly
  std::vector<uint8_t> payload = std::move(enc).TakeBuffer();

  SerializedCkptFrame out;
  out.owner = job.owner;
  out.owner_op = job.owner_op;
  out.seq = job.seq;
  out.raw_bytes = payload.size();
  if (compress) {
    std::vector<uint8_t> packed = serde::BlockCompress(payload);
    if (packed.size() < payload.size()) {
      payload = std::move(packed);
      out.compressed = true;
    }
  }
  out.frame = serde::FramePayload(payload);
  return out;
}

[[nodiscard]] Result<core::StateCheckpoint> CkptSerializer::DecodeFrame(
    const std::vector<uint8_t>& frame, uint64_t raw_bytes, bool compressed) {
  SEEP_ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                        serde::UnframePayload(frame));
  if (compressed) {
    SEEP_ASSIGN_OR_RETURN(raw, serde::BlockDecompress(raw, raw_bytes));
  }
  serde::Decoder dec(raw);
  return core::StateCheckpoint::Decode(&dec);
}

}  // namespace seep::runtime
