#ifndef SEEP_SERDE_CRC32C_H_
#define SEEP_SERDE_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace seep::serde {

/// CRC-32C (Castagnoli) over `n` bytes, starting from `init` (pass the
/// previous value to extend a running checksum). Portable software
/// implementation, slicing-by-8; used to frame wire messages, checkpoints
/// and durable log records and detect corruption.
uint32_t Crc32c(const void* data, size_t n, uint32_t init = 0);

}  // namespace seep::serde

#endif  // SEEP_SERDE_CRC32C_H_
