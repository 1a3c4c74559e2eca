// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) and the checkpoint
// integrity envelope built on it.
//
// Checkpoints were originally raw "QFS2"/"QSH2" frames with no integrity
// check — fine for same-process restore, but the network serving layer
// (src/net/) ships them over TCP via CONTROL frames, where a truncated or
// bit-flipped blob must be detected before RestoreState interprets it.
// WrapCrc prepends a fixed-size envelope:
//
//   [u32 kCrcEnvelopeMagic "QFCK"] [u32 crc32(payload)] [payload...]
//
// UnwrapCrc recognizes two cases:
//   * enveloped, CRC matches   -> kOk, *payload points at the inner frame
//   * anything else            -> kCorrupt (reject): a CRC mismatch, a
//     truncated envelope, or no envelope at all
//
// A blob without the envelope fails closed. Every checkpoint written since
// the envelope exists carries it, and every older one predates key-mapping
// scheme 3 and is rejected by the scheme check anyway, so the only blobs a
// CRC-less path could still admit are stripped, unverified bytes.

#ifndef QUANTILEFILTER_COMMON_CRC32_H_
#define QUANTILEFILTER_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qf {

/// CRC-32 of `data`. `seed` is the running CRC for incremental use: pass the
/// previous return value to continue a checksum across buffers.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

inline uint32_t Crc32(const std::vector<uint8_t>& bytes, uint32_t seed = 0) {
  return Crc32(bytes.data(), bytes.size(), seed);
}

/// First word of a CRC-wrapped checkpoint ("QFCK", little-endian).
inline constexpr uint32_t kCrcEnvelopeMagic = 0x4B434651;

/// Result of UnwrapCrc.
enum class CrcStatus {
  kOk,       // envelope present, CRC verified
  kCorrupt,  // no envelope, truncated envelope, or CRC mismatch
};

/// Wraps `payload` in the CRC envelope (by value; the common producer call
/// is WrapCrc(SerializeState())).
std::vector<uint8_t> WrapCrc(std::vector<uint8_t> payload);

/// Classifies `data` and locates the inner payload. On kOk the outputs
/// reference the bytes after the envelope; on kCorrupt they are null/0.
CrcStatus UnwrapCrc(const uint8_t* data, size_t size,
                    const uint8_t** payload, size_t* payload_size);

inline CrcStatus UnwrapCrc(const std::vector<uint8_t>& bytes,
                           const uint8_t** payload, size_t* payload_size) {
  return UnwrapCrc(bytes.data(), bytes.size(), payload, payload_size);
}

}  // namespace qf

#endif  // QUANTILEFILTER_COMMON_CRC32_H_
