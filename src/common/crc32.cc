#include "common/crc32.h"

#include <array>
#include <cstring>

namespace qf {
namespace {

// Slice-by-four tables: table[0] is the classic byte-at-a-time CRC-32
// table; table[1..3] extend it so the hot loop folds four bytes per step.
struct CrcTables {
  std::array<std::array<uint32_t, 256>, 4> t;
};

const CrcTables& Tables() {
  static const CrcTables tables = [] {
    CrcTables out;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c >> 1) ^ ((c & 1) ? 0xEDB88320u : 0);
      }
      out.t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      out.t[1][i] = (out.t[0][i] >> 8) ^ out.t[0][out.t[0][i] & 0xFF];
      out.t[2][i] = (out.t[1][i] >> 8) ^ out.t[0][out.t[1][i] & 0xFF];
      out.t[3][i] = (out.t[2][i] >> 8) ^ out.t[0][out.t[2][i] & 0xFF];
    }
    return out;
  }();
  return tables;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const CrcTables& tab = Tables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  while (len >= 4) {
    uint32_t word;
    std::memcpy(&word, p, 4);
    word ^= crc;
    crc = tab.t[3][word & 0xFF] ^ tab.t[2][(word >> 8) & 0xFF] ^
          tab.t[1][(word >> 16) & 0xFF] ^ tab.t[0][word >> 24];
    p += 4;
    len -= 4;
  }
  while (len-- > 0) {
    crc = (crc >> 8) ^ tab.t[0][(crc ^ *p++) & 0xFF];
  }
  return ~crc;
}

std::vector<uint8_t> WrapCrc(std::vector<uint8_t> payload) {
  const uint32_t crc = Crc32(payload.data(), payload.size());
  std::vector<uint8_t> out;
  out.reserve(payload.size() + 8);
  const uint32_t magic = kCrcEnvelopeMagic;
  const uint8_t* m = reinterpret_cast<const uint8_t*>(&magic);
  const uint8_t* c = reinterpret_cast<const uint8_t*>(&crc);
  out.insert(out.end(), m, m + 4);
  out.insert(out.end(), c, c + 4);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

CrcStatus UnwrapCrc(const uint8_t* data, size_t size,
                    const uint8_t** payload, size_t* payload_size) {
  *payload = nullptr;
  *payload_size = 0;
  uint32_t magic = 0;
  if (size >= 4) std::memcpy(&magic, data, 4);
  if (size < 8 || magic != kCrcEnvelopeMagic) return CrcStatus::kCorrupt;
  uint32_t expected = 0;
  std::memcpy(&expected, data + 4, 4);
  if (Crc32(data + 8, size - 8) != expected) return CrcStatus::kCorrupt;
  *payload = data + 8;
  *payload_size = size - 8;
  return CrcStatus::kOk;
}

}  // namespace qf
