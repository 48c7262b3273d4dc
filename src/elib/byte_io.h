// Big-endian (network order) byte serialization helpers used by all packet
// header codecs.

#ifndef SRC_ELIB_BYTE_IO_H_
#define SRC_ELIB_BYTE_IO_H_

#include <cstdint>
#include <cstring>

namespace escort {

inline void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}

inline void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>((static_cast<uint16_t>(p[0]) << 8) | p[1]);
}

inline uint32_t GetU32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

// RFC 1071 internet checksum over `len` bytes, with an optional starting
// partial sum (for pseudo-headers).
uint16_t InternetChecksum(const uint8_t* data, size_t len, uint32_t initial = 0);

// Partial (un-folded) sum usable as `initial` above.
uint32_t ChecksumPartial(const uint8_t* data, size_t len, uint32_t acc = 0);

}  // namespace escort

#endif  // SRC_ELIB_BYTE_IO_H_
