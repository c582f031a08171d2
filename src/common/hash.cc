#include "common/hash.h"

namespace dssp {

namespace {

inline uint64_t Rotl(uint64_t x, int b) { return (x << b) | (x >> (64 - b)); }

inline void SipRound(uint64_t& v0, uint64_t& v1, uint64_t& v2, uint64_t& v3) {
  v0 += v1;
  v1 = Rotl(v1, 13);
  v1 ^= v0;
  v0 = Rotl(v0, 32);
  v2 += v3;
  v3 = Rotl(v3, 16);
  v3 ^= v2;
  v0 += v3;
  v3 = Rotl(v3, 21);
  v3 ^= v0;
  v2 += v1;
  v1 = Rotl(v1, 17);
  v1 ^= v2;
  v2 = Rotl(v2, 32);
}

inline uint64_t ReadLe64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // Little-endian host assumed (x86-64 / aarch64 Linux).
}

}  // namespace

uint64_t SipHash24(uint64_t k0, uint64_t k1, std::string_view data) {
  uint64_t v0 = 0x736f6d6570736575ULL ^ k0;
  uint64_t v1 = 0x646f72616e646f6dULL ^ k1;
  uint64_t v2 = 0x6c7967656e657261ULL ^ k0;
  uint64_t v3 = 0x7465646279746573ULL ^ k1;

  const unsigned char* in =
      reinterpret_cast<const unsigned char*>(data.data());
  const size_t len = data.size();
  const size_t end = len - (len % 8);

  for (size_t i = 0; i < end; i += 8) {
    const uint64_t m = ReadLe64(in + i);
    v3 ^= m;
    SipRound(v0, v1, v2, v3);
    SipRound(v0, v1, v2, v3);
    v0 ^= m;
  }

  uint64_t b = static_cast<uint64_t>(len) << 56;
  switch (len & 7) {
    case 7:
      b |= static_cast<uint64_t>(in[end + 6]) << 48;
      [[fallthrough]];
    case 6:
      b |= static_cast<uint64_t>(in[end + 5]) << 40;
      [[fallthrough]];
    case 5:
      b |= static_cast<uint64_t>(in[end + 4]) << 32;
      [[fallthrough]];
    case 4:
      b |= static_cast<uint64_t>(in[end + 3]) << 24;
      [[fallthrough]];
    case 3:
      b |= static_cast<uint64_t>(in[end + 2]) << 16;
      [[fallthrough]];
    case 2:
      b |= static_cast<uint64_t>(in[end + 1]) << 8;
      [[fallthrough]];
    case 1:
      b |= static_cast<uint64_t>(in[end + 0]);
      break;
    case 0:
      break;
  }

  v3 ^= b;
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  v0 ^= b;

  v2 ^= 0xff;
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);

  return v0 ^ v1 ^ v2 ^ v3;
}

namespace {

// SipHash24 of one 8-byte message, unrolled for that length: one
// compression block, the length-only final block (8 << 56), finalization.
inline uint64_t SipHash24Word(uint64_t k0, uint64_t k1, uint64_t m) {
  constexpr uint64_t kFinalBlock = uint64_t{8} << 56;
  uint64_t v0 = 0x736f6d6570736575ULL ^ k0;
  uint64_t v1 = 0x646f72616e646f6dULL ^ k1;
  uint64_t v2 = 0x6c7967656e657261ULL ^ k0;
  uint64_t v3 = 0x7465646279746573ULL ^ k1 ^ m;
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  v0 ^= m;
  v3 ^= kFinalBlock;
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  v0 ^= kFinalBlock;
  v2 ^= 0xff;
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  SipRound(v0, v1, v2, v3);
  return v0 ^ v1 ^ v2 ^ v3;
}

}  // namespace

void SipHash24Words4(uint64_t k0, uint64_t k1, const uint64_t words[4],
                     uint64_t out[4]) {
  // Four independent dependency chains, which the CPU overlaps.
  out[0] = SipHash24Word(k0, k1, words[0]);
  out[1] = SipHash24Word(k0, k1, words[1]);
  out[2] = SipHash24Word(k0, k1, words[2]);
  out[3] = SipHash24Word(k0, k1, words[3]);
}

}  // namespace dssp
