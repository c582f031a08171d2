#ifndef DSSP_COMMON_HASH_H_
#define DSSP_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace dssp {

// SipHash-2-4 keyed pseudo-random function (Aumasson & Bernstein).
// Used for hash indexes, cache-key digests, and as the round function of the
// deterministic cipher in crypto/. Deterministic for a fixed key.
uint64_t SipHash24(uint64_t k0, uint64_t k1, std::string_view data);

// SipHash-2-4 of four 8-byte messages under one key: out[i] equals
// SipHash24(k0, k1, <the 8 little-endian bytes of words[i]>). Unrolled for
// the fixed length; the four lanes are independent, so they overlap in the
// pipeline. The deterministic cipher's counter-mode keystream uses it.
void SipHash24Words4(uint64_t k0, uint64_t k1, const uint64_t words[4],
                     uint64_t out[4]);

// Unkeyed convenience hash for in-process hash tables.
inline uint64_t Hash64(std::string_view data) {
  return SipHash24(0x736f6d6570736575ULL, 0x646f72616e646f6dULL, data);
}

// Combines two 64-bit hashes (boost-style).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

}  // namespace dssp

#endif  // DSSP_COMMON_HASH_H_
