#include "crypto/cipher.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/macros.h"

namespace dssp::crypto {

namespace {

constexpr uint64_t kRoundMix = 0x9e3779b97f4a7c15ULL;
constexpr int kRounds = 4;
// Inputs shorter than two bytes have no Feistel halves; they are XORed with
// a keystream under this pseudo-round and a fixed seed instead.
constexpr uint64_t kShortRound = 0xffff;

// XORs the 8-byte keystream block `block` into `out[0, n)`, n <= 8, in
// the block's little-endian byte order (the order a memcpy of the block
// gives).
void XorBlock(uint64_t block, char* out, size_t n) {
  if (n == 8) {
    uint64_t word;
    std::memcpy(&word, out, sizeof(word));
    word ^= block;
    std::memcpy(out, &word, sizeof(word));
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>(static_cast<unsigned char>(out[i]) ^
                               static_cast<unsigned char>(block >> (8 * i)));
  }
}

// XORs into `target` the keystream derived from (key, round, seed): the seed
// is compressed to a 64-bit digest once, then expanded in counter mode
// (block i = SipHash of the 8-byte counter i under the digest), so the cost
// is O(|seed| + |target|). Whole groups of four blocks come from one
// SipHash24Words4 call; the last few blocks are hashed one by one, so short
// targets compute no unused lanes. `seed` must not overlap `target`.
void XorKeystream(const Key& key, uint64_t round, std::string_view seed,
                  std::span<char> target) {
  const uint64_t k0 = key.k0 ^ (round * kRoundMix);
  const uint64_t seed_digest = SipHash24(k0, key.k1, seed);
  char* out = target.data();
  const size_t size = target.size();
  size_t pos = 0;
  uint64_t counter = 0;
  for (; size - pos >= 32; pos += 32, counter += 4) {
    const uint64_t counters[4] = {counter, counter + 1, counter + 2,
                                  counter + 3};
    uint64_t blocks[4];
    SipHash24Words4(k0, seed_digest, counters, blocks);
    for (int i = 0; i < 4; ++i) XorBlock(blocks[i], out + pos + 8 * i, 8);
  }
  for (; pos < size; pos += 8, ++counter) {
    const uint64_t block = SipHash24(
        k0, seed_digest,
        std::string_view(reinterpret_cast<const char*>(&counter),
                         sizeof(counter)));
    XorBlock(block, out + pos, std::min<size_t>(8, size - pos));
  }
}

// One Feistel round over `data` split at `half`: even rounds XOR the left
// half with F(right), odd rounds the right half with F(left). XOR is
// self-inverse, so applying a round again with the same key undoes it.
void FeistelRound(const Key& key, uint64_t round, std::span<char> data,
                  size_t half) {
  const std::span<char> left = data.first(half);
  const std::span<char> right = data.subspan(half);
  if (round % 2 == 0) {
    XorKeystream(key, round, std::string_view(right.data(), right.size()),
                 left);
  } else {
    XorKeystream(key, round, std::string_view(left.data(), left.size()),
                 right);
  }
}

}  // namespace

Key DeriveKey(const Key& master, std::string_view label) {
  Key derived;
  derived.k0 = SipHash24(master.k0, master.k1, label);
  std::string label2(label);
  label2 += "\x01";
  derived.k1 = SipHash24(master.k0, master.k1, label2);
  return derived;
}

std::string DeterministicCipher::Encrypt(std::string_view plaintext) const {
  std::string data(plaintext);
  EncryptInPlace(data);
  return data;
}

std::string DeterministicCipher::Decrypt(std::string_view ciphertext) const {
  std::string data(ciphertext);
  DecryptInPlace(data);
  return data;
}

void DeterministicCipher::EncryptInPlace(std::span<char> data) const {
  if (data.size() < 2) {
    XorKeystream(key_, kShortRound, "short", data);
    return;
  }
  const size_t half = data.size() / 2;
  for (uint64_t round = 0; round < kRounds; ++round) {
    FeistelRound(key_, round, data, half);
  }
}

void DeterministicCipher::DecryptInPlace(std::span<char> data) const {
  if (data.size() < 2) {
    XorKeystream(key_, kShortRound, "short", data);
    return;
  }
  const size_t half = data.size() / 2;
  // The rounds in reverse; each undoes itself given the same seed half.
  for (uint64_t round = kRounds; round-- > 0;) {
    FeistelRound(key_, round, data, half);
  }
}

uint64_t DeterministicCipher::Tag(std::string_view plaintext) const {
  return SipHash24(key_.k0 ^ 0x7461675f5f5f5f5fULL, key_.k1, plaintext);
}

}  // namespace dssp::crypto
