#ifndef DSSP_CRYPTO_CIPHER_H_
#define DSSP_CRYPTO_CIPHER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace dssp::crypto {

// A 128-bit symmetric key.
struct Key {
  uint64_t k0 = 0;
  uint64_t k1 = 0;

  friend bool operator==(const Key& a, const Key& b) = default;
};

// Derives a named sub-key from a master key (e.g., one key per application,
// per template, or per purpose such as "params" vs "results").
Key DeriveKey(const Key& master, std::string_view label);

// Deterministic, length-preserving symmetric cipher.
//
// Construction: a 4-round unbalanced Feistel network whose round function is
// a SipHash-2-4-seeded keystream (a Luby-Rackoff-style PRP). Deterministic
// encryption is REQUIRED by the DSSP design: the cache must be able to use
// ciphertexts as lookup keys, so equal plaintexts must produce equal
// ciphertexts under the same key (paper Section 2.2, footnote 3).
//
// This is a functional stand-in for a vetted deterministic AEAD such as
// AES-SIV. It exercises the same code paths (opaque, deterministic,
// invertible blobs) but MUST NOT be used to protect real data.
class DeterministicCipher {
 public:
  explicit DeterministicCipher(const Key& key) : key_(key) {}

  // Returns a ciphertext with the same length as `plaintext`.
  std::string Encrypt(std::string_view plaintext) const;

  // Inverse of Encrypt.
  std::string Decrypt(std::string_view ciphertext) const;

  // Encrypt/Decrypt over `data` in place; neither allocates. The rounds XOR
  // each half with a keystream seeded by the other half, so no copy of
  // either half is ever made.
  void EncryptInPlace(std::span<char> data) const;
  void DecryptInPlace(std::span<char> data) const;

  // A deterministic 64-bit tag of the plaintext under this key. Used where a
  // fixed-size digest of an encrypted item is needed (e.g., hash-map keys).
  uint64_t Tag(std::string_view plaintext) const;

  const Key& key() const { return key_; }

 private:
  Key key_;
};

}  // namespace dssp::crypto

#endif  // DSSP_CRYPTO_CIPHER_H_
