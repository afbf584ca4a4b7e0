// Stable content digest for cache keys. Every value fed into a Digest is
// framed (type tag + length) so distinct field sequences can never collide
// by concatenation ("ab"+"c" vs "a"+"bc"), and the resulting 128-bit value
// is stable across platforms and runs — it is what makes the runtime's
// result cache content-addressed. NOT cryptographic: collisions are
// statistically negligible for cache addressing, but an adversary could
// construct one, so never use this for integrity against attackers.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace ct::util {

/// Incremental 128-bit digest (two independent FNV-1a lanes finished with
/// a splitmix64 avalanche). Feed fields in a fixed order, then read hex().
class Digest {
 public:
  /// Length-prefixed string (self-delimiting).
  Digest& str(std::string_view s) noexcept;
  Digest& u64(std::uint64_t v) noexcept;
  Digest& i64(std::int64_t v) noexcept;
  Digest& f64(double v) noexcept;  ///< Hashes the IEEE-754 bit pattern.
  Digest& boolean(bool v) noexcept;

  /// The avalanche-finished 128-bit value (does not reset the state).
  std::array<std::uint64_t, 2> value() const noexcept;
  /// 32 lowercase hex characters of value().
  std::string hex() const;

 private:
  Digest& raw(const void* data, std::size_t n) noexcept;
  Digest& tag(std::uint8_t t) noexcept;

  std::uint64_t lo_ = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  std::uint64_t hi_ = 0x6c62272e07bb0142ULL;  // FNV-1a 128 offset (high word)
};

}  // namespace ct::util
