#include "util/digest.h"

#include <cstring>

#include "util/rng.h"

namespace ct::util {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
// A second, independent multiplier for the high lane (odd, high entropy).
constexpr std::uint64_t kHiPrime = 0x9ddfea08eb382d69ULL;

// Type tags framing each value; a tag change is a format change and must
// come with a ResultStore version bump.
enum : std::uint8_t {
  kTagStr = 2,
  kTagU64 = 3,
  kTagI64 = 4,
  kTagF64 = 5,
  kTagBool = 6,
};

}  // namespace

Digest& Digest::raw(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    lo_ = (lo_ ^ p[i]) * kFnvPrime;
    hi_ = (hi_ ^ (p[i] + 0x9eULL)) * kHiPrime;
  }
  return *this;
}

Digest& Digest::tag(std::uint8_t t) noexcept { return raw(&t, 1); }

Digest& Digest::str(std::string_view s) noexcept {
  tag(kTagStr);
  u64(s.size());
  return raw(s.data(), s.size());
}

Digest& Digest::u64(std::uint64_t v) noexcept {
  // Byte order fixed by hand so the digest is identical on any endianness.
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  tag(kTagU64);
  return raw(buf, sizeof buf);
}

Digest& Digest::i64(std::int64_t v) noexcept {
  tag(kTagI64);
  return u64(static_cast<std::uint64_t>(v));
}

Digest& Digest::f64(double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  tag(kTagF64);
  return u64(bits);
}

Digest& Digest::boolean(bool v) noexcept {
  tag(kTagBool);
  const std::uint8_t b = v ? 1 : 0;
  return raw(&b, 1);
}

std::array<std::uint64_t, 2> Digest::value() const noexcept {
  // Avalanche both lanes, cross-mixing so either lane depends on all input.
  std::uint64_t a = lo_ ^ (hi_ * kFnvPrime);
  std::uint64_t b = hi_ ^ (lo_ * kHiPrime);
  const std::uint64_t fa = splitmix64(a);
  const std::uint64_t fb = splitmix64(b);
  return {fa, fb};
}

std::string Digest::hex() const {
  static const char* kHex = "0123456789abcdef";
  const auto v = value();
  std::string out;
  out.reserve(32);
  for (const std::uint64_t word : v) {
    for (int nibble = 15; nibble >= 0; --nibble) {
      out.push_back(kHex[(word >> (4 * nibble)) & 0xF]);
    }
  }
  return out;
}

}  // namespace ct::util
