// FNV-1a (64-bit) for golden tests: folds a run's outputs into one number
// so a test can pin them without listing every value.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace rdt::test {

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (value >> (8 * b)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void add_byte(std::uint8_t byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001B3ull;
  }

  std::string hex() const {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

}  // namespace rdt::test
