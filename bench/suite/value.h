// Self-describing record values for the benchmark suite.
//
// Every 1 KB value names the record it belongs to and the write
// generation that produced it ("#<index>:<gen>:"), followed by filler
// derived from both.  A reply can therefore be checked in full against
// nothing but the key it answers: a value served for the wrong key, a
// stale or torn value, and a truncated reply all fail the check.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "util/hash.h"
#include "util/random.h"
#include "util/slice.h"

namespace bolt {
namespace suite {

constexpr size_t kValueSize = 1024;
constexpr size_t kKeySize = 23;  // ycsb::MakeKey: "user" + 19 digits
constexpr size_t kHeaderSize = 21;  // '#' + 10 digits + ':' + 8 digits + ':'

inline void FillValue(uint64_t index, uint32_t gen, char* out) {
  char header[32];
  snprintf(header, sizeof(header), "#%010llu:%08u:",
           static_cast<unsigned long long>(index), gen);
  memcpy(out, header, kHeaderSize);
  Random64 rng(Mix64(index * 0x100000001b3ull + gen));
  for (size_t i = kHeaderSize; i < kValueSize;) {
    uint64_t x = rng.Next();
    for (int b = 0; b < 8 && i < kValueSize; b++, i++, x >>= 8) {
      out[i] = static_cast<char>('a' + (x & 0xff) % 26);
    }
  }
}

inline std::string MakeValue(uint64_t index, uint32_t gen) {
  std::string v(kValueSize, '\0');
  FillValue(index, gen, &v[0]);
  return v;
}

// True iff v is exactly the value some generation wrote for record
// "index"; that generation goes to *gen.
inline bool CheckValue(const Slice& v, uint64_t index, uint32_t* gen) {
  if (v.size() != kValueSize || v[0] != '#' || v[11] != ':' ||
      v[20] != ':') {
    return false;
  }
  uint64_t got_index = 0;
  uint32_t got_gen = 0;
  for (int i = 1; i <= 10; i++) {
    if (v[i] < '0' || v[i] > '9') return false;
    got_index = got_index * 10 + (v[i] - '0');
  }
  for (int i = 12; i <= 19; i++) {
    if (v[i] < '0' || v[i] > '9') return false;
    got_gen = got_gen * 10 + static_cast<uint32_t>(v[i] - '0');
  }
  if (got_index != index) return false;
  char expect[kValueSize];
  FillValue(index, got_gen, expect);
  if (memcmp(expect, v.data(), kValueSize) != 0) return false;
  *gen = got_gen;
  return true;
}

}  // namespace suite
}  // namespace bolt
