// Negative control: constant-time mask algebra over secrets must NOT be
// flagged. Taint flows through the arithmetic (masks are taint algebra, not
// taint kills), but no branch, address, latency, or call ever consumes it.

#include <cstddef>
#include <cstdint>

// ctdf-symbol: tc_clean_select secret=val:rdi expect=clean
extern "C" __attribute__((noipa)) uint64_t tc_clean_select(uint64_t bit,
                                                           uint64_t a,
                                                           uint64_t b) {
  const uint64_t mask = uint64_t{0} - (bit & 1);
  return (a & mask) | (b & ~mask);
}

// ctdf-symbol: tc_clean_copy secret=val:rdi,ptr:rsi,ptr:rdx expect=clean
extern "C" __attribute__((noipa)) void tc_clean_copy(uint64_t mask, uint8_t* d,
                                                     const uint8_t* s,
                                                     size_t n) {
  const uint8_t m = static_cast<uint8_t>(mask);
  for (size_t i = 0; i < n; ++i) {
    d[i] = static_cast<uint8_t>((s[i] & m) | (d[i] & static_cast<uint8_t>(~m)));
  }
}

// `not` writes no flags: the branch after it tests the public comparison before it,
// even though the negated register holds a secret (GCC -O3 interleaves the two).
// ctdf-symbol: tc_clean_not_keeps_flags secret=val:rdi expect=clean
extern "C" __attribute__((noipa)) uint64_t tc_clean_not_keeps_flags(uint64_t s,
                                                                    uint64_t n) {
  uint64_t r = s;
  uint64_t taken = 0;
  __asm__("cmp $6, %2\n\t"
          "not %0\n\t"
          "jbe 1f\n\t"
          "mov $1, %1\n"
          "1:"
          : "+r"(r), "+r"(taken)
          : "r"(n)
          : "cc");
  return r ^ taken;
}
