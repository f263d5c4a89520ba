// Planted B01: a conditional branch whose flags derive from a secret value.
// The guarded store keeps GCC from if-converting the branch into a cmov
// (speculative stores are never emitted), so a real jcc survives -O2.

#include <cstdint>

// ctdf-symbol: tc_branch_on_secret secret=val:rdi expect=B01
extern "C" __attribute__((noipa)) void tc_branch_on_secret(uint64_t s,
                                                           uint64_t* out) {
  if (s & 1) {
    out[0] = 0x1234;
  }
}

// Planted B01 across a `not`: the flags the branch reads come from the secret
// comparison, not from negating a public register in between.
// ctdf-symbol: tc_branch_across_not secret=val:rdi expect=B01
extern "C" __attribute__((noipa)) uint64_t tc_branch_across_not(uint64_t s,
                                                                uint64_t n) {
  uint64_t r = n;
  uint64_t taken = 0;
  __asm__("cmp $6, %2\n\t"
          "not %0\n\t"
          "jbe 1f\n\t"
          "mov $1, %1\n"
          "1:"
          : "+r"(r), "+r"(taken)
          : "r"(s)
          : "cc");
  return r ^ taken;
}
