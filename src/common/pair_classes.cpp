#include "common/pair_classes.h"

namespace lbc {

void tbl_build_table(int bits, bool ternary_pairs, i8 b0, i8 b1, i8 out[16]) {
  const i32 q = qmax_for_bits(bits);
  for (int idx = 0; idx < 16; ++idx) {
    i32 entry = 0;
    if (ternary_pairs) {
      const i32 d0 = idx / 4 - 1;  // decode of tbl_pair_index
      const i32 d1 = idx % 4 - 1;
      if (d0 <= 1 && d1 <= 1 && idx % 4 != 3)
        entry = d0 * static_cast<i32>(b0) + d1 * static_cast<i32>(b1);
    } else {
      if (idx <= 2 * q) entry = (idx - q) * static_cast<i32>(b0);
    }
    out[idx] = static_cast<i8>(entry);
  }
}

}  // namespace lbc
