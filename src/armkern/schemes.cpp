#include "armkern/schemes.h"

namespace lbc::armkern {
// Compile-time checks that the safe-ratio formula reproduces the paper's
// quoted SMLAL:SADDW ratios where the adjusted range defines them
// (Sec. 3.3: "... 8/1 and 2/1 ... for 7 and 8-bit").
static_assert(smlal_safe_ratio(8) == 2);
static_assert(smlal_safe_ratio(7) == 8);
// For 4-6 bit the paper quotes the conservative power-of-two bounds
// (511/127/31); our adjusted-range bounds are looser, and both dominate
// the actual flush interval (the unrolling factor <= 32).
static_assert(smlal_safe_ratio(6) >= 31);
static_assert(smlal_safe_ratio(5) >= 127);
static_assert(smlal_safe_ratio(4) >= 511);

}  // namespace lbc::armkern
