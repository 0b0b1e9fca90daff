// The MLP's tanh activation with the bits of glibc's tanhf on every SIMD
// tier (docs/KERNELS.md, "The MLP forward kernel").
//
// glibc's float tanh (sysdeps/ieee754/flt-32/s_tanhf.c, calling
// s_expm1f.c) is fdlibm's code: a handful of branches on the argument's
// bit pattern, each a fixed sequence of IEEE float adds, multiplies and
// divides, with no FMA and no table. Tanhf transcribes it operation for
// operation; the vector tiers run the same operations in every lane and
// select each lane's branch by mask. Every tier therefore returns
// tanhf's bits, and the forward pass no longer depends on the host's libm.
#ifndef HIPRESS_SRC_MINIDNN_TANH_H_
#define HIPRESS_SRC_MINIDNN_TANH_H_

#include <cstddef>

#include "src/common/simd.h"

namespace hipress {

// tanh(x) as glibc's fdlibm tanhf computes it.
float Tanhf(float x);

// values[i] = Tanhf(values[i]) for i < n, with the tier's kernel. Tiers
// that are not compiled in (non-x86-64, HIPRESS_FORCE_SCALAR) run the
// scalar loop. The caller must not pass a tier the host cannot run.
void TanhInPlace(float* values, size_t n, SimdTier tier);

}  // namespace hipress

#endif  // HIPRESS_SRC_MINIDNN_TANH_H_
