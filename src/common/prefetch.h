// Cache prefetch hints for batched drains.
//
// Burst loops touch the *next* element's descriptor and payload while
// processing the current one, so the line is warm by the time the loop gets
// there (DPDK/TAS idiom). Hints are advisory: on compilers without
// __builtin_prefetch they compile to nothing, and correctness never depends
// on them.
#ifndef NORMAN_COMMON_PREFETCH_H_
#define NORMAN_COMMON_PREFETCH_H_

namespace norman {

inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace norman

#endif  // NORMAN_COMMON_PREFETCH_H_
