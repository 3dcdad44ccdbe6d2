// Process-wide heap-allocation counter for bench_micro.
//
// alloc_count.cc replaces the global operator new, so every allocation the
// simulator makes on any path is counted; the forwarding loop reports the
// count as allocs/packet (the number the pooled hot path drives to ~0). The
// replacement lives in its own translation unit so no caller inlines a
// counted new against a plain delete.
#ifndef NORMAN_BENCH_ALLOC_COUNT_H_
#define NORMAN_BENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace norman::bench {

// Number of operator new / new[] calls since process start.
uint64_t AllocCount();

}  // namespace norman::bench

#endif  // NORMAN_BENCH_ALLOC_COUNT_H_
