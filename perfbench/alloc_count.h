// Process-wide heap-allocation counter for the benchmark binary.
//
// alloc_count.cc replaces the global operator new, so every allocation the
// simulator makes on any path is counted. The process is single-threaded,
// so the counter is a plain integer.
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

// Number of operator new / new[] calls since process start.
uint64_t AllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
