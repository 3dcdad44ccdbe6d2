// The token bucket behind both rate-enforcing TX disciplines: the tbf qdisc
// (TokenBucketQdisc) and the per-connection pacer (PacedScheduler). A bucket
// holds at most `burst_bytes` of tokens and refills at `rate_bps`; a packet
// conforms when the bucket covers its size. Each figure is one fixed
// sequence of double operations, so release times reproduce bit for bit.
#ifndef NORMAN_DATAPLANE_TOKEN_BUCKET_H_
#define NORMAN_DATAPLANE_TOKEN_BUCKET_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "src/common/units.h"

namespace norman::dataplane {

struct TokenBucket {
  BitsPerSecond rate_bps = 0;
  uint64_t burst_bytes = 0;
  double tokens = 0;
  Nanos last_refill = 0;

  // Tokens the bucket holds at `now`, without crediting them.
  double TokensAt(Nanos now) const {
    if (now <= last_refill) {
      return tokens;
    }
    const double elapsed_s = static_cast<double>(now - last_refill) / 1e9;
    return std::min(static_cast<double>(burst_bytes),
                    tokens + elapsed_s * static_cast<double>(rate_bps) / 8.0);
  }

  // Credits the tokens accrued since the last refill.
  void Refill(Nanos now) {
    if (now > last_refill) {
      tokens = TokensAt(now);
      last_refill = now;
    }
  }

  // Spends `bytes` tokens if the bucket covers them (the packet conforms).
  bool TryConsume(size_t bytes) {
    const double need = static_cast<double>(bytes);
    if (tokens + 1e-9 < need) {
      return false;
    }
    tokens -= need;
    return true;
  }

  // Earliest time, `now` or later, at which `bytes` conform. Requires a
  // nonzero rate.
  Nanos EligibleAt(Nanos now, size_t bytes) const {
    const double t = TokensAt(now);
    const double need = static_cast<double>(bytes);
    if (t + 1e-9 >= need) {
      return now;
    }
    const double wait_ns =
        (need - t) * 8.0 * 1e9 / static_cast<double>(rate_bps);
    return now + static_cast<Nanos>(std::ceil(wait_ns));
  }
};

}  // namespace norman::dataplane

#endif  // NORMAN_DATAPLANE_TOKEN_BUCKET_H_
