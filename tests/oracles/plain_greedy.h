// Plain greedy selection: the differential oracle for GreedySelector's CELF
// path. Every round evaluates every still-fitting candidate through one
// batched sweep (GreedyPhase::gains_batch) and commits the ordered argmax —
// exact ties go to the lower PhotoId, and a gain at or below eps on both
// components stops the selection (the boundary is exclusive). The CELF
// selector must reproduce this output bit for bit, ids and order; the
// equivalence tests and bench_micro's BM_GreedySelect plain arms call it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "selection/greedy_selector.h"

namespace photodtn::oracle {

inline std::vector<PhotoId> plain_greedy_select(const CoverageModel& model,
                                                std::span<const PhotoMeta> pool,
                                                std::uint64_t capacity_bytes,
                                                GreedyPhase& phase,
                                                const GreedyParams& params = {}) {
  std::vector<const PhotoFootprint*> fps;
  model.footprints_cached(pool, fps);
  std::vector<PhotoId> chosen;
  std::vector<char> taken(pool.size(), 0);
  std::vector<std::size_t> active;
  std::vector<const PhotoFootprint*> afps;
  std::vector<CoverageValue> gains;
  std::uint64_t used = 0;
  for (;;) {
    active.clear();
    afps.clear();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i] || used + pool[i].size_bytes > capacity_bytes) continue;
      active.push_back(i);
      afps.push_back(fps[i]);
    }
    if (active.empty()) break;
    gains.resize(active.size());
    phase.gains_batch(afps, gains, params.pool);
    std::size_t best = 0;
    for (std::size_t k = 1; k < active.size(); ++k) {
      if (gains[k] > gains[best] ||
          (gains[k] == gains[best] && pool[active[k]].id < pool[active[best]].id))
        best = k;
    }
    if (!(gains[best].point > params.eps || gains[best].aspect > params.eps)) break;
    const std::size_t idx = active[best];
    taken[idx] = 1;
    used += pool[idx].size_bytes;
    phase.commit(*fps[idx]);
    chosen.push_back(pool[idx].id);
  }
  return chosen;
}

/// Either path under one call shape, so a test can loop over both: the
/// production CELF selector (`celf`) or the plain-greedy oracle above.
inline std::vector<PhotoId> greedy_select(bool celf, const CoverageModel& model,
                                          std::span<const PhotoMeta> pool,
                                          std::uint64_t capacity_bytes,
                                          GreedyPhase& phase,
                                          const GreedyParams& params = {}) {
  return celf ? GreedySelector(params).select(model, pool, capacity_bytes, phase)
              : plain_greedy_select(model, pool, capacity_bytes, phase, params);
}

}  // namespace photodtn::oracle
