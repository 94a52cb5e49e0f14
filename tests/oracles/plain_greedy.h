// Plain greedy selection: the differential oracle for GreedySelector's CELF
// path. Every round evaluates every still-fitting candidate with
// GreedyPhase::gain and commits the ordered argmax — exact ties go to the
// lower PhotoId, and a gain at or below eps on both components stops the
// selection (the boundary is exclusive). The CELF selector must reproduce
// this output bit for bit, ids and order; the equivalence tests and
// bench_micro's BM_GreedySelect plain arms call it.
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
  std::uint64_t used = 0;
  for (;;) {
    bool any = false;
    std::size_t idx = 0;
    CoverageValue best;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i] || used + pool[i].size_bytes > capacity_bytes) continue;
      const CoverageValue g = phase.gain(*fps[i]);
      if (!any || g > best || (g == best && pool[i].id < pool[idx].id)) {
        any = true;
        idx = i;
        best = g;
      }
    }
    if (!any) break;
    if (!(best.point > params.eps || best.aspect > params.eps)) break;
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
