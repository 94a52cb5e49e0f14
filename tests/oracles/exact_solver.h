// Exhaustive reference solvers for the photo selection problems of
// Section III-D. The reallocation problem is NP-hard (0-1 knapsack reduces
// to it) and non-convex, which is why the production path is greedy; these
// solvers enumerate tiny instances exactly so tests and benches can measure
// how far greedy lands from the true optimum. Header-only test oracle: the
// library never links it; exact_solver_test and bench_micro include it.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "coverage/coverage_model.h"
#include "oracles/expected_coverage.h"
#include "util/check.h"

namespace photodtn::oracle {

/// Expected coverage of environment + the two candidate collections.
inline CoverageValue evaluate_allocation(const CoverageModel& model,
                                         std::span<const NodeCollection> environment,
                                         const NodeCollection& a,
                                         const NodeCollection& b) {
  std::vector<NodeCollection> nodes(environment.begin(), environment.end());
  if (!a.footprints.empty()) nodes.push_back(a);
  if (!b.footprints.empty()) nodes.push_back(b);
  return expected_coverage_exact(model, nodes);
}

/// Exhaustive single-node selection: max C_ex over all subsets of `pool`
/// that fit `capacity_bytes`, against the fixed environment. O(2^k);
/// requires pool.size() <= 20.
struct ExactSelection {
  std::vector<PhotoId> chosen;
  CoverageValue value;
};

inline ExactSelection exact_select(const CoverageModel& model,
                                   std::span<const PhotoMeta> pool, NodeId node,
                                   double delivery_prob, std::uint64_t capacity_bytes,
                                   std::span<const NodeCollection> environment) {
  PHOTODTN_CHECK_MSG(pool.size() <= 20, "exact_select is limited to 20 photos");
  const std::size_t k = pool.size();
  ExactSelection best;
  best.value =
      evaluate_allocation(model, environment, NodeCollection{}, NodeCollection{});
  for (std::uint32_t mask = 0; mask < (1u << k); ++mask) {
    std::uint64_t bytes = 0;
    NodeCollection cand{node, delivery_prob, {}};
    bool feasible = true;
    for (std::size_t i = 0; i < k; ++i) {
      if (!((mask >> i) & 1u)) continue;
      bytes += pool[i].size_bytes;
      if (bytes > capacity_bytes) {
        feasible = false;
        break;
      }
      cand.footprints.push_back(&model.footprint_cached(pool[i]));
    }
    if (!feasible) continue;
    const CoverageValue v =
        evaluate_allocation(model, environment, cand, NodeCollection{});
    if (v > best.value) {
      best.value = v;
      best.chosen.clear();
      for (std::size_t i = 0; i < k; ++i)
        if ((mask >> i) & 1u) best.chosen.push_back(pool[i].id);
    }
  }
  return best;
}

/// Value of a concrete two-node allocation under Definition 2 (used to
/// score greedy's plan with the same yardstick as the exact solver).
inline CoverageValue allocation_value(const CoverageModel& model,
                                      std::span<const PhotoMeta> pool,
                                      std::span<const PhotoId> at_a, double p_a,
                                      std::span<const PhotoId> at_b, double p_b,
                                      NodeId node_a, NodeId node_b,
                                      std::span<const NodeCollection> environment) {
  auto collect = [&](std::span<const PhotoId> ids, NodeId node, double p) {
    const std::unordered_set<PhotoId> want(ids.begin(), ids.end());
    NodeCollection nc{node, p, {}};
    for (const PhotoMeta& photo : pool)
      if (want.contains(photo.id))
        nc.footprints.push_back(&model.footprint_cached(photo));
    return nc;
  };
  return evaluate_allocation(model, environment, collect(at_a, node_a, p_a),
                             collect(at_b, node_b, p_b));
}

/// Exhaustive two-node reallocation: max C_ex(F_a, F_b) over every
/// assignment of each pool photo to {neither, a, b, both} respecting both
/// capacities. O(4^k); requires pool.size() <= 10.
struct ExactReallocation {
  std::vector<PhotoId> node_a;
  std::vector<PhotoId> node_b;
  CoverageValue value;
};

inline ExactReallocation exact_reallocate(const CoverageModel& model,
                                          std::span<const PhotoMeta> pool, NodeId node_a,
                                          double p_a, std::uint64_t cap_a, NodeId node_b,
                                          double p_b, std::uint64_t cap_b,
                                          std::span<const NodeCollection> environment) {
  PHOTODTN_CHECK_MSG(pool.size() <= 10, "exact_reallocate is limited to 10 photos");
  const std::size_t k = pool.size();
  std::uint64_t states = 1;
  for (std::size_t i = 0; i < k; ++i) states *= 4;

  ExactReallocation best;
  best.value =
      evaluate_allocation(model, environment, NodeCollection{}, NodeCollection{});
  std::vector<int> assign(k, 0);  // 0 = neither, 1 = a, 2 = b, 3 = both
  for (std::uint64_t state = 0; state < states; ++state) {
    std::uint64_t s = state;
    std::uint64_t bytes_a = 0, bytes_b = 0;
    bool feasible = true;
    NodeCollection ca{node_a, p_a, {}};
    NodeCollection cb{node_b, p_b, {}};
    for (std::size_t i = 0; i < k && feasible; ++i) {
      assign[i] = static_cast<int>(s % 4);
      s /= 4;
      if (assign[i] & 1) {
        bytes_a += pool[i].size_bytes;
        if (bytes_a > cap_a) feasible = false;
        ca.footprints.push_back(&model.footprint_cached(pool[i]));
      }
      if (assign[i] & 2) {
        bytes_b += pool[i].size_bytes;
        if (bytes_b > cap_b) feasible = false;
        cb.footprints.push_back(&model.footprint_cached(pool[i]));
      }
    }
    if (!feasible) continue;
    const CoverageValue v = evaluate_allocation(model, environment, ca, cb);
    if (v > best.value) {
      best.value = v;
      best.node_a.clear();
      best.node_b.clear();
      for (std::size_t i = 0; i < k; ++i) {
        if (assign[i] & 1) best.node_a.push_back(pool[i].id);
        if (assign[i] & 2) best.node_b.push_back(pool[i].id);
      }
    }
  }
  return best;
}

}  // namespace photodtn::oracle
