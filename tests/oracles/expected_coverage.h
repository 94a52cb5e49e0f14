// Reference evaluators of the expected coverage C_ex (Definition 2): the
// delivery-probability-weighted photo coverage of a node set M. The
// production path is SelectionEnvironment's incremental per-PoI engine
// (selection/selection_env.h); these evaluators pin it from outside.
//
//  * expected_coverage_exact — polynomial-time exact value. Definition 2
//    sums over 2^m delivery outcomes, but coverage decomposes per PoI and
//    expectation is linear, so per PoI:
//      E[point]  = w * (1 - prod_i (1 - p_i))        over nodes covering it
//      E[aspect] = w * integral over the aspect circle of
//                  (1 - prod_{i: v in A_i} (1 - p_i)) dv   (Fubini),
//    computed exactly by splitting the circle at all arc endpoints.
//  * expected_coverage_incremental — the same value through the engine's
//    dirty-tracking add path.
//  * expected_coverage_enumerate — the literal 2^m sum (m <= 20).
//  * expected_coverage_monte_carlo — sampling estimator.
//
// Nodes appearing multiple times (same id) are treated as independent
// sources — callers should deduplicate. Header-only test oracle: the
// library never links it; the selection tests and bench_micro include it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "coverage/coverage_map.h"
#include "coverage/coverage_model.h"
#include "coverage/coverage_value.h"
#include "geometry/angle.h"
#include "geometry/arc_set.h"
#include "selection/selection_env.h"
#include "util/check.h"
#include "util/rng.h"

namespace photodtn::oracle {

/// poi index -> covering nodes, each with its arcs on that PoI unioned.
/// Nodes contributing no arcs to a PoI do not appear in that PoI's list.
inline std::vector<std::vector<NodePoiCover>> build_poi_cover_index(
    const CoverageModel& model, std::span<const NodeCollection> nodes) {
  std::vector<std::vector<NodePoiCover>> index(model.pois().size());
  std::vector<ArcSet> per_poi(model.pois().size());
  std::vector<char> seen(model.pois().size(), 0);
  std::vector<std::size_t> touched;
  for (const NodeCollection& nc : nodes) {
    touched.clear();
    for (const PhotoFootprint* fp : nc.footprints) {
      for (const PoiArc& pa : fp->arcs) {
        if (!seen[pa.poi_index]) {
          seen[pa.poi_index] = 1;
          touched.push_back(pa.poi_index);
        }
        per_poi[pa.poi_index].add(pa.arc);
      }
    }
    for (const std::size_t poi : touched) {
      index[poi].push_back(NodePoiCover{nc.node, nc.delivery_prob,
                                        std::move(per_poi[poi])});
      per_poi[poi] = ArcSet{};
      seen[poi] = 0;
    }
  }
  return index;
}

inline CoverageValue expected_coverage_exact(const CoverageModel& model,
                                             std::span<const NodeCollection> nodes) {
  const auto index = build_poi_cover_index(model, nodes);
  CoverageValue total;
  std::vector<double> bps;
  for (std::size_t poi = 0; poi < index.size(); ++poi) {
    const auto& covers = index[poi];
    if (covers.empty()) continue;
    const double w = model.pois()[poi].weight;

    // Expected point coverage: covered unless every covering node fails.
    double miss_all = 1.0;
    for (const auto& c : covers) miss_all *= 1.0 - c.p;
    total.point += w * (1.0 - miss_all);

    // Expected aspect coverage: integrate coverage probability over the
    // circle, piecewise-constant between arc endpoints.
    bps.clear();
    for (const auto& c : covers)
      for (const double b : c.arcs.boundaries()) bps.push_back(b);
    std::sort(bps.begin(), bps.end());
    bps.erase(std::unique(bps.begin(), bps.end()), bps.end());
    if (bps.empty()) {
      // Some node covers the full circle (no endpoints); treat as one segment.
      bps.push_back(0.0);
    }
    // With an aspect profile, every breakpoint of the profile must also
    // split the integration (the weight is constant between breakpoints).
    const AspectProfile* profile = model.pois()[poi].profile();
    double aspect = 0.0;
    for (std::size_t k = 0; k < bps.size(); ++k) {
      const double lo = bps[k];
      const double hi = (k + 1 < bps.size()) ? bps[k + 1] : bps[0] + kTwoPi;
      const double len = hi - lo;
      if (len <= 0.0) continue;
      const double mid = normalize_angle(lo + len / 2.0);
      double miss = 1.0;
      for (const auto& c : covers)
        if (c.arcs.contains(mid)) miss *= 1.0 - c.p;
      if (miss == 1.0) continue;
      if (profile == nullptr || profile->is_uniform()) {
        aspect += len * (1.0 - miss);
      } else {
        // The coverage probability is constant on [lo, hi); integrate the
        // profile weight over that span (may wrap past 2*pi).
        static const ArcSet kNothing;
        const double span_hi = std::min(hi, kTwoPi);
        double weighted = profile->integrate_excluding(lo, span_hi, kNothing);
        if (hi > kTwoPi)
          weighted += profile->integrate_excluding(0.0, hi - kTwoPi, kNothing);
        aspect += weighted * (1.0 - miss);
      }
    }
    total.aspect += w * aspect;
  }
  return total;
}

/// C_ex via the incremental per-PoI engine: collections are added one at a
/// time through the engine's dirty-tracking path and the value is assembled
/// from its cached per-PoI factors. Agrees with expected_coverage_exact to
/// floating-point dust.
inline CoverageValue expected_coverage_incremental(
    const CoverageModel& model, std::span<const NodeCollection> nodes) {
  SelectionEnvironment env(model);
  for (const NodeCollection& nc : nodes) env.add_collection(nc);
  PHOTODTN_AUDIT(env.audit());
  return env.total();
}

/// Literal Definition 2; requires nodes.size() <= 20.
inline CoverageValue expected_coverage_enumerate(const CoverageModel& model,
                                                 std::span<const NodeCollection> nodes) {
  PHOTODTN_CHECK_MSG(nodes.size() <= 20, "enumeration oracle limited to 20 nodes");
  const std::size_t m = nodes.size();
  CoverageValue total;
  for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
    double prob = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double p = nodes[i].delivery_prob;
      prob *= (mask >> i) & 1u ? p : 1.0 - p;
    }
    if (prob == 0.0) continue;
    CoverageMap map(model);
    for (std::size_t i = 0; i < m; ++i) {
      if (!((mask >> i) & 1u)) continue;
      for (const PhotoFootprint* fp : nodes[i].footprints) map.add(*fp);
    }
    total += map.total() * prob;
  }
  return total;
}

inline CoverageValue expected_coverage_monte_carlo(const CoverageModel& model,
                                                   std::span<const NodeCollection> nodes,
                                                   Rng& rng, std::size_t samples) {
  PHOTODTN_CHECK(samples > 0);
  CoverageValue total;
  for (std::size_t s = 0; s < samples; ++s) {
    CoverageMap map(model);
    for (const NodeCollection& nc : nodes) {
      if (!rng.bernoulli(nc.delivery_prob)) continue;
      for (const PhotoFootprint* fp : nc.footprints) map.add(*fp);
    }
    total += map.total();
  }
  return total * (1.0 / static_cast<double>(samples));
}

}  // namespace photodtn::oracle
