#include "selection/selection_env.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "geometry/angle.h"
#include "util/check.h"
#include "util/prob.h"

namespace photodtn {

// ------------------------------------------------------------ PiecewiseMiss

PiecewiseMiss PiecewiseMiss::build(
    std::span<const std::pair<double, const ArcSet*>> covers,
    const AspectProfile* profile) {
  PiecewiseMiss out;
  std::vector<SweepEvent> events;
  out.rebuild(covers, profile, events);
  return out;
}

void PiecewiseMiss::rebuild(std::span<const std::pair<double, const ArcSet*>> covers,
                            const AspectProfile* profile,
                            std::vector<SweepEvent>& events) {
  const bool weighted = profile != nullptr && !profile->is_uniform();
  cuts_.clear();
  vals_.clear();
  weights_.clear();
  rates_.clear();
  prefix_.clear();
  lut_.clear();
  lut_scale_ = 0.0;
  for (const auto& [p, arcs] : covers) arcs->append_boundaries(cuts_);
  if (weighted)
    for (const double b : profile->breakpoints()) cuts_.push_back(b);

  // No cuts means nothing covers this PoI: miss 1 everywhere. Any arc, the
  // full circle included, contributes the cut 0, and a non-uniform profile
  // always contributes breakpoints.
  if (cuts_.empty()) return;

  cuts_.push_back(0.0);
  std::sort(cuts_.begin(), cuts_.end());
  cuts_.erase(std::unique(cuts_.begin(), cuts_.end()), cuts_.end());

  // Sweep the circle once: each cover interval opens at its start and
  // closes at its end; the running product of active (1 - p) factors is the
  // segment value. A zero factor (p = 1, the command center) is tracked as
  // a count so closing it never divides by zero.
  events.clear();
  for (const auto& [p, arcs] : covers) {
    const double f = 1.0 - p;
    for (const auto& [s, e] : arcs->intervals()) {
      events.push_back({s, f, true});
      if (e < kTwoPi) events.push_back({e, f, false});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const SweepEvent& x, const SweepEvent& y) { return x.angle < y.angle; });

  const std::size_t n = cuts_.size();
  vals_.resize(n);
  if (weighted) weights_.resize(n);
  double product = 1.0;
  int zeros = 0;
  std::size_t next_event = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const double lo = cuts_[k];
    // Interval endpoints are a subset of the cuts (up to the boundary
    // dedup epsilon, whose slivers the old midpoint sampling misclassified
    // the same way); apply everything up to and including this cut.
    while (next_event < events.size() && events[next_event].angle <= lo) {
      const SweepEvent& ev = events[next_event++];
      if (ev.factor == 0.0) {
        zeros += ev.open ? 1 : -1;
      } else if (ev.open) {
        product *= ev.factor;
      } else {
        product /= ev.factor;
      }
    }
    vals_[k] = zeros > 0 ? 0.0 : product;
    if (weighted) {
      const double hi = (k + 1 < n) ? cuts_[k + 1] : kTwoPi;
      weights_[k] = profile->weight_at(normalize_angle(lo + (hi - lo) / 2.0));
    }
  }

  // Fused rate array: rate(k) on the integration hot path reads one dense
  // double instead of re-multiplying value by weight per probe.
  rates_.resize(n);
  for (std::size_t k = 0; k < n; ++k)
    rates_[k] = vals_[k] * (weighted ? weights_[k] : 1.0);

  prefix_.resize(n + 1);
  prefix_[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double hi = (k + 1 < n) ? cuts_[k + 1] : kTwoPi;
    prefix_[k + 1] = prefix_[k] + rate(k) * (hi - cuts_[k]);
  }

  // Bucketized segment finder. lut_[b] is the highest segment whose cut
  // falls in an earlier bucket: for any angle a in bucket b this gives
  // cuts_[lut_[b]] < a (monotone multiply by the shared scale), so
  // segment_of starts there and only advances forward. One bucket per
  // segment keeps the advance to ~1 step on average. Sparse functions
  // skip the table: below kLutMinSegments a binary search is already cheap,
  // and the simulator rebuilds thousands of such small functions per run —
  // the table's build cost would dominate its lookups. (Bucket count and
  // threshold are a rebuild-vs-query tradeoff: the greedy sweeps probe each
  // dense function hundreds of times per rebuild, the simulator's sparse
  // ones often zero times.)
  if (n >= kLutMinSegments) {
    const std::size_t buckets = std::min<std::size_t>(4096, 2 * n);
    lut_scale_ = static_cast<double>(buckets) / kTwoPi;
    lut_.resize(buckets);
    std::size_t seg = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      while (seg + 1 < n && static_cast<std::size_t>(cuts_[seg + 1] * lut_scale_) < b)
        ++seg;
      lut_[b] = static_cast<std::uint32_t>(seg);
    }
  }
}

std::size_t PiecewiseMiss::segment_of(double a) const noexcept {
  // Same result as upper_bound(cuts_, a) - 1 (cuts_[0] == 0 <= a): dense
  // functions use a table lookup plus a short forward walk instead of
  // ~log B data-dependent probes; sparse ones (no LUT built) just binary
  // search. a == 2*pi (an integral's hi end) clamps to the last bucket /
  // lands in the final segment.
  if (lut_.empty()) {
    return static_cast<std::size_t>(
               std::upper_bound(cuts_.begin(), cuts_.end(), a) - cuts_.begin()) -
           1;
  }
  std::size_t b = static_cast<std::size_t>(a * lut_scale_);
  if (b >= lut_.size()) b = lut_.size() - 1;
  std::size_t s = lut_[b];
  const std::size_t n = cuts_.size();
  while (s + 1 < n && cuts_[s + 1] <= a) ++s;
  return s;
}

double PiecewiseMiss::value_at(double angle) const noexcept {
  if (cuts_.empty()) return 1.0;
  return vals_[segment_of(normalize_angle(angle))];
}

double PiecewiseMiss::integral(double lo, double hi) const noexcept {
  if (hi <= lo) return 0.0;
  if (cuts_.empty()) return hi - lo;
  const std::size_t a = segment_of(lo);
  const std::size_t b = segment_of(hi);  // hi == 2*pi lands in the last segment
  if (a == b) return rate(a) * (hi - lo);
  double total = rate(a) * (cuts_[a + 1] - lo);
  total += prefix_[b] - prefix_[a + 1];
  total += rate(b) * (hi - cuts_[b]);
  return total;
}

double PiecewiseMiss::integrate_excluding(double lo, double hi,
                                          const ArcSet& exclude) const {
  PHOTODTN_CHECK(lo >= -1e-12 && hi <= kTwoPi + 1e-12 && lo <= hi + 1e-12);
  lo = std::max(lo, 0.0);
  hi = std::min(hi, kTwoPi);
  if (hi <= lo) return 0.0;
  double total = integral(lo, hi);
  // Subtract the excluded intervals' weighted mass. Intervals are disjoint
  // and sorted, so both starts and ends are sorted: binary-search the first
  // interval ending after lo and walk while intervals start before hi.
  const auto& iv = exclude.intervals();
  auto it = std::lower_bound(
      iv.begin(), iv.end(), lo,
      [](const std::pair<double, double>& seg, double v) { return seg.second <= v; });
  for (; it != iv.end() && it->first < hi; ++it)
    total -= integral(std::max(lo, it->first), std::min(hi, it->second));
  return std::max(0.0, total);
}

double PiecewiseMiss::integrate_excluding_scan(double lo, double hi,
                                               const ArcSet& exclude) const {
  PHOTODTN_CHECK(lo >= -1e-12 && hi <= kTwoPi + 1e-12 && lo <= hi + 1e-12);
  lo = std::max(lo, 0.0);
  hi = std::min(hi, kTwoPi);
  if (hi <= lo) return 0.0;
  auto piece = [&](double l, double h, double val) {
    if (h <= l || val == 0.0) return 0.0;
    const double len = (h - l) - exclude.overlap_linear(l, h);
    return val * std::max(0.0, len);
  };
  if (cuts_.empty()) return piece(lo, hi, 1.0);
  double total = 0.0;
  const std::size_t n = cuts_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const double seg_hi = (k + 1 < n) ? cuts_[k + 1] : kTwoPi;
    total += piece(std::max(lo, cuts_[k]), std::min(hi, seg_hi), rate(k));
  }
  return total;
}

double PiecewiseMiss::full_integral() const noexcept {
  if (cuts_.empty()) return kTwoPi;
  return prefix_.back();
}

void PiecewiseMiss::audit() const {
  if (cuts_.empty()) {
    PHOTODTN_CHECK_MSG(vals_.empty() && weights_.empty() && rates_.empty() &&
                           prefix_.empty() && lut_.empty(),
                       "constant PiecewiseMiss must carry no segments");
    return;
  }
  PHOTODTN_CHECK_MSG(cuts_.front() == 0.0, "PiecewiseMiss cuts must start at 0");
  PHOTODTN_CHECK_MSG(vals_.size() == cuts_.size() &&
                         rates_.size() == cuts_.size() &&
                         prefix_.size() == cuts_.size() + 1 &&
                         (weights_.empty() || weights_.size() == cuts_.size()),
                     "PiecewiseMiss parallel arrays must agree in size");
  PHOTODTN_CHECK_MSG(
      (cuts_.size() >= kLutMinSegments) == !lut_.empty(),
      "PiecewiseMiss must carry a LUT exactly when dense enough");
  PHOTODTN_CHECK_MSG(lut_.empty() == (lut_scale_ == 0.0),
                     "LUT scale must accompany the LUT");
  for (std::size_t b = 0; b < lut_.size(); ++b) {
    const std::size_t s = lut_[b];
    PHOTODTN_CHECK_MSG(s < cuts_.size(), "LUT segment index out of range");
    // The walk in segment_of only moves forward, so the table entry must
    // undershoot (or hit) the true segment of every angle in its bucket.
    PHOTODTN_CHECK_MSG(
        s == 0 || static_cast<std::size_t>(cuts_[s] * lut_scale_) < b,
        "LUT entry overshoots its bucket");
    PHOTODTN_CHECK_MSG(b == 0 || lut_[b - 1] <= s, "LUT must be monotone");
  }
  for (std::size_t k = 0; k < cuts_.size(); ++k) {
    PHOTODTN_CHECK_MSG(cuts_[k] >= 0.0 && cuts_[k] < kTwoPi,
                       "PiecewiseMiss cut outside [0, 2*pi)");
    if (k > 0)
      PHOTODTN_CHECK_MSG(cuts_[k - 1] < cuts_[k], "PiecewiseMiss cuts must ascend");
    // The sweep's multiply/divide bookkeeping may leave ~ulp dust just
    // outside [0, 1]; anything beyond that is a real invariant break.
    PHOTODTN_CHECK_MSG(std::isfinite(vals_[k]) && vals_[k] >= -1e-12 &&
                           vals_[k] <= 1.0 + 1e-9,
                       "PiecewiseMiss value must be a probability");
    if (!weights_.empty())
      PHOTODTN_CHECK_MSG(std::isfinite(weights_[k]) && weights_[k] >= 0.0,
                         "PiecewiseMiss weight must be non-negative");
    PHOTODTN_CHECK_MSG(
        rates_[k] == vals_[k] * (weights_.empty() ? 1.0 : weights_[k]),
        "fused rate out of sync with value * weight");
    const double hi = (k + 1 < cuts_.size()) ? cuts_[k + 1] : kTwoPi;
    const double expect = prefix_[k] + rate(k) * (hi - cuts_[k]);
    PHOTODTN_CHECK_MSG(std::fabs(prefix_[k + 1] - expect) <=
                           1e-9 * std::max(1.0, std::fabs(expect)),
                       "PiecewiseMiss prefix sums inconsistent with rates");
  }
}

// ----------------------------------------------------- SelectionEnvironment

SelectionEnvironment::SelectionEnvironment(const CoverageModel& model)
    : model_(&model),
      covers_(model.pois().size()),
      pt_miss_(model.pois().size(), 1.0),
      miss_(model.pois().size()),
      dirty_(model.pois().size(), 1),
      arc_scratch_(model.pois().size()),
      seen_scratch_(model.pois().size(), 0) {}

SelectionEnvironment::SelectionEnvironment(const CoverageModel& model,
                                           std::span<const NodeCollection> others)
    : SelectionEnvironment(model) {
  for (const NodeCollection& nc : others) add_collection(nc);
}

void SelectionEnvironment::add_collection(const NodeCollection& collection) {
  add_union(collection.node, collection.delivery_prob, unite(collection.footprints));
}

void SelectionEnvironment::add_union(NodeId node, double delivery_prob,
                                     PoiArcUnion arcs) {
  PHOTODTN_CHECK_MSG(!loaded_.contains(node),
                     "environment already holds this node's collection");
  PHOTODTN_CHECK_MSG(is_probability(delivery_prob),
                     "collection delivery probability must be in [0, 1]");
  PHOTODTN_CHECK_MSG(arcs.arcs.size() == arcs.pois.size() &&
                         (arcs.empty() || arcs.pois.back() < covers_.size()),
                     "arc union does not fit this environment's PoIs");
  for (std::size_t i = 0; i < arcs.pois.size(); ++i) {
    const std::size_t poi = arcs.pois[i];
    covers_[poi].push_back(NodePoiCover{node, delivery_prob, std::move(arcs.arcs[i])});
    dirty_[poi] = 1;
  }
  Loaded& entry = loaded_[node];
  entry.delivery_prob = delivery_prob;
  entry.touched = std::move(arcs.pois);
}

void SelectionEnvironment::extend_collection(
    NodeId node, double delivery_prob, std::span<const PhotoFootprint* const> extra) {
  const auto it = loaded_.find(node);
  if (it == loaded_.end()) {
    add_union(node, delivery_prob, unite(extra));
    return;
  }
  PHOTODTN_CHECK_MSG(it->second.delivery_prob == delivery_prob,
                     "extend_collection must keep the delivery probability");
  PoiArcUnion added = unite(extra);
  for (std::size_t i = 0; i < added.pois.size(); ++i) {
    const std::size_t poi = added.pois[i];
    ArcSet& arcs = added.arcs[i];
    std::vector<NodePoiCover>& covers = covers_[poi];
    auto cover = std::find_if(covers.begin(), covers.end(),
                              [&](const NodePoiCover& c) { return c.node == node; });
    if (cover == covers.end()) {
      covers.push_back(NodePoiCover{node, delivery_prob, std::move(arcs)});
      dirty_[poi] = 1;
      it->second.touched.insert(
          std::upper_bound(it->second.touched.begin(), it->second.touched.end(), poi),
          poi);
      continue;
    }
    ArcSet merged = cover->arcs;
    merged.unite(arcs);
    if (merged == cover->arcs) continue;  // nothing new on this PoI
    cover->arcs = std::move(merged);
    dirty_[poi] = 1;
  }
}

PoiArcUnion SelectionEnvironment::unite(
    std::span<const PhotoFootprint* const> footprints) {
  PoiArcUnion out;
  for (const PhotoFootprint* fp : footprints) {
    for (const PoiArc& pa : fp->arcs) {
      if (!seen_scratch_[pa.poi_index]) {
        seen_scratch_[pa.poi_index] = 1;
        out.pois.push_back(pa.poi_index);
      }
      arc_scratch_[pa.poi_index].add(pa.arc);
    }
  }
  // Ascending PoI order keeps audits and rebuild sweeps reproducible.
  std::sort(out.pois.begin(), out.pois.end());
  out.arcs.reserve(out.pois.size());
  for (const std::size_t poi : out.pois) {
    out.arcs.push_back(std::exchange(arc_scratch_[poi], ArcSet{}));
    seen_scratch_[poi] = 0;
  }
  return out;
}

bool SelectionEnvironment::remove_collection(NodeId node) {
  const auto it = loaded_.find(node);
  if (it == loaded_.end()) return false;
  for (const std::size_t poi : it->second.touched) {
    std::vector<NodePoiCover>& covers = covers_[poi];
    const auto cover = std::find_if(covers.begin(), covers.end(),
                                    [&](const NodePoiCover& c) { return c.node == node; });
    PHOTODTN_CHECK_MSG(cover != covers.end(),
                       "environment cover list out of sync with registry");
    covers.erase(cover);
    dirty_[poi] = 1;
  }
  loaded_.erase(it);
  return true;
}

void SelectionEnvironment::refresh(std::size_t poi) const {
  ++rebuilds_;
  double miss = 1.0;
  cover_scratch_.clear();
  for (const NodePoiCover& c : covers_[poi]) {
    miss *= 1.0 - c.p;
    cover_scratch_.push_back({c.p, &c.arcs});
  }
  pt_miss_[poi] = miss;
  miss_[poi].rebuild(cover_scratch_, model_->pois()[poi].profile(), event_scratch_);
  dirty_[poi] = 0;
  PHOTODTN_AUDIT(miss_[poi].audit());
}

double SelectionEnvironment::point_miss(std::size_t poi) const {
  if (dirty_.at(poi)) refresh(poi);
  return pt_miss_[poi];
}

const PiecewiseMiss& SelectionEnvironment::aspect_miss(std::size_t poi) const {
  if (dirty_.at(poi)) refresh(poi);
  return miss_[poi];
}

CoverageValue SelectionEnvironment::total() const {
  CoverageValue out;
  for (std::size_t poi = 0; poi < dirty_.size(); ++poi) {
    if (dirty_[poi]) refresh(poi);
    const PointOfInterest& p = model_->pois()[poi];
    const double w_max =
        p.profile() != nullptr && !p.profile()->is_uniform() ? p.profile()->total()
                                                             : kTwoPi;
    out.point += p.weight * (1.0 - pt_miss_[poi]);
    out.aspect += p.weight * (w_max - miss_[poi].full_integral());
  }
  return out;
}

void SelectionEnvironment::audit() const {
  PHOTODTN_CHECK_MSG(covers_.size() == model_->pois().size() &&
                         pt_miss_.size() == covers_.size() &&
                         miss_.size() == covers_.size() &&
                         dirty_.size() == covers_.size(),
                     "environment per-PoI arrays must match the model");
  std::vector<std::size_t> cover_counts(covers_.size(), 0);
  // photodtn-lint: allow(unordered-iter): per-entry audit checks + commutative counts
  for (const auto& [node, entry] : loaded_) {
    PHOTODTN_CHECK_MSG(is_probability(entry.delivery_prob),
                       "loaded collection delivery probability must be in [0, 1]");
    PHOTODTN_CHECK_MSG(std::is_sorted(entry.touched.begin(), entry.touched.end()) &&
                           std::adjacent_find(entry.touched.begin(),
                                              entry.touched.end()) == entry.touched.end(),
                       "loaded touched-PoI lists must be sorted and unique");
    for (const std::size_t poi : entry.touched) {
      PHOTODTN_CHECK_MSG(poi < covers_.size(), "touched PoI out of range");
      const auto& covers = covers_[poi];
      const auto it = std::find_if(covers.begin(), covers.end(),
                                   [&](const NodePoiCover& c) { return c.node == node; });
      PHOTODTN_CHECK_MSG(it != covers.end(),
                         "touched PoI missing this node's cover entry");
      PHOTODTN_CHECK_MSG(it->p == entry.delivery_prob && !it->arcs.empty(),
                         "cover entry must carry the collection's p and arcs");
      it->arcs.audit();
      ++cover_counts[poi];
    }
  }
  for (std::size_t poi = 0; poi < covers_.size(); ++poi) {
    PHOTODTN_CHECK_MSG(covers_[poi].size() == cover_counts[poi],
                       "cover list holds entries no loaded collection owns");
    if (dirty_[poi]) continue;  // cached terms not built yet — nothing to verify
    double miss = 1.0;
    for (const NodePoiCover& c : covers_[poi]) miss *= 1.0 - c.p;
    PHOTODTN_CHECK_MSG(std::fabs(pt_miss_[poi] - miss) <= 1e-12,
                       "cached point-miss product out of date");
    miss_[poi].audit();
    // Cross-check the cached miss function against direct products at the
    // covers' interval midpoints (the same probe the pre-sweep builder used).
    for (const NodePoiCover& c : covers_[poi]) {
      for (const auto& [s, e] : c.arcs.intervals()) {
        const double mid = s + (e - s) / 2.0;
        double expect = 1.0;
        for (const NodePoiCover& o : covers_[poi])
          if (o.arcs.contains(mid)) expect *= 1.0 - o.p;
        PHOTODTN_CHECK_MSG(std::fabs(miss_[poi].value_at(mid) - expect) <= 1e-9,
                           "cached miss function out of date");
      }
    }
  }
}

// ------------------------------------------------------------- GreedyPhase

GreedyPhase::GreedyPhase(const SelectionEnvironment& env, double delivery_prob)
    : env_(&env),
      p_(delivery_prob),
      own_arcs_(env.model().pois().size()),
      own_covered_(env.model().pois().size(), 0) {
  PHOTODTN_CHECK_MSG(p_ > 0.0 && p_ <= 1.0, "selection needs p in (0, 1]");
}

CoverageValue GreedyPhase::gain(const PhotoFootprint& fp) const {
  CoverageValue g;
  for (const PoiArc& pa : fp.arcs) {
    const PointOfInterest& poi = env_->model().pois()[pa.poi_index];
    if (!own_covered_[pa.poi_index])
      g.point += poi.weight * env_->point_miss(pa.poi_index) * p_;
    // Split a wrapping arc into linear pieces.
    const double start = normalize_angle(pa.arc.start);
    const double end = start + std::min(pa.arc.length, kTwoPi);
    const PiecewiseMiss& env_fn = env_->aspect_miss(pa.poi_index);
    const ArcSet& own = own_arcs_[pa.poi_index];
    double integral = 0.0;
    if (end <= kTwoPi) {
      integral = env_fn.integrate_excluding(start, end, own);
    } else {
      integral = env_fn.integrate_excluding(start, kTwoPi, own) +
                 env_fn.integrate_excluding(0.0, end - kTwoPi, own);
    }
    g.aspect += poi.weight * p_ * integral;
  }
  return g;
}

void GreedyPhase::commit(const PhotoFootprint& fp) {
  for (const PoiArc& pa : fp.arcs) {
    own_covered_[pa.poi_index] = 1;
    own_arcs_[pa.poi_index].add(pa.arc);
  }
  PHOTODTN_AUDIT(audit());
}

void GreedyPhase::audit() const {
  PHOTODTN_CHECK_MSG(own_arcs_.size() == own_covered_.size(),
                     "GreedyPhase parallel arrays must agree in size");
  for (std::size_t poi = 0; poi < own_arcs_.size(); ++poi) {
    own_arcs_[poi].audit();
    PHOTODTN_CHECK_MSG((own_covered_[poi] != 0) == !own_arcs_[poi].empty(),
                       "point-covered flag must match committed arc presence");
  }
}

}  // namespace photodtn
