#include "geometry/arc_set.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "geometry/angle.h"
#include "util/check.h"

namespace photodtn {

namespace {
// Intervals closer than this are merged; keeps the canonical form stable
// under floating-point noise from repeated normalization.
constexpr double kEps = 1e-12;
}  // namespace

Arc Arc::centered(double center, double half_width) noexcept {
  return Arc{center - half_width, 2.0 * half_width};
}

ArcSet ArcSet::from_arcs(const std::vector<Arc>& arcs) {
  ArcSet s;
  for (const Arc& a : arcs) s.add(a);
  return s;
}

void ArcSet::audit() const {
  double total = 0.0;
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    const auto& [s, e] = intervals_[i];
    PHOTODTN_CHECK_MSG(std::isfinite(s) && std::isfinite(e),
                       "ArcSet interval endpoints must be finite");
    PHOTODTN_CHECK_MSG(s >= 0.0 && s < kTwoPi, "ArcSet interval start outside [0, 2*pi)");
    PHOTODTN_CHECK_MSG(e > s, "ArcSet interval must have positive length");
    PHOTODTN_CHECK_MSG(e <= kTwoPi + kEps, "ArcSet interval end beyond 2*pi");
    if (i > 0) {
      // Strictly after the previous interval: sorted and disjoint. Touching
      // within kEps would have been merged by insert_linear.
      PHOTODTN_CHECK_MSG(s > intervals_[i - 1].second,
                         "ArcSet intervals must be sorted and disjoint");
    }
    total += e - s;
  }
  PHOTODTN_CHECK_MSG(total <= kTwoPi + intervals_.size() * kEps,
                     "ArcSet total measure exceeds the circle");
}

void ArcSet::insert_linear(double lo, double hi) {
  // Inserts [lo, hi) with 0 <= lo < hi <= 2*pi into the sorted disjoint list.
  if (hi - lo <= kEps) return;
  std::vector<std::pair<double, double>> out;
  out.reserve(intervals_.size() + 1);
  bool placed = false;
  for (const auto& [s, e] : intervals_) {
    if (e < lo - kEps) {
      out.push_back({s, e});
    } else if (s > hi + kEps) {
      if (!placed) {
        out.push_back({lo, hi});
        placed = true;
      }
      out.push_back({s, e});
    } else {
      // Overlaps or touches: absorb into the pending interval.
      lo = std::min(lo, s);
      hi = std::max(hi, e);
    }
  }
  if (!placed) out.push_back({lo, hi});
  std::sort(out.begin(), out.end());
  intervals_ = std::move(out);
}

void ArcSet::add(Arc arc) {
  PHOTODTN_CHECK_MSG(arc.length >= 0.0, "arc length must be non-negative");
  if (arc.length <= kEps) return;
  if (arc.length >= kTwoPi - kEps) {
    intervals_ = {{0.0, kTwoPi}};
    return;
  }
  const double start = normalize_angle(arc.start);
  const double end = start + arc.length;
  if (end <= kTwoPi) {
    insert_linear(start, end);
  } else {
    insert_linear(start, kTwoPi);
    insert_linear(0.0, end - kTwoPi);
    // The two pieces may now both touch the wrap point; measure/contains
    // handle that without further canonicalization.
  }
  PHOTODTN_AUDIT(audit());
}

void ArcSet::unite(const ArcSet& other) {
  for (const auto& [s, e] : other.intervals_) insert_linear(s, e);
  PHOTODTN_AUDIT(audit());
}

double ArcSet::measure() const noexcept {
  double total = 0.0;
  for (const auto& [s, e] : intervals_) total += e - s;
  return std::min(total, kTwoPi);
}

bool ArcSet::contains(double angle) const noexcept {
  const double a = normalize_angle(angle);
  // Binary search for the last interval with start <= a.
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), a,
      [](double v, const std::pair<double, double>& iv) { return v < iv.first; });
  if (it != intervals_.begin()) {
    const auto& [s, e] = *std::prev(it);
    if (a >= s - kEps && a <= e + kEps) return true;
  }
  // Boundary case: a == start of *it within eps.
  if (it != intervals_.end() && std::fabs(it->first - a) <= kEps) return true;
  return false;
}

double ArcSet::overlap_linear(double lo, double hi) const noexcept {
  double ov = 0.0;
  for (const auto& [s, e] : intervals_) {
    const double l = std::max(lo, s);
    const double h = std::min(hi, e);
    if (h > l) ov += h - l;
  }
  return ov;
}

double ArcSet::gain(Arc arc) const noexcept {
  if (arc.length <= kEps) return 0.0;
  if (full()) return 0.0;
  // Overlap of the (possibly wrapping) arc with existing intervals.
  const double start = normalize_angle(arc.start);
  const double len = std::min(arc.length, kTwoPi);
  double overlap = 0.0;
  const double end = start + len;
  if (end <= kTwoPi) {
    overlap = overlap_linear(start, end);
  } else {
    overlap = overlap_linear(start, kTwoPi) + overlap_linear(0.0, end - kTwoPi);
  }
  const double g = len - overlap;
  // Normalization of wrapping arcs leaves sub-epsilon residue; a gain below
  // the canonicalization epsilon is indistinguishable from zero.
  return g <= kEps ? 0.0 : g;
}

std::vector<double> ArcSet::boundaries() const {
  std::vector<double> out;
  append_boundaries(out);
  return out;
}

void ArcSet::append_boundaries(std::vector<double>& out) const {
  const auto first = static_cast<std::ptrdiff_t>(out.size());
  for (const auto& [s, e] : intervals_) {
    out.push_back(normalize_angle(s));
    out.push_back(e >= kTwoPi - kEps ? 0.0 : normalize_angle(e));
  }
  std::sort(out.begin() + first, out.end());
  out.erase(std::unique(out.begin() + first, out.end(),
                        [](double a, double b) { return std::fabs(a - b) <= kEps; }),
            out.end());
}

bool ArcSet::full() const noexcept { return measure() >= kTwoPi - 1e-9; }

}  // namespace photodtn
