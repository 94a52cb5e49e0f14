// A set of arcs on the unit circle, kept as a canonical union of disjoint
// intervals. This is the data structure behind aspect coverage (Section II-B):
// each photo covering a PoI contributes an arc of width 2*theta centered on
// the PoI->camera heading, and the PoI's aspect coverage is the measure of
// the union of those arcs.
#pragma once

#include <utility>
#include <vector>

#include "persist/fwd.h"

namespace photodtn {

/// A single arc, by start heading (radians, any finite value — normalized on
/// use) and length in [0, 2*pi].
struct Arc {
  double start = 0.0;
  double length = 0.0;

  /// Arc of width 2*half_width centered on `center`.
  static Arc centered(double center, double half_width) noexcept;
};

class ArcSet {
 public:
  ArcSet() = default;

  /// Builds the union of the given arcs.
  static ArcSet from_arcs(const std::vector<Arc>& arcs);

  /// Inserts an arc, merging with existing intervals.
  void add(Arc arc);

  /// Union with another set.
  void unite(const ArcSet& other);

  /// Total angular measure covered, in [0, 2*pi].
  double measure() const noexcept;

  /// Whether the (normalized) angle lies in the covered set. Boundary points
  /// count as covered.
  bool contains(double angle) const noexcept;

  /// Measure that `arc` would add beyond the current coverage, without
  /// mutating the set. Equivalent to union-measure minus measure.
  double gain(Arc arc) const noexcept;

  /// Measure of the intersection with the linear interval [lo, hi],
  /// where 0 <= lo <= hi <= 2*pi (no wrap; split wrapping queries yourself).
  double overlap_linear(double lo, double hi) const noexcept;

  /// All interval endpoints, normalized to [0, 2*pi), sorted ascending and
  /// deduplicated. Used by the expected-coverage breakpoint integration.
  std::vector<double> boundaries() const;

  /// Appends exactly the sequence boundaries() returns to `out`, leaving the
  /// existing prefix untouched (no allocation when `out` has capacity).
  void append_boundaries(std::vector<double>& out) const;

  bool empty() const noexcept { return intervals_.empty(); }
  /// True when the whole circle is covered.
  bool full() const noexcept;

  /// Disjoint covered intervals as [start, end) pairs with
  /// 0 <= start < end <= 2*pi, sorted by start. A set covering the wrap point
  /// appears as two pieces (one ending at 2*pi, one starting at 0).
  const std::vector<std::pair<double, double>>& intervals() const noexcept {
    return intervals_;
  }

  bool operator==(const ArcSet&) const = default;

  /// Deep invariant check (audit builds / tests): intervals are sorted by
  /// start, pairwise disjoint, each normalized to 0 <= start < end <= 2*pi,
  /// and the total measure does not exceed the circle. Throws std::logic_error
  /// on violation.
  void audit() const;

 private:
  // Restore writes the canonical intervals back verbatim (then audits):
  // re-adding them through add() could renormalize with different rounding.
  friend struct persist::StateAccess;

  void insert_linear(double lo, double hi);

  std::vector<std::pair<double, double>> intervals_;
};

}  // namespace photodtn
