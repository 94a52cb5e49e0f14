// SelectionEnvironment + GreedyPhase: the incremental machinery behind the
// greedy photo selection of Section III-D.
//
// When node n selects photos, every *other* collection in the node set M is
// fixed. The expected coverage C_ex factors per PoI (Definition 2 +
// linearity of expectation), so the environment's effect on each PoI is
// captured by:
//   * a point "miss factor"  prod_{i != n covering PoI} (1 - p_i), and
//   * a piecewise-constant aspect "miss function"
//       env(v) = prod_{i != n: v in A_i} (1 - p_i)
// on the aspect circle. Adding one of n's photos then changes the expected
// coverage by exactly
//   dPoint  = w * miss * p_n                  (first covering photo only)
//   dAspect = w * p_n * integral over (arc minus n's already-selected arcs)
//             of env(v) * weight(v) dv,
// so each greedy step is a cheap local computation instead of a full C_ex
// re-evaluation, touching only the PoIs the candidate photo point-covers.
//
// The environment is *incremental*: collections can be added, extended and
// removed (metadata cached, expired, or photos committed at a contact), and
// only the PoIs the changed collection covers are marked dirty; their
// cached per-PoI state is rebuilt lazily on the next query. PiecewiseMiss
// carries prefix-sum integrals (with the PoI's aspect-weight profile baked
// into the segments), making one marginal-gain integral O(log B) in the
// number of environment breakpoints instead of O(B).
//
// One gain kernel: GreedyPhase::gain evaluates one candidate at a time on
// the calling thread. A simulation run owns its environment and selects on
// one thread; the thread pool only fans out whole runs (sim/experiment.h).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "coverage/coverage_model.h"
#include "coverage/coverage_value.h"
#include "geometry/arc_set.h"
#include "persist/fwd.h"

namespace photodtn {

/// A node's photo collection (as footprints) plus its delivery probability
/// toward the command center: one member of the node set M of Definition 2.
/// Footprint pointers must outlive the call they are passed to.
struct NodeCollection {
  NodeId node = -1;
  double delivery_prob = 0.0;
  std::vector<const PhotoFootprint*> footprints;
};

/// One node's share of one PoI: its delivery probability and the union of
/// its arcs on that PoI.
struct NodePoiCover {
  NodeId node = -1;
  double p = 0.0;
  ArcSet arcs;
};

/// One collection's arcs united per PoI: the touched PoIs in ascending order
/// and one ArcSet each (arcs[i] lies on pois[i]). Empty exactly when no
/// footprint of the collection is relevant.
struct PoiArcUnion {
  std::vector<std::size_t> pois;
  std::vector<ArcSet> arcs;

  bool empty() const noexcept { return pois.empty(); }
};

/// Piecewise-constant product-of-misses on the aspect circle of one PoI,
/// with prefix-sum integrals of env(v) * weight(v) for O(log B) range
/// integration. When built with a non-uniform AspectProfile, the profile's
/// breakpoints are merged into the segmentation and its weight multiplies
/// the stored integrals (value_at still returns the unweighted env value).
class PiecewiseMiss {
 public:
  /// Constant 1 (no other node covers this PoI, uniform weight).
  PiecewiseMiss() = default;

  /// One cover interval opening or closing during the build's sweep.
  struct SweepEvent {
    double angle;
    double factor;
    bool open;
  };

  /// Builds from the covering nodes' arc sets and delivery probabilities.
  /// `profile` (optional) bakes the PoI's aspect weighting into the
  /// integrals; a null or uniform profile means weight 1 everywhere.
  static PiecewiseMiss build(std::span<const std::pair<double, const ArcSet*>> covers,
                             const AspectProfile* profile = nullptr);

  /// build() into this object, reusing its arrays' capacity; `events` is
  /// caller-owned sweep scratch. The result is bitwise what build() returns.
  void rebuild(std::span<const std::pair<double, const ArcSet*>> covers,
               const AspectProfile* profile, std::vector<SweepEvent>& events);

  /// env value at an angle (unweighted miss product).
  double value_at(double angle) const noexcept;

  /// Integral of env(v) * weight(v) over [lo, hi], 0 <= lo <= hi <= 2*pi.
  /// O(log B) via the prefix sums.
  double integral(double lo, double hi) const noexcept;

  /// integral(lo, hi) minus the parts covered by `exclude`, for
  /// 0 <= lo <= hi <= 2*pi (linear; callers split wrapping arcs).
  /// O((1 + excluded intervals in range) * log B).
  double integrate_excluding(double lo, double hi, const ArcSet& exclude) const;

  /// Reference implementation of integrate_excluding that scans every
  /// segment (the pre-prefix-sum algorithm). Kept as the recorded perf
  /// baseline for the bench pipeline and as the audit cross-check; results
  /// agree with integrate_excluding to floating-point dust.
  double integrate_excluding_scan(double lo, double hi, const ArcSet& exclude) const;

  /// Integral of env(v) * weight(v) over the whole circle. The environment's
  /// expected *uncovered* aspect mass of the PoI; C_ex factors through it.
  double full_integral() const noexcept;

  /// Number of constant segments (0 for the constant function). The scan
  /// baseline is O(segment_count()) per integral; the prefix path O(log).
  std::size_t segment_count() const noexcept { return cuts_.size(); }

  /// Deep invariant check (audit builds / tests): cuts sorted, starting at
  /// 0, inside [0, 2*pi); values are probabilities; weights non-negative;
  /// prefix sums consistent with the per-segment rates. Throws
  /// std::logic_error on violation.
  void audit() const;

 private:
  double rate(std::size_t seg) const noexcept { return rates_[seg]; }
  std::size_t segment_of(double a) const noexcept;

  // Linear segmentation of [0, 2*pi): segment k spans
  // [cuts_[k], cuts_[k+1]) with the last ending at 2*pi; cuts_[0] == 0.
  // Empty cuts_ means miss 1 everywhere with uniform weight.
  std::vector<double> cuts_;
  std::vector<double> vals_;     // env miss product per segment
  std::vector<double> weights_;  // profile weight per segment; empty = 1
  std::vector<double> rates_;    // fused vals * weights (weight 1 if none)
  std::vector<double> prefix_;   // prefix_[k] = integral of env*w on [0, cuts_[k]);
                                 // size cuts_.size() + 1, last = full circle
  // Bucketized segment finder: lut_[b] is a segment index s with
  // cuts_[s] <= every angle in bucket b, so segment_of starts there and
  // advances at most a few cuts instead of binary-searching ~log B probes.
  // Buckets partition [0, 2*pi) evenly; lut_scale_ = bucket count / 2*pi.
  // Built only for dense functions (>= kLutMinSegments segments): sparse
  // ones rebuild far more often than they are probed, so they binary
  // search and lut_ stays empty with lut_scale_ == 0.
  static constexpr std::size_t kLutMinSegments = 32;
  std::vector<std::uint32_t> lut_;
  double lut_scale_ = 0.0;
};

class SelectionEnvironment {
 public:
  /// Empty environment (no other collections yet); grow with
  /// add_collection.
  explicit SelectionEnvironment(const CoverageModel& model);

  /// `others`: every collection in M except the node that will select.
  /// Equivalent to adding each collection in order.
  SelectionEnvironment(const CoverageModel& model,
                       std::span<const NodeCollection> others);

  /// Adds a collection (node ids must be unique; footprint pointers only
  /// need to live for the duration of the call — arcs are copied). Marks
  /// exactly the PoIs the collection point-covers dirty.
  void add_collection(const NodeCollection& collection);

  /// add_collection from a precomputed union of the collection's footprints
  /// (unite()): bitwise the same cover entries. Covers own their arcs, so
  /// passing a kept union copies it, and one shared union can load into
  /// many environments. The one loading routine behind add_collection and
  /// extend_collection's first load.
  void add_union(NodeId node, double delivery_prob, PoiArcUnion arcs);

  /// Unions the footprints' arcs per PoI, in list order, over this
  /// environment's PoI-indexed scratch: the routine add_collection and
  /// extend_collection load through. The result depends only on the
  /// footprints, so it may be kept and loaded into any environment over the
  /// same model.
  PoiArcUnion unite(std::span<const PhotoFootprint* const> footprints);

  /// Adds photos to an existing collection (or adds the collection when the
  /// node is not loaded). Used when a collection grows in place — e.g. the
  /// command center receiving deliveries mid-contact. Only PoIs whose
  /// covered arcs actually change are marked dirty.
  void extend_collection(NodeId node, double delivery_prob,
                         std::span<const PhotoFootprint* const> extra);

  /// Removes a collection; returns false when the node was not loaded.
  /// Marks only the PoIs the collection covered dirty.
  bool remove_collection(NodeId node);

  bool has_collection(NodeId node) const noexcept { return loaded_.contains(node); }
  std::size_t collection_count() const noexcept { return loaded_.size(); }

  /// Lifetime count of lazy per-PoI rebuilds (refresh() calls): how much
  /// cached state the dirty-marking actually recomputed. Deterministic —
  /// rebuilds happen on first query of a dirty PoI. Feeds the
  /// scheme.poi_rebuilds metric.
  std::uint64_t rebuild_count() const noexcept { return rebuilds_; }

  const CoverageModel& model() const noexcept { return *model_; }

  /// Per-PoI cached terms; dirty PoIs are rebuilt on access (lazily, so a
  /// burst of invalidations followed by queries touching few PoIs only pays
  /// for those). Thread-compatible, not thread-safe — like CoverageModel's
  /// footprint cache, each simulation run owns its environment.
  double point_miss(std::size_t poi) const;
  const PiecewiseMiss& aspect_miss(std::size_t poi) const;

  /// C_ex of the loaded collections (Definition 2), assembled from the
  /// per-PoI factors: point = sum w * (1 - miss), aspect = sum
  /// w * (W_profile - full_integral). Equals the exact reference evaluator
  /// (tests/oracles/expected_coverage.h) on the same collections.
  CoverageValue total() const;

  /// Deep invariant check (audit builds / tests): per-PoI cover lists
  /// consistent with the loaded-collection registry, point-miss products
  /// and piecewise miss functions match a from-scratch recomputation, arc
  /// sets canonical. Throws std::logic_error on violation.
  void audit() const;

 private:
  // Checkpoint/restore serializes the per-PoI cover lists *in list order*:
  // refresh() folds miss products in that order, so preserving it keeps the
  // rebuilt FP state bit-identical to the uninterrupted run's.
  friend struct persist::StateAccess;

  struct Loaded {
    double delivery_prob = 0.0;
    std::vector<std::size_t> touched;  // PoIs this collection covers
  };

  void refresh(std::size_t poi) const;

  const CoverageModel* model_;
  // Per-PoI state as parallel arrays (structure-of-arrays): the hot queries
  // — point_miss reads and the dirty checks of every gain evaluation — then
  // stream dense double/char arrays instead of striding over a struct that
  // drags each PoI's cover list and miss function through cache with it.
  // dirty_ starts all-1: the initial rebuild must bake in the PoI profile.
  mutable std::vector<std::vector<NodePoiCover>> covers_;
  mutable std::vector<double> pt_miss_;
  mutable std::vector<PiecewiseMiss> miss_;
  mutable std::vector<char> dirty_;
  mutable std::uint64_t rebuilds_ = 0;
  std::unordered_map<NodeId, Loaded> loaded_;
  // unite() scratch, PoI-indexed; each call leaves it all-empty again.
  std::vector<ArcSet> arc_scratch_;
  std::vector<char> seen_scratch_;
  // refresh() scratch, reused across rebuilds so a rebuild allocates only
  // when a PoI's miss function outgrows every earlier one.
  mutable std::vector<std::pair<double, const ArcSet*>> cover_scratch_;
  mutable std::vector<PiecewiseMiss::SweepEvent> event_scratch_;
};

class GreedyPhase {
 public:
  /// `delivery_prob` is the selecting node's p, already floored by the
  /// caller if desired (a common positive factor never changes the greedy
  /// order, but a literal 0 would make every gain zero and stall selection).
  GreedyPhase(const SelectionEnvironment& env, double delivery_prob);

  /// Expected-coverage gain of adding this footprint to the tentative
  /// selection (lexicographic CoverageValue).
  CoverageValue gain(const PhotoFootprint& fp) const;

  /// Adds the footprint to the tentative selection.
  void commit(const PhotoFootprint& fp);

  double delivery_prob() const noexcept { return p_; }

  /// The tentative selection's arcs on a PoI (for tests).
  const ArcSet& own_arcs(std::size_t poi) const { return own_arcs_.at(poi); }

  /// Deep invariant check (audit builds / tests): committed arc sets are
  /// canonical and the point-covered flags match arc presence exactly.
  void audit() const;

 private:
  const SelectionEnvironment* env_;
  double p_;
  std::vector<ArcSet> own_arcs_;
  std::vector<char> own_covered_;
};

}  // namespace photodtn
