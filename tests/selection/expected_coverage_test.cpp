#include "oracles/expected_coverage.h"

#include <gtest/gtest.h>

#include <vector>

#include "test_util.h"
#include "util/rng.h"
#include "workload/photo_gen.h"
#include "workload/poi_gen.h"

namespace photodtn {
namespace {

using test::make_poi;
using test::photo_viewing;

/// Owns footprints so NodeCollection pointers stay valid.
struct Fixture {
  explicit Fixture(CoverageModel m) : model(std::move(m)) {
    nodes.reserve(32);  // keep add_node references stable
  }

  NodeCollection& add_node(NodeId id, double p) {
    nodes.push_back(NodeCollection{id, p, {}});
    return nodes.back();
  }

  void give(NodeCollection& nc, const PhotoMeta& photo) {
    footprints.push_back(std::make_unique<PhotoFootprint>(model.footprint(photo)));
    nc.footprints.push_back(footprints.back().get());
  }

  CoverageModel model;
  std::vector<NodeCollection> nodes;
  std::vector<std::unique_ptr<PhotoFootprint>> footprints;
};

TEST(ExpectedCoverage, SingleCertainNodeEqualsPlainCoverage) {
  Fixture f(test::single_poi_model(30.0));
  auto& n = f.add_node(1, 1.0);
  f.give(n, photo_viewing(f.model.pois()[0], 0.0));
  const CoverageValue ex = oracle::expected_coverage_exact(f.model, f.nodes);
  EXPECT_NEAR(ex.point, 1.0, 1e-12);
  EXPECT_NEAR(ex.aspect, deg_to_rad(60.0), 1e-9);
}

TEST(ExpectedCoverage, SingleUncertainNodeScalesByP) {
  Fixture f(test::single_poi_model(30.0));
  auto& n = f.add_node(1, 0.3);
  f.give(n, photo_viewing(f.model.pois()[0], 0.0));
  const CoverageValue ex = oracle::expected_coverage_exact(f.model, f.nodes);
  EXPECT_NEAR(ex.point, 0.3, 1e-12);
  EXPECT_NEAR(ex.aspect, 0.3 * deg_to_rad(60.0), 1e-9);
}

TEST(ExpectedCoverage, TwoNodesSamePhotoComplementaryProbability) {
  // Both nodes carry an identical view: the PoI is covered unless both fail.
  Fixture f(test::single_poi_model(30.0));
  const PhotoMeta p = photo_viewing(f.model.pois()[0], 0.0);
  auto& n1 = f.add_node(1, 0.5);
  f.give(n1, p);
  auto& n2 = f.add_node(2, 0.5);
  f.give(n2, p);
  const CoverageValue ex = oracle::expected_coverage_exact(f.model, f.nodes);
  EXPECT_NEAR(ex.point, 0.75, 1e-12);  // 1 - 0.5 * 0.5
  EXPECT_NEAR(ex.aspect, 0.75 * deg_to_rad(60.0), 1e-9);
}

TEST(ExpectedCoverage, PaperExampleFormulaTwo) {
  // Formula (2): M = {n_0, n_a, n_b} with the center's fixed collection.
  const PointOfInterest poi = make_poi(0.0, 0.0);
  Fixture f(CoverageModel{{poi}, deg_to_rad(30.0)});
  const double pa = 0.7, pb = 0.4;
  auto& n0 = f.add_node(kCommandCenter, 1.0);
  f.give(n0, photo_viewing(poi, 0.0));  // already delivered: arc at 0
  auto& na = f.add_node(1, pa);
  f.give(na, photo_viewing(poi, 90.0));
  auto& nb = f.add_node(2, pb);
  f.give(nb, photo_viewing(poi, 180.0));
  const CoverageValue ex = oracle::expected_coverage_exact(f.model, f.nodes);
  // Hand computation: F0 alone covers 60 deg; each additional disjoint view
  // adds 60 deg with its probability.
  EXPECT_NEAR(ex.point, 1.0, 1e-12);
  const double expected_aspect =
      deg_to_rad(60.0) * (1.0 + pa + pb);  // disjoint arcs: linearity
  EXPECT_NEAR(ex.aspect, expected_aspect, 1e-9);
}

TEST(ExpectedCoverage, ExactMatchesEnumerationOnRandomInstances) {
  // The polynomial-time evaluator must agree with the literal 2^m sum of
  // Definition 2 on arbitrary instances.
  Rng rng(1234);
  for (int trial = 0; trial < 25; ++trial) {
    PoiList pois;
    const int npois = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < npois; ++i)
      pois.push_back(make_poi(rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0), i,
                              rng.uniform(0.5, 2.0)));
    Fixture f(CoverageModel{pois, deg_to_rad(rng.uniform(15.0, 45.0))});
    const int m = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < m; ++i) {
      auto& n = f.add_node(static_cast<NodeId>(i), rng.uniform(0.0, 1.0));
      const int photos = static_cast<int>(rng.uniform_int(0, 4));
      for (int k = 0; k < photos; ++k) {
        const auto& poi = pois[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pois.size()) - 1))];
        f.give(n, photo_viewing(poi, rng.uniform(0.0, 360.0),
                                rng.uniform(50.0, 150.0)));
      }
    }
    const CoverageValue exact = oracle::expected_coverage_exact(f.model, f.nodes);
    const CoverageValue enumerated =
        oracle::expected_coverage_enumerate(f.model, f.nodes);
    EXPECT_NEAR(exact.point, enumerated.point, 1e-9) << "trial " << trial;
    EXPECT_NEAR(exact.aspect, enumerated.aspect, 1e-9) << "trial " << trial;
  }
}

TEST(ExpectedCoverage, ExactMatchesEnumerationWithAspectProfiles) {
  // The weighted-aspect extension must agree between the fast evaluator and
  // the literal Definition 2 sum (CoverageMap honours profiles, so the
  // enumeration oracle is weighted automatically).
  Rng rng(4321);
  for (int trial = 0; trial < 15; ++trial) {
    PoiList pois;
    const int npois = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < npois; ++i) {
      auto profile = std::make_shared<AspectProfile>();
      const int bands = static_cast<int>(rng.uniform_int(0, 3));
      for (int b = 0; b < bands; ++b)
        profile->set_band(Arc{rng.uniform(0.0, kTwoPi), rng.uniform(0.2, 2.0)},
                          rng.uniform(0.0, 4.0));
      pois.push_back(PointOfInterest{i,
                                     {rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0)},
                                     rng.uniform(0.5, 2.0),
                                     std::move(profile)});
    }
    Fixture f(CoverageModel{pois, deg_to_rad(rng.uniform(15.0, 45.0))});
    const int m = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < m; ++i) {
      auto& n = f.add_node(static_cast<NodeId>(i), rng.uniform(0.0, 1.0));
      const int photos = static_cast<int>(rng.uniform_int(0, 3));
      for (int k = 0; k < photos; ++k) {
        const auto& poi = pois[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pois.size()) - 1))];
        f.give(n, photo_viewing(poi, rng.uniform(0.0, 360.0), rng.uniform(50.0, 150.0)));
      }
    }
    const CoverageValue exact = oracle::expected_coverage_exact(f.model, f.nodes);
    const CoverageValue enumerated =
        oracle::expected_coverage_enumerate(f.model, f.nodes);
    EXPECT_NEAR(exact.point, enumerated.point, 1e-9) << "trial " << trial;
    EXPECT_NEAR(exact.aspect, enumerated.aspect, 1e-9) << "trial " << trial;
  }
}

TEST(ExpectedCoverage, MonteCarloConvergesToExact) {
  Fixture f(test::single_poi_model(30.0));
  auto& n1 = f.add_node(1, 0.6);
  f.give(n1, photo_viewing(f.model.pois()[0], 0.0));
  f.give(n1, photo_viewing(f.model.pois()[0], 90.0));
  auto& n2 = f.add_node(2, 0.3);
  f.give(n2, photo_viewing(f.model.pois()[0], 45.0));
  const CoverageValue exact = oracle::expected_coverage_exact(f.model, f.nodes);
  Rng rng(77);
  const CoverageValue mc =
      oracle::expected_coverage_monte_carlo(f.model, f.nodes, rng, 20000);
  EXPECT_NEAR(mc.point, exact.point, 0.02);
  EXPECT_NEAR(mc.aspect, exact.aspect, 0.05);
}

TEST(ExpectedCoverage, EmptyNodeSetIsZero) {
  Fixture f(test::single_poi_model());
  EXPECT_TRUE(oracle::expected_coverage_exact(f.model, f.nodes).is_zero());
  EXPECT_TRUE(oracle::expected_coverage_enumerate(f.model, f.nodes).is_zero());
}

TEST(ExpectedCoverage, EnumerationRejectsLargeSets) {
  Fixture f(test::single_poi_model());
  for (int i = 0; i < 21; ++i) f.add_node(static_cast<NodeId>(i), 0.5);
  EXPECT_THROW(oracle::expected_coverage_enumerate(f.model, f.nodes), std::logic_error);
}

TEST(ExpectedCoverage, MonotoneInDeliveryProbability) {
  for (const double p : {0.1, 0.3, 0.5, 0.9}) {
    Fixture lo(test::single_poi_model(30.0));
    auto& nl = lo.add_node(1, p);
    nl.delivery_prob = p;
    lo.give(nl, photo_viewing(lo.model.pois()[0], 0.0));
    Fixture hi(test::single_poi_model(30.0));
    auto& nh = hi.add_node(1, std::min(1.0, p + 0.05));
    hi.give(nh, photo_viewing(hi.model.pois()[0], 0.0));
    EXPECT_LT(oracle::expected_coverage_exact(lo.model, lo.nodes).aspect,
              oracle::expected_coverage_exact(hi.model, hi.nodes).aspect);
  }
}

}  // namespace
}  // namespace photodtn
