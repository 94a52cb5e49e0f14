#include "selection/selection_env.h"

#include <gtest/gtest.h>

#include "geometry/angle.h"
#include "oracles/expected_coverage.h"
#include "test_util.h"
#include "util/rng.h"

namespace photodtn {
namespace {

using test::make_poi;
using test::photo_viewing;

struct EnvFixture {
  explicit EnvFixture(CoverageModel m) : model(std::move(m)) { others.reserve(16); }

  void add_other(NodeId id, double p, std::vector<PhotoMeta> photos) {
    others.push_back(NodeCollection{id, p, {}});
    for (const PhotoMeta& ph : photos) {
      fps.push_back(std::make_unique<PhotoFootprint>(model.footprint(ph)));
      others.back().footprints.push_back(fps.back().get());
    }
  }

  CoverageModel model;
  std::vector<NodeCollection> others;
  std::vector<std::unique_ptr<PhotoFootprint>> fps;
};

TEST(SelectionEnv, EmptyEnvironmentGivesFullGain) {
  EnvFixture f(test::single_poi_model(30.0));
  SelectionEnvironment env(f.model, f.others);
  GreedyPhase phase(env, 1.0);
  const auto fp = f.model.footprint(photo_viewing(f.model.pois()[0], 0.0));
  const CoverageValue g = phase.gain(fp);
  EXPECT_NEAR(g.point, 1.0, 1e-12);
  EXPECT_NEAR(g.aspect, deg_to_rad(60.0), 1e-9);
}

TEST(SelectionEnv, GainScalesWithOwnDeliveryProbability) {
  EnvFixture f(test::single_poi_model(30.0));
  SelectionEnvironment env(f.model, f.others);
  GreedyPhase phase(env, 0.25);
  const auto fp = f.model.footprint(photo_viewing(f.model.pois()[0], 0.0));
  const CoverageValue g = phase.gain(fp);
  EXPECT_NEAR(g.point, 0.25, 1e-12);
  EXPECT_NEAR(g.aspect, 0.25 * deg_to_rad(60.0), 1e-9);
}

TEST(SelectionEnv, EnvironmentDiscountsCoveredAspects) {
  // Another node (p = 0.8) already covers the same arc; our photo's aspect
  // gain there shrinks to the environment's miss probability 0.2.
  EnvFixture f(test::single_poi_model(30.0));
  const PhotoMeta same_view = photo_viewing(f.model.pois()[0], 0.0);
  f.add_other(2, 0.8, {same_view});
  SelectionEnvironment env(f.model, f.others);
  GreedyPhase phase(env, 1.0);
  const CoverageValue g = phase.gain(f.model.footprint(same_view));
  EXPECT_NEAR(g.point, 0.2, 1e-12);
  EXPECT_NEAR(g.aspect, 0.2 * deg_to_rad(60.0), 1e-9);
}

TEST(SelectionEnv, DisjointAspectUnaffectedByEnvironment) {
  EnvFixture f(test::single_poi_model(30.0));
  f.add_other(2, 0.8, {photo_viewing(f.model.pois()[0], 180.0)});
  SelectionEnvironment env(f.model, f.others);
  GreedyPhase phase(env, 1.0);
  const CoverageValue g = phase.gain(f.model.footprint(photo_viewing(f.model.pois()[0], 0.0)));
  // Point gain discounted (the PoI is probably covered), aspect gain full
  // (the arcs do not overlap).
  EXPECT_NEAR(g.point, 0.2, 1e-12);
  EXPECT_NEAR(g.aspect, deg_to_rad(60.0), 1e-9);
}

TEST(SelectionEnv, CommitReducesSubsequentGains) {
  EnvFixture f(test::single_poi_model(30.0));
  SelectionEnvironment env(f.model, f.others);
  GreedyPhase phase(env, 1.0);
  const auto fp1 = f.model.footprint(photo_viewing(f.model.pois()[0], 0.0));
  const auto fp2 = f.model.footprint(photo_viewing(f.model.pois()[0], 20.0));
  phase.commit(fp1);
  const CoverageValue g = phase.gain(fp2);
  EXPECT_NEAR(g.point, 0.0, 1e-12);  // own selection already covers the PoI
  // Views from 0 and 20 degrees overlap by 40 degrees: only 20 remain.
  EXPECT_NEAR(g.aspect, deg_to_rad(20.0), 1e-9);
}

TEST(SelectionEnv, GainPlusCommitTracksExpectedCoverageDelta) {
  // Property: the incremental gain equals the difference of exact expected
  // coverage with and without the photo, for random environments.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    PoiList pois;
    for (int i = 0; i < 3; ++i)
      pois.push_back(make_poi(rng.uniform(-150.0, 150.0), rng.uniform(-150.0, 150.0), i));
    EnvFixture f(CoverageModel{pois, deg_to_rad(30.0)});
    for (int n = 0; n < 3; ++n) {
      std::vector<PhotoMeta> photos;
      for (int k = 0; k < 2; ++k) {
        const auto& poi = pois[static_cast<std::size_t>(rng.uniform_int(0, 2))];
        photos.push_back(photo_viewing(poi, rng.uniform(0.0, 360.0)));
      }
      f.add_other(static_cast<NodeId>(n + 2), rng.uniform(0.1, 0.9), photos);
    }
    const double p_self = rng.uniform(0.1, 1.0);

    SelectionEnvironment env(f.model, f.others);
    GreedyPhase phase(env, p_self);

    // Self collection grows photo by photo; compare against the oracle.
    std::vector<NodeCollection> oracle_nodes = f.others;
    oracle_nodes.push_back(NodeCollection{1, p_self, {}});
    std::vector<std::unique_ptr<PhotoFootprint>> own_fps;
    CoverageValue prev = oracle::expected_coverage_exact(f.model, oracle_nodes);
    for (int k = 0; k < 4; ++k) {
      const auto& poi = pois[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      own_fps.push_back(std::make_unique<PhotoFootprint>(
          f.model.footprint(photo_viewing(poi, rng.uniform(0.0, 360.0)))));
      const CoverageValue g = phase.gain(*own_fps.back());
      phase.commit(*own_fps.back());
      oracle_nodes.back().footprints.push_back(own_fps.back().get());
      const CoverageValue now = oracle::expected_coverage_exact(f.model, oracle_nodes);
      EXPECT_NEAR(g.point, now.point - prev.point, 1e-9) << trial << "," << k;
      EXPECT_NEAR(g.aspect, now.aspect - prev.aspect, 1e-9) << trial << "," << k;
      prev = now;
    }
  }
}

TEST(SelectionEnv, GainTracksExpectedCoverageDeltaWithProfiles) {
  // The incremental gain must equal the exact expected-coverage delta when
  // PoIs carry aspect-weight profiles.
  Rng rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    PoiList pois;
    for (int i = 0; i < 2; ++i) {
      auto profile = std::make_shared<AspectProfile>();
      profile->set_band(Arc{rng.uniform(0.0, kTwoPi), rng.uniform(0.3, 2.0)},
                        rng.uniform(0.0, 5.0));
      pois.push_back(PointOfInterest{i,
                                     {rng.uniform(-150.0, 150.0), rng.uniform(-150.0, 150.0)},
                                     1.0,
                                     std::move(profile)});
    }
    EnvFixture f(CoverageModel{pois, deg_to_rad(30.0)});
    f.add_other(5, rng.uniform(0.2, 0.9),
                {photo_viewing(pois[0], rng.uniform(0.0, 360.0)),
                 photo_viewing(pois[1], rng.uniform(0.0, 360.0))});
    const double p_self = rng.uniform(0.2, 1.0);

    SelectionEnvironment env(f.model, f.others);
    GreedyPhase phase(env, p_self);
    std::vector<NodeCollection> oracle_nodes = f.others;
    oracle_nodes.push_back(NodeCollection{1, p_self, {}});
    std::vector<std::unique_ptr<PhotoFootprint>> own;
    CoverageValue prev = oracle::expected_coverage_exact(f.model, oracle_nodes);
    for (int k = 0; k < 3; ++k) {
      const auto& poi = pois[static_cast<std::size_t>(rng.uniform_int(0, 1))];
      own.push_back(std::make_unique<PhotoFootprint>(
          f.model.footprint(photo_viewing(poi, rng.uniform(0.0, 360.0)))));
      const CoverageValue g = phase.gain(*own.back());
      phase.commit(*own.back());
      oracle_nodes.back().footprints.push_back(own.back().get());
      const CoverageValue now = oracle::expected_coverage_exact(f.model, oracle_nodes);
      EXPECT_NEAR(g.point, now.point - prev.point, 1e-9) << trial << "," << k;
      EXPECT_NEAR(g.aspect, now.aspect - prev.aspect, 1e-9) << trial << "," << k;
      prev = now;
    }
  }
}

TEST(SelectionEnv, PiecewiseMissValueAt) {
  EnvFixture f(test::single_poi_model(30.0));
  f.add_other(2, 0.6, {photo_viewing(f.model.pois()[0], 0.0)});  // arc [-30, 30]
  SelectionEnvironment env(f.model, f.others);
  const PiecewiseMiss& pm = env.aspect_miss(0);
  EXPECT_NEAR(pm.value_at(0.0), 0.4, 1e-12);
  EXPECT_NEAR(pm.value_at(deg_to_rad(29.0)), 0.4, 1e-12);
  EXPECT_NEAR(pm.value_at(deg_to_rad(31.0)), 1.0, 1e-12);
  EXPECT_NEAR(pm.value_at(deg_to_rad(180.0)), 1.0, 1e-12);
  EXPECT_NEAR(pm.value_at(deg_to_rad(331.0)), 0.4, 1e-12);
}

TEST(SelectionEnv, RejectsZeroDeliveryProbability) {
  EnvFixture f(test::single_poi_model(30.0));
  SelectionEnvironment env(f.model, f.others);
  EXPECT_THROW(GreedyPhase(env, 0.0), std::logic_error);
  EXPECT_THROW(GreedyPhase(env, 1.5), std::logic_error);
}

}  // namespace
}  // namespace photodtn
