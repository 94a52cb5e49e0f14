#include "selection/selection_env.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "geometry/angle.h"
#include "selection/metadata_cache.h"
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

/// Equal bit for bit: EXPECT_EQ on doubles, no tolerance.
void expect_same_pieces(const PiecewiseMiss& got, const PiecewiseMiss& want) {
  EXPECT_EQ(got.segment_count(), want.segment_count());
  EXPECT_EQ(got.full_integral(), want.full_integral());
  for (int k = 0; k <= 720; ++k) {
    const double a = kTwoPi * k / 720.0;
    EXPECT_EQ(got.value_at(a), want.value_at(a)) << a;
    EXPECT_EQ(got.integral(0.0, a), want.integral(0.0, a)) << a;
    EXPECT_EQ(got.integral(a / 3.0, a), want.integral(a / 3.0, a)) << a;
  }
  EXPECT_NO_THROW(got.audit());
}

TEST(PiecewiseMissRebuild, InPlaceEqualsFreshBuildThroughEveryShape) {
  // One object rebuilt dense (with LUT) -> constant -> sparse -> dense with
  // a profile: each step must equal a fresh build() of the same covers,
  // whatever the arrays held before.
  Rng rng(4242);
  auto random_sets = [&](int n, int arcs_each) {
    std::vector<ArcSet> sets(static_cast<std::size_t>(n));
    for (ArcSet& s : sets)
      for (int i = 0; i < arcs_each; ++i)
        s.add({rng.uniform(0.0, kTwoPi), rng.uniform(0.05, 0.4)});
    return sets;
  };
  auto covers_of = [&](const std::vector<ArcSet>& sets) {
    std::vector<std::pair<double, const ArcSet*>> covers;
    for (const ArcSet& s : sets) covers.push_back({rng.uniform(0.05, 0.95), &s});
    return covers;
  };
  const std::vector<ArcSet> dense = random_sets(12, 3);
  const std::vector<ArcSet> sparse = random_sets(2, 1);
  const std::vector<ArcSet> dense2 = random_sets(16, 2);
  AspectProfile profile;
  profile.set_band(Arc{1.0, 2.0}, 3.0);
  struct Step {
    std::vector<std::pair<double, const ArcSet*>> covers;
    const AspectProfile* profile;
  };
  const std::vector<Step> steps = {
      {covers_of(dense), nullptr},
      {{}, nullptr},  // nothing covers the PoI: constant 1
      {covers_of(sparse), nullptr},
      {covers_of(dense2), &profile},
  };
  PiecewiseMiss pm;
  std::vector<PiecewiseMiss::SweepEvent> events;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    SCOPED_TRACE(i);
    pm.rebuild(steps[i].covers, steps[i].profile, events);
    const PiecewiseMiss fresh = PiecewiseMiss::build(steps[i].covers, steps[i].profile);
    expect_same_pieces(pm, fresh);
  }
  // The steps really do cover every shape.
  EXPECT_GE(PiecewiseMiss::build(steps[0].covers).segment_count(), 32u);
  EXPECT_EQ(PiecewiseMiss::build(steps[1].covers).segment_count(), 0u);
  EXPECT_EQ(PiecewiseMiss::build(steps[1].covers).value_at(1.0), 1.0);
  EXPECT_GT(PiecewiseMiss::build(steps[2].covers).segment_count(), 0u);
  EXPECT_LT(PiecewiseMiss::build(steps[2].covers).segment_count(), 32u);
  EXPECT_GE(PiecewiseMiss::build(steps[3].covers, &profile).segment_count(), 32u);
}

TEST(PiecewiseMissRebuild, FullCircleCoverIsOneSegment) {
  // A full circle still contributes the cut 0, so only an uncovered PoI
  // builds the segment-free constant 1.
  ArcSet full;
  full.add({0.0, kTwoPi});
  ASSERT_TRUE(full.full());
  const std::vector<std::pair<double, const ArcSet*>> covers = {{0.3, &full}};
  const PiecewiseMiss pm = PiecewiseMiss::build(covers);
  EXPECT_EQ(pm.segment_count(), 1u);
  EXPECT_EQ(pm.value_at(2.0), 1.0 - 0.3);
  EXPECT_EQ(pm.full_integral(), (1.0 - 0.3) * kTwoPi);
  EXPECT_NO_THROW(pm.audit());
}

TEST(SelectionEnv, MemoizedUnionLoadsBitwiseLikeAddCollection) {
  // A snapshot's memoized union, loaded with add_union into two engines (the
  // second a memo hit), gives bit-identical per-PoI factors and totals to
  // add_collection of the same relevant footprints.
  Rng rng(31337);
  for (int trial = 0; trial < 10; ++trial) {
    PoiList pois;
    for (int i = 0; i < 6; ++i) {
      pois.push_back(make_poi(rng.uniform(-200.0, 200.0), rng.uniform(-200.0, 200.0), i));
      if (i % 3 == 0) {
        auto profile = std::make_shared<AspectProfile>();
        profile->set_band(Arc{rng.uniform(0.0, kTwoPi), 1.0}, 2.5);
        pois.back().aspect_profile = std::move(profile);
      }
    }
    const CoverageModel model(pois, deg_to_rad(30.0));
    std::vector<std::shared_ptr<const MetadataSnapshot>> snaps;
    std::vector<NodeCollection> collections;
    for (NodeId node = 2; node < 8; ++node) {
      std::vector<PhotoMeta> photos;
      for (int k = 0; k < 5; ++k) {
        const auto& poi = pois[static_cast<std::size_t>(rng.uniform_int(0, 5))];
        photos.push_back(photo_viewing(poi, rng.uniform(0.0, 360.0)));
      }
      photos.push_back(test::make_photo(5000.0, 5000.0, 0.0));  // covers nothing
      NodeCollection nc{node, rng.uniform(0.1, 1.0), {}};
      for (const PhotoMeta& p : photos) {
        const PhotoFootprint& fp = model.footprint_cached(p);
        if (fp.relevant()) nc.footprints.push_back(&fp);
      }
      collections.push_back(nc);
      snaps.push_back(std::make_shared<const MetadataSnapshot>(std::move(photos)));
    }
    SelectionEnvironment direct(model, collections);
    SelectionEnvironment first(model), second(model);
    for (std::size_t i = 0; i < collections.size(); ++i) {
      const NodeCollection& nc = collections[i];
      first.add_union(nc.node, nc.delivery_prob, snaps[i]->arc_union(first));
      const PoiArcUnion* memo = &snaps[i]->arc_union(second);
      EXPECT_EQ(memo, &snaps[i]->arc_union(first));  // computed once
      second.add_union(nc.node, nc.delivery_prob, *memo);
    }
    for (const SelectionEnvironment* env : {&first, &second}) {
      for (std::size_t poi = 0; poi < pois.size(); ++poi) {
        EXPECT_EQ(env->point_miss(poi), direct.point_miss(poi));
        EXPECT_EQ(env->aspect_miss(poi).full_integral(),
                  direct.aspect_miss(poi).full_integral());
      }
      const CoverageValue t = env->total();
      const CoverageValue want = direct.total();
      EXPECT_EQ(t.point, want.point);
      EXPECT_EQ(t.aspect, want.aspect);
      EXPECT_NO_THROW(env->audit());
    }
  }
}

TEST(SelectionEnv, SnapshotUnionServesOneModel) {
  const CoverageModel a = test::single_poi_model(30.0);
  const CoverageModel b = test::single_poi_model(30.0);
  const MetadataSnapshot snap({photo_viewing(a.pois()[0], 0.0)});
  SelectionEnvironment env_a(a), env_b(b);
  EXPECT_FALSE(snap.arc_union(env_a).empty());
  EXPECT_THROW(snap.arc_union(env_b), std::logic_error);
}

TEST(SelectionEnv, RejectsZeroDeliveryProbability) {
  EnvFixture f(test::single_poi_model(30.0));
  SelectionEnvironment env(f.model, f.others);
  EXPECT_THROW(GreedyPhase(env, 0.0), std::logic_error);
  EXPECT_THROW(GreedyPhase(env, 1.5), std::logic_error);
}

}  // namespace
}  // namespace photodtn
