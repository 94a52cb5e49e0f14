// The benchmark's timing proxy must be invisible to the simulation: a run
// through TimedScheme equals run_single byte for byte, for every factory
// scheme, clean and faulted, and checkpoints taken through it restore.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "harness.h"
#include "persist/snapshot.h"
#include "schemes/factory.h"
#include "sim/result_io.h"
#include "timed_scheme.h"

namespace paperbench {
namespace {

constexpr std::uint64_t kSeed = 3;
constexpr double kScale = 0.1;

std::string result_json(const photodtn::ExperimentSpec& spec, photodtn::SimResult r) {
  std::vector<photodtn::SimResult> one;
  one.push_back(std::move(r));
  return photodtn::experiment_result_to_json(
      photodtn::aggregate_results(spec, std::move(one)));
}

class ProxyIdentity : public ::testing::TestWithParam<std::pair<std::string, bool>> {};

TEST_P(ProxyIdentity, RunEqualsRunSingle) {
  const auto& [scheme, faulted] = GetParam();
  const photodtn::ExperimentSpec spec = make_spec(scheme, kSeed, kScale, faulted);
  const photodtn::SimResult expected = photodtn::run_single(spec, kSeed);

  SetupTimes setup;
  Inputs in = build_inputs(spec, kSeed, setup);
  SchemeTimes times;
  TimedScheme proxy(*in.scheme, times);
  EXPECT_EQ(proxy.name(), in.scheme->name());
  const photodtn::SimResult actual = in.sim->run(proxy);

  EXPECT_EQ(result_digest(actual), result_digest(expected));
  EXPECT_EQ(actual.delivered_ids, expected.delivered_ids);
  EXPECT_EQ(result_json(spec, actual), result_json(spec, expected));
  EXPECT_EQ(times.contact_calls, actual.counters.contacts);
  EXPECT_GT(times.contact_s, 0.0);
  EXPECT_GE(times.contact_s, times.center_contact_s);
  if (faulted) {
    EXPECT_GT(actual.counters.node_crashes, 0u);
    EXPECT_GT(times.churn_s, 0.0);
  } else {
    EXPECT_EQ(times.churn_s, 0.0);
  }
}

std::vector<std::pair<std::string, bool>> all_schemes() {
  std::vector<std::pair<std::string, bool>> out;
  for (const auto& [name, key] : scheme_keys()) {
    out.emplace_back(name, false);
    out.emplace_back(name, true);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    FactorySchemes, ProxyIdentity, ::testing::ValuesIn(all_schemes()),
    [](const ::testing::TestParamInfo<std::pair<std::string, bool>>& p) {
      std::string key;
      for (const auto& [name, k] : scheme_keys())
        if (name == p.param.first) key = k;
      return key + (p.param.second ? "_faulted" : "_clean");
    });

TEST(ProxyIdentity, CoversEveryFactoryScheme) {
  for (const auto& [name, key] : scheme_keys()) EXPECT_NO_THROW(photodtn::make_scheme(name));
  EXPECT_EQ(scheme_keys().size(), 8u);
}

// Snapshots taken through the proxy are the bare scheme's snapshots (name()
// and save_persist_state forward), and restoring through the proxy resumes
// to the continuous result (load_persist_state forwards).
TEST(ProxyPersist, CheckpointAndRestoreForward) {
  const photodtn::ExperimentSpec spec = make_spec("OurScheme", kSeed, kScale, true);
  constexpr std::uint64_t kAt = 400;

  auto snapshot_at = [&](bool through_proxy, photodtn::SimResult& out) {
    SetupTimes setup;
    Inputs in = build_inputs(spec, kSeed, setup);
    SchemeTimes times;
    TimedScheme proxy(*in.scheme, times);
    photodtn::Scheme& s = through_proxy ? static_cast<photodtn::Scheme&>(proxy) : *in.scheme;
    std::string snap;
    in.sim->set_checkpoint_hook([&](std::uint64_t event) {
      if (event == kAt) snap = photodtn::persist::checkpoint(*in.sim, s);
    });
    out = in.sim->run(s);
    return snap;
  };
  photodtn::SimResult bare_result, proxy_result;
  const std::string bare = snapshot_at(false, bare_result);
  const std::string proxied = snapshot_at(true, proxy_result);
  ASSERT_FALSE(bare.empty());
  EXPECT_EQ(bare, proxied);

  SetupTimes setup;
  Inputs fresh = build_inputs(spec, kSeed, setup);
  SchemeTimes times;
  TimedScheme proxy(*fresh.scheme, times);
  photodtn::persist::restore(*fresh.sim, proxy, proxied);
  const photodtn::SimResult resumed = fresh.sim->run(proxy);
  EXPECT_EQ(result_digest(resumed), result_digest(bare_result));
}

// The reference-free output checks pass on a real run and catch a result
// whose coverage or delivered ids were tampered with.
TEST(CheckOutputs, AcceptsRealRunsAndCatchesTampering) {
  for (const bool faulted : {false, true}) {
    const photodtn::ExperimentSpec spec = make_spec("OurScheme", kSeed, kScale, faulted);
    SetupTimes setup;
    Inputs in = build_inputs(spec, kSeed, setup);
    const photodtn::SimResult r = in.sim->run(*in.scheme);
    ASSERT_GE(r.delivered_ids.size(), 2u);
    EXPECT_EQ(check_outputs(in, r), "");

    photodtn::SimResult bad = r;
    bad.final_aspect_norm = std::nextafter(bad.final_aspect_norm, 0.0);
    EXPECT_NE(check_outputs(in, bad), "");
    bad = r;
    bad.delivered_ids.back() = bad.delivered_ids.front();
    EXPECT_NE(check_outputs(in, bad), "");
    bad = r;
    bad.delivered_ids.pop_back();
    EXPECT_NE(check_outputs(in, bad), "");
  }
}

}  // namespace
}  // namespace paperbench
