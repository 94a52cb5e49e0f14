// Exact work counts of a fixed small OurScheme run, clean and under faults.
//
// Wall time on a shared box spreads by tens of percent between runs, so a
// speed-up cannot be gated on it; these counters are deterministic, and a
// change that claims to do the same work faster must leave every one of
// them where it is. A change that means to do different work (fewer gossip
// copies, fewer rebuilds) updates the pinned value here and says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "sim/experiment.h"

namespace photodtn {
namespace {

ExperimentSpec work_spec(bool faulted) {
  ExperimentSpec spec;
  spec.scenario = ScenarioConfig::mit(1);
  spec.scenario.num_pois = 24;
  spec.scenario.photo_rate_per_hour = 60.0;
  spec.scenario.trace.num_participants = 12;
  spec.scenario.trace.duration_s = 24.0 * 3600.0;
  spec.scenario.trace.base_pair_rate_per_hour = 0.4;
  spec.scenario.sim.sample_interval_s = 6.0 * 3600.0;
  spec.scenario.sim.node_storage_bytes = 40'000'000;  // 10 photos
  spec.scenario.sim.obs.metrics = true;
  if (faulted) {
    FaultConfig& f = spec.scenario.sim.faults;
    f.contact_interrupt_prob = 0.25;
    f.interrupt_fraction_min = 0.2;
    f.interrupt_fraction_max = 0.9;
    f.crash_rate_per_hour = 0.05;
    f.mean_downtime_s = 2.0 * 3600.0;
    f.bandwidth_jitter = 0.3;
    f.gossip_loss_prob = 0.15;
  }
  spec.scheme = "OurScheme";
  return spec;
}

const char* const kCounters[] = {
    "scheme.gossip_records", "scheme.gossip_accepted", "scheme.cache_invalidations",
    "scheme.cache_updates",  "scheme.engine_syncs",    "scheme.engine_loads",
    "scheme.engine_unloads", "scheme.poi_rebuilds",    "selection.gain_evals",
    "selection.reevals",     "selection.commits",
};

std::map<std::string, std::uint64_t> work_counts(bool faulted) {
  const SimResult r = run_single(work_spec(faulted), 42);
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kCounters) {
    const auto it = r.obs.metrics.counters.find(name);
    out[name] = it == r.obs.metrics.counters.end() ? 0 : it->second;
  }
  return out;
}

TEST(WorkCounts, CleanRunDoesExactlyThePinnedWork) {
  const std::map<std::string, std::uint64_t> expected = {
      {"scheme.gossip_records", 65363},
      {"scheme.gossip_accepted", 13212},
      {"scheme.cache_invalidations", 13096},
      {"scheme.cache_updates", 4880},
      {"scheme.engine_syncs", 1927},
      {"scheme.engine_loads", 3570},
      {"scheme.engine_unloads", 3560},
      {"scheme.poi_rebuilds", 7370},
      {"selection.gain_evals", 16288},
      {"selection.reevals", 4764},
      {"selection.commits", 7011},
  };
  EXPECT_EQ(work_counts(false), expected);
}

TEST(WorkCounts, FaultedRunDoesExactlyThePinnedWork) {
  const std::map<std::string, std::uint64_t> expected = {
      {"scheme.gossip_records", 92496},
      {"scheme.gossip_accepted", 9478},
      {"scheme.cache_invalidations", 9696},
      {"scheme.cache_updates", 3859},
      {"scheme.engine_syncs", 1908},
      {"scheme.engine_loads", 3469},
      {"scheme.engine_unloads", 3405},
      {"scheme.poi_rebuilds", 14093},
      {"selection.gain_evals", 32543},
      {"selection.reevals", 12749},
      {"selection.commits", 14233},
  };
  EXPECT_EQ(work_counts(true), expected);
}

}  // namespace
}  // namespace photodtn
