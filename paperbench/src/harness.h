// Paper-scale benchmark harness: builds each workload's inputs exactly as
// run_single does, times every layer from outside through its public
// entry points, and checks every run against run_single.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "coverage/coverage_model.h"
#include "dtn/scheme.h"
#include "dtn/simulator.h"
#include "sim/experiment.h"
#include "trace/contact_trace.h"

namespace paperbench {

/// One simulation of a workload: a factory scheme at a Table I scale.
struct RunDef {
  std::string scheme;  // factory name
  double scale = 1.0;  // photodtn_cli simulate --scale
};

struct WorkloadDef {
  std::string name;
  std::vector<RunDef> runs;
  /// Fault plan, all obs tiers, periodic checkpoints, restore and resume.
  bool faulted_ckpt = false;
};

/// ours-paper, baselines, faulted-ckpt.
const std::vector<WorkloadDef>& workloads();
const WorkloadDef* find_workload(std::string_view name);

/// Factory scheme name -> the <s> in the schemes.<s>.* metric names.
const std::vector<std::pair<std::string, std::string>>& scheme_keys();

/// The MIT Table I spec of `photodtn_cli simulate --trace mit --runs 1
/// --seed <seed> --scale <scale>`, plus the fixed fault plan and every obs
/// tier when `faulted`.
photodtn::ExperimentSpec make_spec(const std::string& scheme, std::uint64_t seed,
                                   double scale, bool faulted);

/// Host seconds of one input build.
struct SetupTimes {
  double trace_s = 0.0;     // synthetic contact trace
  double workload_s = 0.0;  // PoIs and photo events
  double total_s = 0.0;     // everything, CoverageModel and Simulator included
};

/// A run's inputs, built the way run_single builds them. Members are
/// declared so the simulator is destroyed before the model and trace it
/// points to.
struct Inputs {
  std::unique_ptr<photodtn::CoverageModel> model;
  std::unique_ptr<photodtn::ContactTrace> trace;
  std::vector<photodtn::PhotoEvent> photos;  // a copy, for the output check
  std::unique_ptr<photodtn::Scheme> scheme;
  std::unique_ptr<photodtn::Simulator> sim;
};

Inputs build_inputs(const photodtn::ExperimentSpec& spec, std::uint64_t seed,
                    SetupTimes& times);

/// Output checks that need no second run: the delivered ids are unique
/// photos that were taken, their recomputed coverage equals the reported
/// final coverage bit for bit, the samples count deliveries monotonically,
/// and every trace contact was held or missed. Returns the first failure,
/// or "".
std::string check_outputs(const Inputs& in, const photodtn::SimResult& r);

/// FNV-1a over every field of the result except the obs payload: samples,
/// final coverage, delivered ids and counters, doubles by bit pattern.
std::uint64_t result_digest(const photodtn::SimResult& r);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Whole passes repeat while another one would still end within this.
  double seconds = 20.0;
  /// Traced run: scheme proxy on and registry counters read.
  bool traced = false;
  /// Compare every run with run_single on the same spec and seed.
  bool reference = true;
  /// Multiplies every run's scale (tests shrink the workloads with it).
  double scale_factor = 1.0;
  /// Directory for the trace files and checkpoints.
  std::string tmp_dir = ".";
};

/// What one simulation produced, for the cross-run output checks.
struct RunRecord {
  std::string scheme;
  double point = 0.0;
  double aspect = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_digest = 0;
  std::uint64_t digest = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::vector<RunRecord> runs;  // pass 0, in workload order
  double wall_s = 0.0;          // median pass wall, reported in both modes
  std::size_t passes = 0;
  std::size_t setup_samples = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

/// The workload's run specs, each pointing at its fixed trace file in
/// opts.tmp_dir (written on first use). Writing the files in a process of
/// its own keeps trace generation out of the measured process's peak RSS.
std::vector<photodtn::ExperimentSpec> workload_specs(const Options& opts);

Report run_workload(const Options& opts);

}  // namespace paperbench
