#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "cli_config.h"
#include "coverage/coverage_map.h"
#include "obs/chrome_trace.h"
#include "persist/file_io.h"
#include "persist/snapshot.h"
#include "schemes/factory.h"
#include "sim/result_io.h"
#include "timed_scheme.h"
#include "trace/synthetic_trace.h"
#include "trace/trace_io.h"
#include "util/args.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/photo_gen.h"
#include "workload/poi_gen.h"

namespace paperbench {

using photodtn::ExperimentSpec;
using photodtn::Scheme;
using photodtn::SimResult;
using Clock = std::chrono::steady_clock;

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"ours-paper", {{"OurScheme", 1.0}, {"NoMetadata", 0.6}}, false},
      {"baselines",
       {{"PhotoNet", 0.15},
        {"BestPossible", 0.7},
        {"ModifiedSpray", 1.0},
        {"Spray&Wait", 1.0},
        {"Epidemic", 1.0},
        {"PROPHET", 1.0}},
       false},
      {"faulted-ckpt", {{"OurScheme", 0.6}}, true},
  };
  return defs;
}

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

const std::vector<std::pair<std::string, std::string>>& scheme_keys() {
  static const std::vector<std::pair<std::string, std::string>> keys = {
      {"OurScheme", "ours"},          {"NoMetadata", "no_metadata"},
      {"PhotoNet", "photonet"},       {"BestPossible", "best_possible"},
      {"ModifiedSpray", "modified_spray"}, {"Spray&Wait", "spray_wait"},
      {"Epidemic", "epidemic"},       {"PROPHET", "prophet"},
  };
  return keys;
}

namespace {

/// In-process input builds per run; setup times are their median.
constexpr int kSetupReps = 9;
/// faulted-ckpt checkpoints every kCkptEvery events at scale factor 1; the
/// interval shrinks with the square of the factor (events grow with
/// participants x duration), so shrunken runs take as many checkpoints.
constexpr double kCkptEvery = 5000.0;
/// Seed of the fixed contact trace every workload replays: the trace
/// run_single generates for seed 1.
constexpr std::uint64_t kTraceSeed = 1 ^ 0x7ace5eedULL;

/// Whether a workload with the fault plan runs `scheme`.
bool runs_faulted(const std::string& scheme) {
  return std::any_of(workloads().begin(), workloads().end(), [&](const WorkloadDef& w) {
    return w.faulted_ckpt && std::any_of(w.runs.begin(), w.runs.end(),
                                         [&](const RunDef& r) { return r.scheme == scheme; });
  });
}

const std::string& key_of(const std::string& scheme) {
  for (const auto& [name, key] : scheme_keys())
    if (name == scheme) return key;
  throw std::invalid_argument("no metric key for scheme '" + scheme + "'");
}

std::string number(double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

class Fnv {
 public:
  template <typename T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// FNV-1a over the delivered ids, in delivery order.
std::uint64_t delivered_digest(const SimResult& r) {
  Fnv f;
  for (photodtn::PhotoId id : r.delivered_ids) f.add(id);
  return f.value();
}

RunRecord record_of(const ExperimentSpec& spec, const SimResult& r) {
  return {spec.scheme,        r.final_point_norm,  r.final_aspect_norm,
          r.delivered_photos, delivered_digest(r), result_digest(r)};
}

bool same_outputs(const RunRecord& a, const RunRecord& b) {
  return a.point == b.point && a.aspect == b.aspect && a.delivered == b.delivered &&
         a.delivered_digest == b.delivered_digest && a.digest == b.digest;
}

/// What resume-equals-continuous compares: the full result digest plus the
/// obs payload (metrics JSON, trace and provenance event counts).
struct ResumeKey {
  std::uint64_t digest = 0;
  std::string metrics_json;
  std::size_t trace_events = 0;
  std::size_t prov_events = 0;

  explicit ResumeKey(const SimResult& r)
      : digest(result_digest(r)),
        trace_events(r.obs.trace_events.size()),
        prov_events(r.obs.prov_events.size()) {
    photodtn::JsonWriter w;
    r.obs.metrics.write_json(w);
    metrics_json = w.str();
  }
  bool operator==(const ResumeKey&) const = default;
};

/// Operation tally: runs, checkpoint writes and restores.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

struct Pass {
  std::vector<RunRecord> runs;
  std::vector<std::string> problems;  // per run; empty when its checks pass
  std::vector<Metric> e2e;    // the same names in the same order every pass
  std::vector<Metric> layer;
  double wall_s = 0.0;
};

/// Every counter the per-layer ledger sums over a pass's runs.
struct Tally {
  photodtn::SimCounters sim;
  std::uint64_t events = 0;          // event_index() of the full runs
  std::uint64_t resumed_events = 0;  // events replayed after the restore
  std::uint64_t delivered = 0;
  std::map<std::string, std::uint64_t> registry;
  std::uint64_t pool_size_sum = 0;
  std::uint64_t pool_size_count = 0;

  void add(const SimResult& r) {
    const photodtn::SimCounters& c = r.counters;
    sim.contacts += c.contacts;
    sim.transfers += c.transfers;
    sim.failed_transfers += c.failed_transfers;
    sim.bytes_transferred += c.bytes_transferred;
    sim.drops += c.drops;
    sim.interrupted_contacts += c.interrupted_contacts;
    sim.partial_bytes += c.partial_bytes;
    sim.missed_contacts += c.missed_contacts;
    sim.node_crashes += c.node_crashes;
    sim.gossip_losses += c.gossip_losses;
    delivered += r.delivered_photos;
  }

  void add_registry(const photodtn::obs::MetricsSnapshot& m) {
    for (const auto& [name, value] : m.counters) registry[name] += value;
    if (const auto it = m.histograms.find("selection.pool_size"); it != m.histograms.end()) {
      pool_size_sum += it->second.sum;
      pool_size_count += it->second.count;
    }
  }

  std::uint64_t reg(const std::string& name) const {
    const auto it = registry.find(name);
    return it == registry.end() ? 0 : it->second;
  }
};

struct CkptStats {
  std::uint64_t count = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t bytes_last = 0;
  double ckpt_s = 0.0;
  double write_s = 0.0;
  double restore_s = 0.0;
  double resume_s = 0.0;
};

struct ExportStats {
  std::uint64_t trace_events = 0;
  std::uint64_t prov_events = 0;
  std::uint64_t bytes = 0;
  double export_s = 0.0;
};

std::uint64_t pool_chunks(const photodtn::ThreadPoolStats& s) {
  std::uint64_t n = 0;
  for (const auto& lane : s.lanes) n += lane.chunks;
  return n;
}

std::uint64_t pool_busy_ns(const photodtn::ThreadPoolStats& s) {
  std::uint64_t n = 0;
  for (const auto& lane : s.lanes) n += lane.busy_ns;
  return n;
}

/// Serializes the run's obs payload the way the CLI exports it, in memory.
/// Returns false when an export is missing its schema.
bool export_obs(const ExperimentSpec& spec, SimResult result, ExportStats& ex) {
  ex.trace_events += result.obs.trace_events.size();
  ex.prov_events += result.obs.prov_events.size();
  std::vector<SimResult> one;
  one.push_back(std::move(result));
  const photodtn::ExperimentResult er = photodtn::aggregate_results(spec, std::move(one));
  const auto t0 = Clock::now();
  const std::string prov = photodtn::provenance_to_jsonl(er);
  const std::string trace = photodtn::obs::chrome_trace_json(er.trace_events, &er.metrics);
  ex.export_s += seconds_since(t0);
  ex.bytes += prov.size() + trace.size();
  return prov.find("photodtn-provenance/1") != std::string::npos &&
         trace.find("\"traceEvents\"") != std::string::npos;
}

/// Restores the last checkpoint into a fresh simulator and scheme, finishes
/// the run, and checks it against the continuous one.
void restore_and_resume(const ExperimentSpec& spec, const Options& opts,
                        const std::string& path, const ResumeKey& continuous,
                        SchemeTimes& times, CkptStats& ck, Tally& tally, Ops& ops) {
  bool ok = false;
  std::string why;
  try {
    if (ck.count == 0) throw std::runtime_error("no checkpoint was written");
    std::string data;
    if (!photodtn::persist::read_file(path, data))
      throw std::runtime_error("cannot read " + path);
    SetupTimes unused;
    Inputs fresh = build_inputs(spec, opts.seed, unused);
    std::optional<TimedScheme> proxy;
    if (opts.traced) proxy.emplace(*fresh.scheme, times);
    Scheme& scheme = proxy ? static_cast<Scheme&>(*proxy) : *fresh.scheme;
    auto t0 = Clock::now();
    photodtn::persist::restore(*fresh.sim, scheme, data);
    ck.restore_s += seconds_since(t0);
    const std::uint64_t from = fresh.sim->event_index();
    t0 = Clock::now();
    const SimResult resumed = fresh.sim->run(scheme);
    ck.resume_s += seconds_since(t0);
    tally.resumed_events += fresh.sim->event_index() - from;
    ok = ResumeKey(resumed) == continuous;
    if (!ok) why = "resumed result differs from the continuous run";
  } catch (const std::exception& e) {
    why = e.what();
  }
  ops.check(ok, "restore " + spec.scheme + ": " + why);
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

Pass run_pass(const WorkloadDef& def, const std::vector<ExperimentSpec>& specs,
              const Options& opts, Ops& ops, std::size_t& setup_samples) {
  Pass pass;
  std::map<std::string, SchemeTimes> times;
  Tally tally;
  CkptStats ck;
  ExportStats ex;
  double setup_s = 0.0, trace_s = 0.0, workload_s = 0.0, run_s = 0.0;
  std::uint64_t trace_contacts = 0, photo_events = 0;
  double point_sum = 0.0, aspect_sum = 0.0;
  photodtn::ThreadPool& pool = photodtn::ThreadPool::shared();
  const photodtn::ThreadPoolStats pool0 = pool.stats();

  for (std::size_t i = 0; i < def.runs.size(); ++i) {
    const ExperimentSpec& spec = specs[i];

    // Setup: the inputs are pure functions of the seed, so repeated builds
    // sample the same work; the median of them is the setup time.
    std::vector<double> total, trace, workload;
    std::optional<Inputs> in;
    for (int k = 0; k < kSetupReps; ++k) {
      in.reset();
      SetupTimes st;
      in.emplace(build_inputs(spec, opts.seed, st));
      total.push_back(st.total_s);
      trace.push_back(st.trace_s);
      workload.push_back(st.workload_s);
    }
    setup_samples += total.size();
    setup_s += median(total);
    trace_s += median(trace);
    workload_s += median(workload);
    trace_contacts += in->trace->contacts().size();
    photo_events += in->photos.size();

    SchemeTimes& st = times[key_of(spec.scheme)];
    std::optional<TimedScheme> proxy;
    if (opts.traced) proxy.emplace(*in->scheme, st);
    Scheme& scheme = proxy ? static_cast<Scheme&>(*proxy) : *in->scheme;

    const std::string ckpt_path =
        opts.tmp_dir + "/" + def.name + "-" + key_of(spec.scheme) + ".snap";
    if (def.faulted_ckpt) {
      const auto every = std::max<std::uint64_t>(
          1, std::llround(kCkptEvery * opts.scale_factor * opts.scale_factor));
      in->sim->set_checkpoint_hook([&, every](std::uint64_t event) {
        if (event == 0 || event % every != 0) return;
        auto t0 = Clock::now();
        const std::string data = photodtn::persist::checkpoint(*in->sim, scheme);
        ck.ckpt_s += seconds_since(t0);
        t0 = Clock::now();
        const bool ok = photodtn::persist::atomic_write_file(ckpt_path, data);
        ck.write_s += seconds_since(t0);
        ++ck.count;
        ck.bytes_total += data.size();
        ck.bytes_last = data.size();
        ops.check(ok, "checkpoint write at event " + std::to_string(event));
      });
    }

    const auto t0 = Clock::now();
    SimResult result = in->sim->run(scheme);
    run_s += seconds_since(t0);

    tally.events += in->sim->event_index();
    tally.add(result);
    if (opts.traced) tally.add_registry(result.obs.metrics);
    pass.runs.push_back(record_of(spec, result));
    point_sum += result.final_point_norm;
    aspect_sum += result.final_aspect_norm;

    std::string problem = check_outputs(*in, result);
    if (def.faulted_ckpt) {
      const ResumeKey continuous(result);
      proxy.reset();
      in.reset();  // the continuous simulator is done; free it before the resume
      if (!export_obs(spec, std::move(result), ex) && problem.empty())
        problem = "obs export lacks its schema";
      restore_and_resume(spec, opts, ckpt_path, continuous, st, ck, tally, ops);
    }
    pass.problems.push_back(std::move(problem));
  }

  const photodtn::ThreadPoolStats pool1 = pool.stats();
  const double wall_s = run_s + ck.restore_s + ck.resume_s;
  pass.wall_s = wall_s;
  const double n_runs = static_cast<double>(def.runs.size());
  auto e2e = [&](const char* name, const char* unit, double value) {
    pass.e2e.push_back({name, unit, value});
  };
  auto layer = [&](const std::string& name, const char* unit, double value) {
    pass.layer.push_back({name, unit, value});
  };
  auto count = [&](const std::string& name, std::uint64_t n) {
    layer(name, "count", static_cast<double>(n));
  };
  auto megabytes = [&](const std::string& name, std::uint64_t bytes) {
    layer(name, "MB", static_cast<double>(bytes) / 1e6);
  };

  // End-to-end (peak_rss_mb and ops_ok_frac are added per invocation).
  e2e("wall_s", "s", wall_s);
  e2e("setup_s", "s", setup_s);
  e2e("events_per_s", "events/s",
      ratio(static_cast<double>(tally.events + tally.resumed_events), wall_s));
  e2e("point_cov", "fraction", point_sum / n_runs);
  e2e("aspect_cov", "radians/PoI", aspect_sum / n_runs);

  // Per-layer: trace and workload generation.
  layer("trace.gen_s", "s", trace_s);
  count("trace.contacts", trace_contacts);
  layer("workload.gen_s", "s", workload_s);
  count("workload.photo_events", photo_events);

  // dtn loop.
  const double dtn_run_s = run_s + ck.resume_s;
  double callbacks_s = 0.0;
  for (const auto& [key, t] : times) callbacks_s += t.contact_s + t.photo_s + t.churn_s;
  const auto& c = tally.sim;
  layer("dtn.run_s", "s", dtn_run_s);
  layer("dtn.loop_self_s", "s", dtn_run_s - callbacks_s - ck.ckpt_s - ck.write_s);
  count("dtn.events", tally.events);
  count("dtn.contacts", c.contacts);
  count("dtn.transfers", c.transfers);
  layer("dtn.transfer_ok_frac", "fraction",
        ratio(static_cast<double>(c.transfers),
              static_cast<double>(c.transfers + c.failed_transfers)));
  megabytes("dtn.bytes_mb", c.bytes_transferred);
  count("dtn.drops", c.drops);
  count("dtn.delivered", tally.delivered);

  // dtn fault layer.
  count("fault.interrupted_contacts", c.interrupted_contacts);
  megabytes("fault.partial_mb", c.partial_bytes);
  count("fault.missed_contacts", c.missed_contacts);
  count("fault.node_crashes", c.node_crashes);
  count("fault.gossip_losses", c.gossip_losses);

  // Schemes, through the proxy (zero for schemes the workload does not run).
  for (const auto& [name, key] : scheme_keys()) {
    const SchemeTimes t = times.count(key) ? times.at(key) : SchemeTimes{};
    const std::string p = "schemes." + key + ".";
    layer(p + "contact_s", "s", t.contact_s);
    layer(p + "center_contact_s", "s", t.center_contact_s);
    count(p + "contact_calls", t.contact_calls);
    layer(p + "photo_s", "s", t.photo_s);
    // Churn callbacks fire only under the fault plan; for a scheme no
    // faulted workload runs this would always read 0.
    if (runs_faulted(name)) layer(p + "churn_s", "s", t.churn_s);
  }

  // OurScheme and selection, from the metrics registry.
  for (const char* name : {"scheme.gossip_records", "scheme.gossip_accepted"})
    count(name, tally.reg(name));
  layer("scheme.gossip_accept_frac", "fraction",
        ratio(static_cast<double>(tally.reg("scheme.gossip_accepted")),
              static_cast<double>(tally.reg("scheme.gossip_records"))));
  for (const char* name :
       {"scheme.cache_invalidations", "scheme.engine_syncs", "scheme.engine_loads",
        "scheme.engine_unloads", "scheme.poi_rebuilds", "selection.gain_evals",
        "selection.reevals"})
    count(name, tally.reg(name));
  layer("selection.reeval_frac", "fraction",
        ratio(static_cast<double>(tally.reg("selection.reevals")),
              static_cast<double>(tally.reg("selection.gain_evals"))));
  count("selection.commits", tally.reg("selection.commits"));
  layer("selection.pool_size_mean", "count",
        ratio(static_cast<double>(tally.pool_size_sum),
              static_cast<double>(tally.pool_size_count)));

  // Thread pool (wall stats are collected only under PHOTODTN_OBS=1).
  count("pool.chunks", pool_chunks(pool1) - pool_chunks(pool0));
  layer("pool.busy_frac", "fraction",
        ratio(static_cast<double>(pool_busy_ns(pool1) - pool_busy_ns(pool0)) / 1e9,
              static_cast<double>(pool.concurrency()) * dtn_run_s));

  // Persist.
  count("persist.ckpt_count", ck.count);
  layer("persist.ckpt_s", "s", ck.ckpt_s);
  layer("persist.write_s", "s", ck.write_s);
  megabytes("persist.ckpt_mb_total", ck.bytes_total);
  megabytes("persist.snapshot_mb_last", ck.bytes_last);
  layer("persist.restore_s", "s", ck.restore_s);
  layer("persist.resume_s", "s", ck.resume_s);

  // Obs exports.
  count("obs.trace_events", ex.trace_events);
  count("obs.prov_events", ex.prov_events);
  layer("obs.export_s", "s", ex.export_s);
  megabytes("obs.export_mb", ex.bytes);
  return pass;
}

}  // namespace

ExperimentSpec make_spec(const std::string& scheme, std::uint64_t seed, double scale,
                         bool faulted) {
  std::vector<std::string> tokens = {"paperbench", "simulate", "--trace", "mit",
                                     "--runs",     "1",        "--seed",  std::to_string(seed),
                                     "--scale",    number(scale)};
  if (faulted) {
    tokens.insert(tokens.end(), {"--fault-interrupt", "0.2", "--fault-crash-rate", "0.01",
                                 "--fault-gossip-loss", "0.1"});
  }
  std::vector<const char*> argv;
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  const photodtn::Args args =
      photodtn::Args::parse(static_cast<int>(argv.size()), argv.data());
  ExperimentSpec spec = photodtn::cli::spec_from(args);
  spec.scheme = scheme;
  if (faulted) spec.scenario.sim.obs = {.metrics = true, .trace = true, .provenance = true};
  return spec;
}

Inputs build_inputs(const ExperimentSpec& spec, std::uint64_t seed, SetupTimes& times) {
  // Mirrors run_single (sim/experiment.cpp) step for step; traced
  // invocations check every run against run_single, so a drift here shows.
  const auto start = Clock::now();
  const photodtn::ScenarioConfig& sc = spec.scenario;
  photodtn::Rng root(seed);
  photodtn::Rng poi_rng = root.split("pois");
  photodtn::Rng photo_rng = root.split("photos");

  Inputs in;
  auto t0 = Clock::now();
  const photodtn::PoiList pois =
      photodtn::generate_uniform_pois(sc.num_pois, sc.region_m, poi_rng);
  times.workload_s = seconds_since(t0);
  in.model = std::make_unique<photodtn::CoverageModel>(pois, sc.effective_angle);
  in.model->set_quality_threshold(sc.quality_threshold);

  photodtn::SyntheticTraceConfig trace_cfg = sc.trace;
  trace_cfg.seed = seed ^ 0x7ace5eedULL;
  t0 = Clock::now();
  in.trace = std::make_unique<photodtn::ContactTrace>(
      spec.trace_file.empty() ? photodtn::generate_synthetic_trace(trace_cfg)
                              : photodtn::read_trace_file(spec.trace_file));
  if (spec.max_contact_duration_s)
    *in.trace = in.trace->with_max_duration(*spec.max_contact_duration_s);
  times.trace_s = seconds_since(t0);

  t0 = Clock::now();
  photodtn::PhotoGenerator gen(sc, pois, spec.photo_options);
  std::vector<photodtn::PhotoEvent> events =
      gen.generate(in.trace->horizon(), in.trace->num_nodes() - 1, photo_rng);
  times.workload_s += seconds_since(t0);
  times.total_s = seconds_since(start);
  in.photos = events;  // untimed: kept for the output check

  t0 = Clock::now();
  photodtn::SchemeOptions scheme_opts;
  scheme_opts.p_thld = sc.p_thld;
  in.scheme = photodtn::make_scheme(spec.scheme, scheme_opts);
  photodtn::SimConfig sim_cfg = sc.sim;
  sim_cfg.seed = seed ^ 0x51eedbeefULL;
  if (in.scheme->wants_unlimited_storage()) sim_cfg.unlimited_storage = true;
  if (in.scheme->wants_unlimited_bandwidth()) sim_cfg.unlimited_bandwidth = true;
  in.sim = std::make_unique<photodtn::Simulator>(*in.model, *in.trace, std::move(events),
                                                 sim_cfg);
  times.total_s += seconds_since(t0);
  return in;
}

/// Writes the synthetic trace of `spec`'s scaled MIT config under
/// kTraceSeed into `dir` (once; later calls reuse the file) and returns its
/// path, for ExperimentSpec::trace_file.
static std::string write_fixed_trace(const ExperimentSpec& spec, const std::string& dir) {
  photodtn::SyntheticTraceConfig cfg = spec.scenario.trace;
  cfg.seed = kTraceSeed;
  const std::string path = dir + "/mit-" + number(spec.scenario.trace.num_participants) +
                           "x" + number(cfg.duration_s) + ".csv";
  if (std::filesystem::exists(path)) return path;
  std::ostringstream csv;
  photodtn::write_trace(csv, photodtn::generate_synthetic_trace(cfg));
  // Atomic, so a run killed mid-write never leaves a truncated trace behind.
  if (!photodtn::persist::atomic_write_file(path, csv.str()))
    throw std::runtime_error("cannot write trace file " + path);
  return path;
}

std::string check_outputs(const Inputs& in, const SimResult& r) {
  if (r.delivered_ids.size() != r.delivered_photos) return "delivered count != delivered ids";
  std::uint64_t sampled = 0;
  for (const photodtn::SimSample& s : r.samples) {
    if (s.delivered_photos < sampled || s.delivered_photos > r.delivered_photos)
      return "coverage samples count deliveries out of order";
    sampled = s.delivered_photos;
  }
  if (r.counters.contacts + r.counters.missed_contacts != in.trace->contacts().size())
    return "held + missed contacts != trace contacts";
  std::unordered_map<photodtn::PhotoId, const photodtn::PhotoMeta*> taken;
  for (const photodtn::PhotoEvent& ev : in.photos) taken.emplace(ev.photo.id, &ev.photo);
  std::unordered_set<photodtn::PhotoId> seen;
  photodtn::CoverageMap recomputed(*in.model);
  for (photodtn::PhotoId id : r.delivered_ids) {
    if (!seen.insert(id).second) return "photo " + std::to_string(id) + " delivered twice";
    const auto it = taken.find(id);
    if (it == taken.end()) return "delivered photo " + std::to_string(id) + " was never taken";
    recomputed.add(in.model->footprint_cached(*it->second));
  }
  if (recomputed.normalized_point() != r.final_point_norm ||
      recomputed.normalized_aspect() != r.final_aspect_norm)
    return "final coverage differs from the delivered photos' coverage";
  return {};
}

std::uint64_t result_digest(const SimResult& r) {
  Fnv f;
  for (const photodtn::SimSample& s : r.samples) {
    f.add(s.time);
    f.add(s.point_coverage);
    f.add(s.aspect_coverage);
    f.add(s.full_view_coverage);
    f.add(s.delivered_photos);
    f.add(s.bytes_transferred);
  }
  f.add(r.final_point_norm);
  f.add(r.final_aspect_norm);
  f.add(r.delivered_photos);
  for (photodtn::PhotoId id : r.delivered_ids) f.add(id);
  f.add(r.counters);
  return f.value();
}

std::vector<ExperimentSpec> workload_specs(const Options& opts) {
  const WorkloadDef* def = find_workload(opts.workload);
  if (def == nullptr) throw std::invalid_argument("unknown workload '" + opts.workload + "'");
  // Trace-driven, as in the paper: one fixed contact trace per scale, read
  // from a file the way --trace-file runs read it; the seed draws the PoIs,
  // the photo workload, the fault plan and the schemes' randomness.
  std::vector<ExperimentSpec> specs;
  for (const RunDef& rd : def->runs) {
    const double scale = std::min(1.0, rd.scale * opts.scale_factor);
    specs.push_back(make_spec(rd.scheme, opts.seed, scale, def->faulted_ckpt));
    specs.back().trace_file = write_fixed_trace(specs.back(), opts.tmp_dir);
  }
  return specs;
}

Report run_workload(const Options& opts) {
  const WorkloadDef* def = find_workload(opts.workload);
  if (def == nullptr) throw std::invalid_argument("unknown workload '" + opts.workload + "'");

  const std::vector<ExperimentSpec> specs = workload_specs(opts);
  Report rep;
  Ops ops;
  std::vector<Pass> passes;
  const auto start = Clock::now();
  double last_pass_s = 0.0;
  do {
    const auto t0 = Clock::now();
    passes.push_back(run_pass(*def, specs, opts, ops, rep.setup_samples));
    last_pass_s = seconds_since(t0);
  } while (seconds_since(start) + last_pass_s <= opts.seconds);
  const double peak_mb = peak_rss_mb();  // before the reference runs below

  // Output checks: every pass equals the first, and the first equals
  // run_single on the same spec and seed.
  const std::size_t n = def->runs.size();
  std::vector<std::optional<RunRecord>> refs(n);
  std::string ref_error;
  if (opts.reference) {
    try {
      photodtn::ThreadPool::shared().parallel_chunks(n, [&](std::size_t i) {
        ExperimentSpec spec = specs[i];
        spec.scenario.sim.obs = {};  // outputs do not depend on the obs tiers
        refs[i] = record_of(spec, photodtn::run_single(spec, opts.seed));
      });
    } catch (const std::exception& e) {
      ref_error = e.what();
    }
  }
  for (const Pass& p : passes) {
    for (std::size_t i = 0; i < n; ++i) {
      const RunRecord& r = p.runs[i];
      std::string why = p.problems[i];
      if (!same_outputs(r, passes.front().runs[i])) why = "differs from pass 0";
      if (opts.reference) {
        if (!refs[i]) {
          why = "run_single failed: " + ref_error;
        } else if (!same_outputs(r, *refs[i])) {
          why = "differs from run_single";
        }
      }
      ops.check(why.empty(), "run " + r.scheme + ": " + why);
    }
  }

  // Each metric is its median over passes.
  const auto list = opts.traced ? &Pass::layer : &Pass::e2e;
  for (std::size_t m = 0; m < (passes.front().*list).size(); ++m) {
    std::vector<double> values;
    for (const Pass& p : passes) values.push_back((p.*list)[m].value);
    rep.metrics.push_back((passes.front().*list)[m]);
    rep.metrics.back().value = median(values);
  }
  if (!opts.traced) {
    rep.metrics.push_back({"peak_rss_mb", "MB", peak_mb});
    rep.metrics.push_back({"ops_ok_frac", "fraction",
                           ratio(static_cast<double>(ops.attempted - ops.failed),
                                 static_cast<double>(ops.attempted))});
  }
  std::vector<double> walls;
  for (const Pass& p : passes) walls.push_back(p.wall_s);

  rep.runs = passes.front().runs;
  rep.wall_s = median(walls);
  rep.passes = passes.size();
  rep.attempted = ops.attempted;
  rep.failed = ops.failed;
  rep.failures = std::move(ops.failures);
  return rep;
}

}  // namespace paperbench
