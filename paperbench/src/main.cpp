// paperbench_harness: runs one workload of the paper-scale benchmark in this
// process and prints one JSON report on stdout. paperbench/run.py builds it,
// pins the environment, and turns its reports into the benchmark's result.
//
//   paperbench_harness --workload ours-paper --seed 1 --seconds 20
//                      [--mode e2e|traced|prepare] [--reference 1|0]
//                      [--scale-factor 1] [--tmp-dir DIR]
//
// --mode prepare only writes the workload's trace files into --tmp-dir.
#include <iostream>
#include <stdexcept>
#include <thread>

#include "harness.h"
#include "util/args.h"
#include "util/json.h"
#include "util/thread_pool.h"

#ifndef PAPERBENCH_BUILD_TYPE
#define PAPERBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PAPERBENCH_COMPILER
#define PAPERBENCH_COMPILER "unknown"
#endif

namespace {

std::string hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) s[static_cast<std::size_t>(i)] = digits[v & 0xf];
  return s;
}

paperbench::Options parse(const photodtn::Args& args, std::string& mode) {
  paperbench::Options o;
  o.workload = args.get("workload", "");
  if (paperbench::find_workload(o.workload) == nullptr)
    throw std::runtime_error("--workload must be ours-paper, baselines or faulted-ckpt");
  const std::int64_t seed = args.get_int("seed", 1);
  if (seed < 0) throw std::runtime_error("--seed must be >= 0");
  o.seed = static_cast<std::uint64_t>(seed);
  o.seconds = args.get_double("seconds", o.seconds);
  mode = args.get("mode", "e2e");
  if (mode != "e2e" && mode != "traced" && mode != "prepare")
    throw std::runtime_error("--mode must be e2e, traced or prepare");
  o.traced = mode == "traced";
  o.reference = args.get_int("reference", 1) != 0;
  o.scale_factor = args.get_double("scale-factor", o.scale_factor);
  if (o.scale_factor <= 0.0 || o.scale_factor > 1.0)
    throw std::runtime_error("--scale-factor must be in (0, 1]");
  o.tmp_dir = args.get("tmp-dir", o.tmp_dir);
  if (const auto unused = args.unused_keys(); !unused.empty())
    throw std::runtime_error("unknown option --" + unused.front());
  if (!args.positionals().empty() || !args.command().empty())
    throw std::runtime_error("unexpected argument");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  paperbench::Options opts;
  std::string mode;
  try {
    opts = parse(photodtn::Args::parse(argc, argv), mode);
  } catch (const std::exception& e) {
    std::cerr << "paperbench_harness: " << e.what() << "\n";
    return 2;
  }
  try {
    if (mode == "prepare") {
      paperbench::workload_specs(opts);
      return 0;
    }
    const paperbench::Report rep = paperbench::run_workload(opts);
    photodtn::JsonWriter w;
    w.begin_object();
    w.kv("workload", opts.workload);
    w.kv("seed", opts.seed);
    w.kv("mode", std::string(opts.traced ? "traced" : "e2e"));
    w.kv("passes", static_cast<std::uint64_t>(rep.passes));
    w.kv("setup_samples", static_cast<std::uint64_t>(rep.setup_samples));
    w.kv("wall_s", rep.wall_s);
    w.kv("attempted", rep.attempted);
    w.kv("failed", rep.failed);
    w.key("failures").begin_array();
    for (const std::string& f : rep.failures) w.value(f);
    w.end_array();
    w.key("build").begin_object();
    w.kv("build_type", std::string(PAPERBENCH_BUILD_TYPE));
    w.kv("compiler", std::string(PAPERBENCH_COMPILER));
    w.kv("pool_threads",
         static_cast<std::uint64_t>(photodtn::ThreadPool::shared().concurrency()));
    w.kv("hardware_threads", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.end_object();
    w.key("runs").begin_array();
    for (const paperbench::RunRecord& r : rep.runs) {
      w.begin_object();
      w.kv("scheme", r.scheme);
      w.kv("point", r.point);
      w.kv("aspect", r.aspect);
      w.kv("delivered", r.delivered);
      w.kv("delivered_digest", hex(r.delivered_digest));
      w.kv("digest", hex(r.digest));
      w.end_object();
    }
    w.end_array();
    w.key("metrics").begin_array();
    for (const paperbench::Metric& m : rep.metrics) {
      w.begin_object();
      w.kv("name", m.name);
      w.kv("unit", m.unit);
      w.kv("value", m.value);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::cout << w.str() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "paperbench_harness: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
