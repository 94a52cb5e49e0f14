// Observability bundle: one MetricsRegistry, one TraceRecorder and one
// ProvenanceRecorder per simulation run, switched by ObsConfig at runtime.
// The bundle is a member of the single-threaded Simulator, so every recorder
// has exactly one writer — the event-loop thread — and carries no locks
// (obs/event_log.h).
//
// Cost tiers:
//   * Always-on: the simulator's own counters (SimCounters) live on the
//     registry unconditionally — a handle-indexed add costs what the old
//     struct increment cost, and golden outputs depend on them.
//   * PHOTODTN_OBS=1 (or ObsConfig::metrics): scheme/selection metrics,
//     histograms, and the metrics JSON sink. Disabled cost: one branch per
//     instrumentation site.
//   * ObsConfig::trace (implied by a --trace-out sink): simulation-time
//     span/instant events. Disabled cost: one branch per PHOTODTN_OBS_TRACE
//     site.
//   * ObsConfig::provenance (implied by a --provenance-out sink, or
//     PHOTODTN_OBS_PROV=1): per-photo causal lifecycle events
//     (obs/provenance.h). Deliberately NOT implied by PHOTODTN_OBS=1 —
//     provenance is an attribution artifact, not a timeline, and keeping it
//     opt-in leaves the PHOTODTN_OBS=1 goldens and overhead advisories
//     untouched. Disabled cost: one branch per PHOTODTN_OBS_PROV site.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace_recorder.h"

namespace photodtn::obs {

struct ObsConfig {
  bool metrics = false;  // scheme/selection metrics + metrics JSON sink
  bool trace = false;    // simulation-time trace events
  bool provenance = false;  // per-photo causal lifecycle events

  /// PHOTODTN_OBS=1 turns metrics AND tracing on; PHOTODTN_OBS_PROV=1 turns
  /// provenance on; unset/0 leaves each off.
  static ObsConfig from_env();

  /// This config with the environment switch OR-ed in (env can enable,
  /// never disable — explicit sinks stay wired regardless of PHOTODTN_OBS).
  ObsConfig merged_with_env() const;
};

/// What a run hands back: a metrics snapshot (empty when metrics were off),
/// the deterministically merged trace events (empty when tracing off), and
/// the merged provenance events (empty when provenance was off).
struct ObsReport {
  MetricsSnapshot metrics;
  std::vector<TraceEvent> trace_events;
  // Keeps restored event strings alive (TraceRecorder::strings()).
  std::shared_ptr<const std::set<std::string>> trace_strings;
  std::vector<ProvEvent> prov_events;
};

class Obs {
 public:
  Obs() = default;
  explicit Obs(ObsConfig cfg) : cfg_(cfg) {}

  bool metrics_on() const noexcept { return cfg_.metrics; }
  bool trace_on() const noexcept { return cfg_.trace; }
  bool provenance_on() const noexcept { return cfg_.provenance; }

  MetricsRegistry& registry() noexcept { return registry_; }
  const MetricsRegistry& registry() const noexcept { return registry_; }
  TraceRecorder& trace() noexcept { return trace_; }
  const TraceRecorder& trace() const noexcept { return trace_; }
  ProvenanceRecorder& prov() noexcept { return prov_; }
  const ProvenanceRecorder& prov() const noexcept { return prov_; }

  void audit() const {
    registry_.audit();
    trace_.audit();
    prov_.audit();
  }

 private:
  ObsConfig cfg_;
  MetricsRegistry registry_;
  TraceRecorder trace_;
  ProvenanceRecorder prov_;
};

}  // namespace photodtn::obs

/// Emits a trace event when `obs_ptr` is non-null and tracing is on:
///   PHOTODTN_OBS_TRACE(ctx.obs(), instant("capture", "photo", t, node, {...}));
#define PHOTODTN_OBS_TRACE(obs_ptr, call)                          \
  do {                                                             \
    ::photodtn::obs::Obs* photodtn_obs_trace_o_ = (obs_ptr);       \
    if (photodtn_obs_trace_o_ != nullptr &&                        \
        photodtn_obs_trace_o_->trace_on()) {                       \
      photodtn_obs_trace_o_->trace().call;                         \
    }                                                              \
  } while (0)

/// Records a provenance event when `obs_ptr` is non-null and provenance is
/// on:
///   PHOTODTN_OBS_PROV(ctx.obs(), record({.kind = ..., .ts_s = now, ...}));
/// Every provenance call site outside src/obs/ must use this macro (enforced
/// by the raw-prov-hook lint rule) so no hook skips the null-Obs /
/// provenance_on() gate.
#define PHOTODTN_OBS_PROV(obs_ptr, call)                           \
  do {                                                             \
    ::photodtn::obs::Obs* photodtn_obs_prov_o_ = (obs_ptr);        \
    if (photodtn_obs_prov_o_ != nullptr &&                         \
        photodtn_obs_prov_o_->provenance_on()) {                   \
      photodtn_obs_prov_o_->prov().call;                           \
    }                                                              \
  } while (0)
