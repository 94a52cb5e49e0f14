// The snapshot codec's single privileged accessor (declared in persist/fwd.h,
// befriended by every state-bearing class). All checkpoint/restore field
// access funnels through the static methods here, so the serialization
// surface is greppable in one place and no class grows restore-only public
// mutators.
//
// Header-only on purpose: scheme translation units serialize their own
// private state (metadata caches, selection engines, spray counters) through
// these methods while linking only the low-level persist codec — the
// full-snapshot assembly (persist/snapshot.h) is the only code that needs
// the simulator-level methods.
//
// Determinism rules, enforced here:
//   * unordered containers serialize sorted by key (insertion order is an
//     implementation detail the output must not depend on);
//   * SelectionEnvironment cover lists serialize in *list order* — refresh()
//     folds floating-point miss products in that order, so preserving it is
//     what makes the rebuilt cached state bit-identical;
//   * ArcSet intervals restore verbatim (re-adding could renormalize with
//     different rounding), then audit.
//
// Failure rules: every load validates what the CRC cannot — semantic
// invariants like matching element counts, probabilities in range, monotone
// ids — and reports through StateReader::fail (SnapshotError). Deep audit()
// checks run at the end of each structured load.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dtn/simulator.h"
#include "geometry/arc_set.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace_recorder.h"
#include "persist/codec.h"
#include "routing/prophet.h"
#include "routing/rate_estimator.h"
#include "routing/spray_counter.h"
#include "selection/greedy_selector.h"
#include "selection/metadata_cache.h"
#include "selection/selection_env.h"
#include "util/rng.h"

namespace photodtn::persist {

struct StateAccess {
  // ------------------------------------------------------------- primitives

  template <typename Map>
  static std::vector<typename Map::key_type> sorted_keys(const Map& m) {
    std::vector<typename Map::key_type> keys;
    keys.reserve(m.size());
    for (const auto& kv : m) keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  static void save(StateWriter& w, const Rng& rng) {
    for (const std::uint64_t word : rng.state_) w.u64(word);
  }
  static void load(StateReader& r, Rng& rng) {
    for (std::uint64_t& word : rng.state_) word = r.u64();
  }

  static void save(StateWriter& w, const ArcSet& arcs) {
    w.u64(arcs.intervals_.size());
    for (const auto& [lo, hi] : arcs.intervals_) {
      w.f64(lo);
      w.f64(hi);
    }
  }
  static void load(StateReader& r, ArcSet& arcs) {
    const std::size_t n = r.count(16);
    arcs.intervals_.clear();
    arcs.intervals_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double lo = r.f64();
      const double hi = r.f64();
      arcs.intervals_.emplace_back(lo, hi);
    }
    arcs.audit();  // canonical form: sorted, disjoint, normalized
  }

  static void save(StateWriter& w, const PhotoMeta& m) {
    w.u64(m.id);
    w.i32(m.taken_by);
    w.f64(m.location.x);
    w.f64(m.location.y);
    w.f64(m.range);
    w.f64(m.fov);
    w.f64(m.orientation);
    w.u64(m.size_bytes);
    w.f64(m.taken_at);
    w.f64(m.quality);
  }
  static void load(StateReader& r, PhotoMeta& m) {
    m.id = r.u64();
    m.taken_by = r.i32();
    m.location.x = r.f64();
    m.location.y = r.f64();
    m.range = r.f64();
    m.fov = r.f64();
    m.orientation = r.f64();
    m.size_bytes = r.u64();
    m.taken_at = r.f64();
    m.quality = r.f64();
  }

  // Capacity is reconstruction state (node config), not snapshot state: only
  // the stored photos serialize, sorted by id.
  static void save(StateWriter& w, const PhotoStore& store) {
    const auto ids = sorted_keys(store.map());
    w.u64(ids.size());
    for (const PhotoId id : ids) save(w, store.map().at(id));
  }
  static void load(StateReader& r, PhotoStore& store) {
    if (!store.empty()) r.fail("photo store not empty before restore");
    const std::size_t n = r.count(8);
    PhotoId prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      PhotoMeta m;
      load(r, m);
      if (i > 0 && m.id <= prev) r.fail("photo store ids not strictly increasing");
      prev = m.id;
      if (!store.add(m)) {
        r.fail("photo " + std::to_string(m.id) +
               " rejected by the store (duplicate or over capacity)");
      }
    }
    store.audit();
  }

  // Config and self id are reconstruction state; the aging clock and the
  // predictability table are the run state.
  static void save(StateWriter& w, const ProphetTable& p) {
    w.f64(p.last_aged_);
    const auto peers = sorted_keys(p.table_);
    w.u64(peers.size());
    for (const NodeId peer : peers) {
      w.i32(peer);
      w.f64(p.table_.at(peer));
    }
  }
  static void load(StateReader& r, ProphetTable& p) {
    p.last_aged_ = r.f64();
    const std::size_t n = r.count(12);
    p.table_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId peer = r.i32();
      if (p.table_.count(peer) != 0) r.fail("duplicate PROPHET peer entry");
      p.table_[peer] = r.f64();
    }
    p.audit();
  }

  static void save(StateWriter& w, const RateEstimator& e) {
    w.f64(e.start_);
    w.u64(e.total_);
    const auto peers = sorted_keys(e.counts_);
    w.u64(peers.size());
    for (const NodeId peer : peers) {
      w.i32(peer);
      w.u64(e.counts_.at(peer));
    }
  }
  static void load(StateReader& r, RateEstimator& e) {
    e.start_ = r.f64();
    e.total_ = r.u64();
    const std::size_t n = r.count(12);
    e.counts_.clear();
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId peer = r.i32();
      if (e.counts_.count(peer) != 0) r.fail("duplicate rate-estimator peer");
      const std::uint64_t c = r.u64();
      if (c == 0) r.fail("zero-count rate-estimator entry");
      e.counts_[peer] = static_cast<std::size_t>(c);
      sum += c;
    }
    if (sum != e.total_) r.fail("rate-estimator total does not match per-peer sum");
  }

  static void save(StateWriter& w, const SprayCounter& c) {
    w.u32(c.initial_copies_);
    const auto photos = sorted_keys(c.copies_);
    w.u64(photos.size());
    for (const PhotoId id : photos) {
      w.u64(id);
      w.u32(c.copies_.at(id));
    }
  }
  static void load(StateReader& r, SprayCounter& c) {
    c.initial_copies_ = r.u32();
    const std::size_t n = r.count(12);
    c.copies_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const PhotoId id = r.u64();
      if (c.copies_.count(id) != 0) r.fail("duplicate spray-counter photo");
      const std::uint32_t copies = r.u32();
      if (copies == 0) r.fail("zero-copy spray-counter entry");
      c.copies_[id] = copies;
    }
  }

  static void save(StateWriter& w, const MetadataCache& c) {
    w.f64(c.p_thld_);
    w.u64(c.next_revision_);
    const auto owners = sorted_keys(c.entries_);
    w.u64(owners.size());
    for (const NodeId owner : owners) {
      const MetadataEntry& e = c.entries_.at(owner);
      w.i32(e.owner);
      w.f64(e.observed_at);
      w.f64(e.lambda);
      w.f64(e.delivery_prob);
      w.u64(e.revision);
      w.u64(e.photos().size());
      for (const PhotoMeta& m : e.photos()) save(w, m);
    }
  }
  static void load(StateReader& r, MetadataCache& c) {
    c.p_thld_ = r.f64();
    c.next_revision_ = r.u64();
    const std::size_t n = r.count(36);
    c.entries_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      MetadataEntry e;
      e.owner = r.i32();
      e.observed_at = r.f64();
      e.lambda = r.f64();
      e.delivery_prob = r.f64();
      e.revision = r.u64();
      const std::size_t count = r.count(8);
      std::vector<PhotoMeta> photos;
      photos.reserve(count);
      for (std::size_t k = 0; k < count; ++k) {
        PhotoMeta m;
        load(r, m);
        photos.push_back(m);
      }
      // Each restored entry owns its snapshot: holders that shared one
      // before the checkpoint hold equal copies after it.
      e.snapshot = std::make_shared<const MetadataSnapshot>(std::move(photos));
      if (c.entries_.count(e.owner) != 0) r.fail("duplicate metadata-cache owner");
      c.entries_[e.owner] = std::move(e);
    }
    c.audit();
  }

  // Cover lists serialize in list order and the cached per-PoI factors are
  // *recomputed* through refresh() — a pure function of the ordered list —
  // rather than serialized, so the restored floating-point state is the
  // product of the same multiplications in the same order.
  static void save(StateWriter& w, const SelectionEnvironment& env) {
    w.u64(env.rebuilds_);
    w.u64(env.covers_.size());
    for (std::size_t poi = 0; poi < env.covers_.size(); ++poi) {
      const auto& covers = env.covers_[poi];
      w.u64(covers.size());
      for (const NodePoiCover& c : covers) {
        w.i32(c.node);
        w.f64(c.p);
        save(w, c.arcs);
      }
      w.boolean(env.dirty_[poi] != 0);
    }
    const auto nodes = sorted_keys(env.loaded_);
    w.u64(nodes.size());
    for (const NodeId node : nodes) {
      const auto& entry = env.loaded_.at(node);
      w.i32(node);
      w.f64(entry.delivery_prob);
      w.u64(entry.touched.size());
      for (const std::size_t poi : entry.touched) w.u64(poi);
    }
  }
  static void load(StateReader& r, SelectionEnvironment& env) {
    const std::size_t pois = env.covers_.size();  // sized by the model at construction
    env.rebuilds_ = 0;
    const std::uint64_t saved_rebuilds = r.u64();
    if (r.u64() != pois) r.fail("selection environment PoI count mismatch");
    for (std::size_t poi = 0; poi < pois; ++poi) {
      const std::size_t covers = r.count(12);
      env.covers_[poi].clear();
      env.covers_[poi].reserve(covers);
      for (std::size_t i = 0; i < covers; ++i) {
        NodePoiCover c;
        c.node = r.i32();
        c.p = r.f64();
        load(r, c.arcs);
        env.covers_[poi].push_back(std::move(c));
      }
      env.dirty_[poi] = r.boolean() ? 1 : 0;
    }
    const std::size_t nodes = r.count(12);
    env.loaded_.clear();
    for (std::size_t i = 0; i < nodes; ++i) {
      const NodeId node = r.i32();
      if (env.loaded_.count(node) != 0) r.fail("duplicate environment collection");
      auto& entry = env.loaded_[node];
      entry.delivery_prob = r.f64();
      const std::size_t touched = r.count(8);
      entry.touched.reserve(touched);
      for (std::size_t k = 0; k < touched; ++k) {
        const std::uint64_t poi = r.u64();
        if (poi >= pois) r.fail("environment touched-PoI index out of range");
        entry.touched.push_back(static_cast<std::size_t>(poi));
      }
    }
    // Rebuild the cached factors of every clean PoI now (dirty ones rebuild
    // lazily, exactly as they would have mid-run), then pin the rebuild
    // counter back to the checkpointed reading — consumers diff it.
    for (std::size_t poi = 0; poi < pois; ++poi) {
      if (!env.dirty_[poi]) env.refresh(poi);
    }
    env.rebuilds_ = saved_rebuilds;
    env.audit();
  }

  static void save(StateWriter& w, const SelectionStats& s) {
    w.u64(s.gain_evals);
    w.u64(s.reevals);
    w.u64(s.commits);
  }
  static void load(StateReader& r, SelectionStats& s) {
    s.gain_evals = r.u64();
    s.reevals = r.u64();
    s.commits = r.u64();
  }

  static void save(StateWriter& w, const GreedySelector& sel) {
    save(w, sel.stats_);
    save(w, sel.totals_);
  }
  static void load(StateReader& r, GreedySelector& sel) {
    load(r, sel.stats_);
    load(r, sel.totals_);
  }

  // ---------------------------------------------------------- observability

  static void save(StateWriter& w, const obs::MetricsRegistry& reg) {
    // Serialize by sorted name: handle indices depend on registration order,
    // which restore does not replay.
    auto sorted_index = [](const std::vector<std::string>& names) {
      std::vector<std::size_t> idx(names.size());
      for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
      std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
        return names[a] < names[b];
      });
      return idx;
    };
    const auto cidx = sorted_index(reg.counter_names_);
    w.u64(cidx.size());
    for (const std::size_t i : cidx) {
      w.str(reg.counter_names_[i]);
      w.u64(reg.counter_values_[i]);
    }
    const auto gidx = sorted_index(reg.gauge_names_);
    w.u64(gidx.size());
    for (const std::size_t i : gidx) {
      w.str(reg.gauge_names_[i]);
      w.f64(reg.gauge_values_[i]);
    }
    const auto hidx = sorted_index(reg.histogram_names_);
    w.u64(hidx.size());
    for (const std::size_t i : hidx) {
      const auto& h = reg.histograms_[i];
      w.str(reg.histogram_names_[i]);
      w.u64(h.bounds.size());
      for (const std::uint64_t b : h.bounds) w.u64(b);
      w.u64(h.counts.size());
      for (const std::uint64_t c : h.counts) w.u64(c);
      w.u64(h.count);
      w.u64(h.sum);
      w.u64(h.min);
      w.u64(h.max);
    }
  }
  static void load(StateReader& r, obs::MetricsRegistry& reg) {
    // Find-or-create by name, then write the value through the handle: names
    // already registered (simulator ctor, scheme init) are updated in place,
    // snapshot-only names register fresh.
    const std::size_t counters = r.count(12);
    for (std::size_t i = 0; i < counters; ++i) {
      const std::string name = r.str();
      if (name.empty()) r.fail("empty counter name");
      const std::uint64_t value = r.u64();
      reg.counter_values_[reg.counter(name).idx] = value;
    }
    const std::size_t gauges = r.count(12);
    for (std::size_t i = 0; i < gauges; ++i) {
      const std::string name = r.str();
      if (name.empty()) r.fail("empty gauge name");
      const double value = r.f64();
      reg.set(reg.gauge(name), value);
    }
    const std::size_t histograms = r.count(28);
    for (std::size_t i = 0; i < histograms; ++i) {
      const std::string name = r.str();
      if (name.empty()) r.fail("empty histogram name");
      const std::size_t nbounds = r.count(8);
      std::vector<std::uint64_t> bounds;
      bounds.reserve(nbounds);
      for (std::size_t k = 0; k < nbounds; ++k) bounds.push_back(r.u64());
      const std::size_t ncounts = r.count(8);
      if (ncounts != nbounds + 1) r.fail("histogram bucket count mismatch");
      obs::MetricsRegistry::HistogramState st;
      st.bounds = bounds;
      st.counts.reserve(ncounts);
      for (std::size_t k = 0; k < ncounts; ++k) st.counts.push_back(r.u64());
      st.count = r.u64();
      st.sum = r.u64();
      st.min = r.u64();
      st.max = r.u64();
      // histogram() validates the bounds (and bounds-equality when the name
      // was pre-registered); bad bounds throw logic_error, which the restore
      // wrapper converts to SnapshotError.
      const auto h = reg.histogram(name, std::move(bounds));
      reg.histograms_[h.idx] = std::move(st);
    }
    reg.audit();
  }

  static void save(StateWriter& w, const obs::TraceRecorder& rec) {
    w.u64(rec.log_.next_seq());
    const std::vector<obs::TraceEvent> events = rec.merged();
    w.u64(events.size());
    for (const obs::TraceEvent& ev : events) {
      w.u8(static_cast<std::uint8_t>(ev.phase));
      w.str(ev.name);
      w.str(ev.cat);
      w.f64(ev.ts_s);
      w.f64(ev.dur_s);
      w.i32(ev.tid);
      w.u64(ev.seq);
      w.u32(ev.nargs);
      for (std::uint32_t i = 0; i < ev.nargs && i < obs::TraceEvent::kMaxArgs; ++i) {
        w.str(ev.args[i].first);
        w.f64(ev.args[i].second);
      }
    }
  }
  static void load(StateReader& r, obs::TraceRecorder& rec) {
    const std::uint64_t next_seq = r.u64();
    const std::size_t n = r.count(41);
    std::vector<obs::TraceEvent> events;
    events.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      obs::TraceEvent ev;
      const std::uint8_t phase = r.u8();
      if (phase != 'X' && phase != 'i' && phase != 'C') {
        r.fail("unknown trace event phase");
      }
      ev.phase = static_cast<obs::TraceEvent::Phase>(phase);
      ev.name = rec.intern(r.str());
      ev.cat = rec.intern(r.str());
      ev.ts_s = r.f64();
      ev.dur_s = r.f64();
      ev.tid = r.i32();
      ev.seq = r.u64();
      if (ev.seq >= next_seq) r.fail("trace sequence stamp beyond the clock");
      ev.nargs = r.u32();
      if (ev.nargs > obs::TraceEvent::kMaxArgs) r.fail("trace arg count out of range");
      for (std::uint32_t k = 0; k < ev.nargs; ++k) {
        ev.args[k].first = rec.intern(r.str());
        ev.args[k].second = r.f64();
      }
      events.push_back(ev);
    }
    rec.log_.restore(std::move(events), next_seq);
    rec.audit();
  }

  static void save(StateWriter& w, const obs::ProvenanceRecorder& rec) {
    w.u64(rec.log_.next_seq());
    const std::vector<obs::ProvEvent> events = rec.merged();
    w.u64(events.size());
    for (const obs::ProvEvent& ev : events) {
      w.u8(static_cast<std::uint8_t>(ev.kind));
      w.u8(static_cast<std::uint8_t>(ev.outcome));
      w.f64(ev.ts_s);
      w.u64(ev.photo);
      w.i32(ev.node);
      w.i32(ev.peer);
      w.u64(ev.bytes);
      w.f64(ev.value);
      w.f64(ev.aux);
      w.u64(ev.seq);
    }
  }
  static void load(StateReader& r, obs::ProvenanceRecorder& rec) {
    const std::uint64_t next_seq = r.u64();
    const std::size_t n = r.count(55);
    std::vector<obs::ProvEvent> events;
    events.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      obs::ProvEvent ev;
      const std::uint8_t kind = r.u8();
      if (kind > obs::ProvEvent::kMaxKind) r.fail("unknown provenance kind");
      ev.kind = static_cast<obs::ProvEvent::Kind>(kind);
      const std::uint8_t outcome = r.u8();
      if (outcome > obs::ProvEvent::kMaxOutcome) {
        r.fail("unknown provenance outcome");
      }
      ev.outcome = static_cast<obs::ProvEvent::Outcome>(outcome);
      ev.ts_s = r.f64();
      ev.photo = r.u64();
      ev.node = r.i32();
      ev.peer = r.i32();
      ev.bytes = r.u64();
      ev.value = r.f64();
      ev.aux = r.f64();
      ev.seq = r.u64();
      if (ev.seq >= next_seq) r.fail("provenance sequence stamp beyond the clock");
      events.push_back(ev);
    }
    rec.log_.restore(std::move(events), next_seq);
    rec.audit();
  }

  // ----------------------------------------------------------- simulator

  static void save_sim(StateWriter& w, Simulator& sim) {
    w.u64(sim.event_index_);
    w.f64(sim.now_);
    w.u64(sim.ci_);
    w.u64(sim.pi_);
    w.u64(sim.fi_);
    w.f64(sim.next_sample_);
    save(w, sim.rng_);
    w.u64(sim.down_.size());
    for (const char d : sim.down_) w.boolean(d != 0);
    w.u64(sim.delivered_);
    w.u64(sim.delivered_ids_.size());
    for (const PhotoId id : sim.delivered_ids_) w.u64(id);
    w.u64(sim.samples_.size());
    for (const SimSample& s : sim.samples_) {
      w.f64(s.time);
      w.f64(s.point_coverage);
      w.f64(s.aspect_coverage);
      w.f64(s.full_view_coverage);
      w.u64(s.delivered_photos);
      w.u64(s.bytes_transferred);
    }
  }
  static void load_sim(StateReader& r, Simulator& sim) {
    sim.event_index_ = r.u64();
    sim.now_ = r.f64();
    sim.ci_ = static_cast<std::size_t>(r.u64());
    sim.pi_ = static_cast<std::size_t>(r.u64());
    sim.fi_ = static_cast<std::size_t>(r.u64());
    sim.next_sample_ = r.f64();
    load(r, sim.rng_);
    if (sim.ci_ > sim.trace_->contacts().size()) r.fail("contact cursor out of range");
    if (sim.pi_ > sim.photo_events_.size()) r.fail("photo cursor out of range");
    if (sim.fi_ > sim.faults_.transitions().size()) r.fail("churn cursor out of range");
    const std::size_t down = r.count(1);
    if (down != sim.down_.size()) r.fail("node count mismatch in down flags");
    for (std::size_t i = 0; i < down; ++i) sim.down_[i] = r.boolean() ? 1 : 0;
    sim.delivered_ = r.u64();
    const std::size_t ids = r.count(8);
    if (ids != sim.delivered_) r.fail("delivered count does not match id list");
    sim.delivered_ids_.clear();
    sim.delivered_ids_.reserve(ids);
    for (std::size_t i = 0; i < ids; ++i) sim.delivered_ids_.push_back(r.u64());
    const std::size_t samples = r.count(48);
    sim.samples_.clear();
    sim.samples_.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      SimSample s;
      s.time = r.f64();
      s.point_coverage = r.f64();
      s.aspect_coverage = r.f64();
      s.full_view_coverage = r.f64();
      s.delivered_photos = r.u64();
      s.bytes_transferred = r.u64();
      sim.samples_.push_back(s);
    }
  }

  static void save_nodes(StateWriter& w, Simulator& sim) {
    w.u64(sim.nodes_.size());
    for (const Node& n : sim.nodes_) {
      save(w, n.store());
      save(w, n.prophet());
      save(w, n.rates());
    }
  }
  static void load_nodes(StateReader& r, Simulator& sim) {
    const std::size_t n = r.count(24);
    if (n != sim.nodes_.size()) r.fail("node count mismatch");
    for (Node& node : sim.nodes_) {
      load(r, node.store());
      load(r, node.prophet());
      load(r, node.rates());
    }
  }

  static void save_obs(StateWriter& w, Simulator& sim) {
    save(w, sim.obs_.registry());
  }
  static void load_obs(StateReader& r, Simulator& sim) {
    load(r, sim.obs_.registry());
  }
  static void save_trace(StateWriter& w, Simulator& sim) {
    save(w, sim.obs_.trace());
  }
  static void load_trace(StateReader& r, Simulator& sim) {
    load(r, sim.obs_.trace());
  }
  static void save_prov(StateWriter& w, Simulator& sim) {
    save(w, sim.obs_.prov());
  }
  static void load_prov(StateReader& r, Simulator& sim) {
    load(r, sim.obs_.prov());
  }

  /// Replays the delivered-id list against the restored command-center store
  /// to rebuild the coverage map in original delivery order — the same adds
  /// in the same order produce the same floating-point accumulation.
  static void rebuild_cc_coverage(Simulator& sim) {
    const Node& center = sim.nodes_.at(0);
    for (const PhotoId id : sim.delivered_ids_) {
      const PhotoMeta* meta = center.store().find(id);
      if (meta == nullptr) {
        throw SnapshotError("snapshot: delivered photo " + std::to_string(id) +
                            " missing from the command-center store");
      }
      sim.cc_coverage_.add(sim.model_->footprint_cached(*meta));
    }
  }

  static bool has_run(const Simulator& sim) { return sim.ran_; }
  static void mark_restored(Simulator& sim) { sim.restored_ = true; }
  static std::uint64_t sim_event_index(const Simulator& sim) {
    return sim.event_index_;
  }

  /// The scenario identity a snapshot is only valid against: everything that
  /// shapes the event sequence. Serialized canonically and CRC'd into the
  /// META fingerprint; a restore against a different scenario/config fails
  /// fast with a diagnostic instead of deep in an audit.
  static void write_fingerprint_basis(StateWriter& w, Simulator& sim) {
    w.i32(sim.trace_->num_nodes());
    w.f64(sim.trace_->horizon());
    w.u64(sim.trace_->contacts().size());
    w.u64(sim.photo_events_.size());
    w.u64(sim.faults_.transitions().size());
    w.u64(sim.config_.seed);
    w.u64(sim.config_.node_storage_bytes);
    w.f64(sim.config_.bandwidth_bytes_per_s);
    w.boolean(sim.config_.unlimited_bandwidth);
    w.boolean(sim.config_.unlimited_storage);
    w.f64(sim.config_.contact_setup_s);
    w.u64(sim.config_.metadata_bytes_per_photo);
    w.f64(sim.config_.sample_interval_s);
    w.u64(sim.model_->pois().size());
    w.boolean(sim.obs_.metrics_on());
    w.boolean(sim.obs_.trace_on());
    w.boolean(sim.obs_.provenance_on());
  }
};

}  // namespace photodtn::persist
