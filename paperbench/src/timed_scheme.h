// Forwarding Scheme proxy that times each callback from outside the scheme.
//
// The benchmark wraps a factory scheme in TimedScheme for its traced run:
// every virtual call is forwarded unchanged (name() and the persist hooks
// included, so checkpoints carry the inner scheme's name and state), and the
// four event callbacks accumulate host seconds into a SchemeTimes ledger.
// The proxy adds no state of its own to the simulation, so a run through it
// is byte-identical to a run of the bare scheme (paperbench/tests pins this
// for every factory scheme).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "dtn/scheme.h"
#include "dtn/simulator.h"

namespace paperbench {

/// Host seconds spent inside one scheme's callbacks.
struct SchemeTimes {
  double contact_s = 0.0;         // every on_contact call
  double center_contact_s = 0.0;  // the subset with the command center
  double photo_s = 0.0;           // on_photo_taken
  double churn_s = 0.0;           // on_node_down + on_node_up
  std::uint64_t contact_calls = 0;
};

/// Seconds elapsed on the steady clock since `t0`.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

class TimedScheme final : public photodtn::Scheme {
 public:
  /// `inner` and `times` must outlive the proxy.
  TimedScheme(photodtn::Scheme& inner, SchemeTimes& times)
      : inner_(inner), times_(times) {}

  std::string name() const override { return inner_.name(); }
  void init(photodtn::SimContext& ctx) override { inner_.init(ctx); }

  void on_photo_taken(photodtn::SimContext& ctx, photodtn::NodeId node,
                      const photodtn::PhotoMeta& photo) override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_.on_photo_taken(ctx, node, photo);
    times_.photo_s += seconds_since(t0);
  }

  void on_contact(photodtn::SimContext& ctx,
                  photodtn::ContactSession& session) override {
    const bool center = session.involves_command_center();
    const auto t0 = std::chrono::steady_clock::now();
    inner_.on_contact(ctx, session);
    const double dt = seconds_since(t0);
    times_.contact_s += dt;
    if (center) times_.center_contact_s += dt;
    ++times_.contact_calls;
  }

  void on_node_down(photodtn::SimContext& ctx, photodtn::NodeId node,
                    bool storage_wiped) override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_.on_node_down(ctx, node, storage_wiped);
    times_.churn_s += seconds_since(t0);
  }

  void on_node_up(photodtn::SimContext& ctx, photodtn::NodeId node) override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_.on_node_up(ctx, node);
    times_.churn_s += seconds_since(t0);
  }

  bool wants_unlimited_storage() const override {
    return inner_.wants_unlimited_storage();
  }
  bool wants_unlimited_bandwidth() const override {
    return inner_.wants_unlimited_bandwidth();
  }

  void save_persist_state(photodtn::persist::StateWriter& w) const override {
    inner_.save_persist_state(w);
  }
  void load_persist_state(photodtn::persist::StateReader& r,
                          photodtn::SimContext& ctx) override {
    inner_.load_persist_state(r, ctx);
  }

 private:
  photodtn::Scheme& inner_;
  SchemeTimes& times_;
};

}  // namespace paperbench
