// Single-owner, append-only event log: the storage under both obs recorders
// (TraceRecorder, ProvenanceRecorder).
//
// Every event is stamped with `seq = next_seq_++` on append; merged()
// returns a copy sorted by (simulation timestamp, seq), so events that share
// a timestamp keep emission order. Determinism rests on one owner: each log
// lives in one Simulator's Obs bundle and is appended to only by the
// thread running that simulator's event loop. There is deliberately no lock,
// atomic or per-thread buffer here — a cross-thread append is a bug, and the
// TSan CI job (pool-size byte-identity tests at PHOTODTN_THREADS=4) reports
// it.
//
// `Event` needs a `double ts_s` and a `std::uint64_t seq` field.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace photodtn::obs {

template <class Event>
class EventLog {
 public:
  /// Appends `ev`, overwriting any caller-set seq with the next stamp.
  void append(Event ev) {
    ev.seq = next_seq_++;
    events_.push_back(ev);
  }

  /// A copy of every event, sorted by (ts_s, seq). Sorts in place with
  /// std::sort (no second event-sized buffer); seq is unique, so the order
  /// is total and needs no stable sort.
  std::vector<Event> merged() const {
    std::vector<Event> out = events_;
    std::sort(out.begin(), out.end(), [](const Event& x, const Event& y) {
      if (x.ts_s != y.ts_s) return x.ts_s < y.ts_s;
      return x.seq < y.seq;
    });
    return out;
  }

  std::size_t size() const noexcept { return events_.size(); }
  std::uint64_t next_seq() const noexcept { return next_seq_; }
  /// Events in append order (restored events first, as restore() put them).
  const std::vector<Event>& events() const noexcept { return events_; }

  /// Replaces the log with `events` and sets the clock, so appends after a
  /// restore continue with fresh unique stamps.
  void restore(std::vector<Event> events, std::uint64_t next_seq) {
    events_ = std::move(events);
    next_seq_ = next_seq;
  }

 private:
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace photodtn::obs
