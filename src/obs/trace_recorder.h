// Deterministic span/instant recorder feeding the Chrome trace sink.
//
// Events are stamped with *simulation time* (seconds), never wall-clock —
// the rule that keeps traces byte-identical across reruns and thread counts
// (wall-clock perf data lives in the separate, non-golden wallPerf section;
// see obs/chrome_trace.h and the banned-wallclock lint rule). Storage is a
// single-owner EventLog (obs/event_log.h): the simulator's event-loop thread
// is the only writer, each event gets the next sequence stamp, and merged()
// sorts by (timestamp, stamp).
//
// Event names and categories are `const char*` and must point to storage
// outliving the recorder (string literals in practice): recording must not
// allocate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/event_log.h"
#include "persist/fwd.h"

namespace photodtn::obs {

/// One numeric event argument (rendered into the Chrome "args" object).
using TraceArg = std::pair<const char*, double>;

struct TraceEvent {
  enum class Phase : char {
    kComplete = 'X',  // span: ts + dur
    kInstant = 'i',
    kCounter = 'C',
  };
  static constexpr std::size_t kMaxArgs = 4;

  Phase phase = Phase::kInstant;
  const char* name = "";
  const char* cat = "";
  double ts_s = 0.0;   // simulation seconds
  double dur_s = 0.0;  // kComplete only
  std::int32_t tid = 0;
  std::uint64_t seq = 0;  // emission stamp; merge tie-break
  std::uint32_t nargs = 0;
  std::array<TraceArg, kMaxArgs> args{};
};

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// A span covering [ts_s, ts_s + dur_s] of simulation time.
  void complete(const char* name, const char* cat, double ts_s, double dur_s,
                std::int32_t tid, std::initializer_list<TraceArg> args = {});

  /// A point event at ts_s.
  void instant(const char* name, const char* cat, double ts_s, std::int32_t tid,
               std::initializer_list<TraceArg> args = {});

  /// A counter track sample ("C" phase) at ts_s.
  void counter(const char* name, double ts_s, double value);

  /// All events, sorted by (ts_s, seq).
  std::vector<TraceEvent> merged() const { return log_.merged(); }

  std::size_t event_count() const { return log_.size(); }

  /// Owner of the strings that events restored from a snapshot point at
  /// (null when nothing was restored). Holding it keeps merged() copies
  /// valid after the recorder is gone.
  std::shared_ptr<const std::set<std::string>> strings() const {
    return interned_;
  }

  /// Deep invariant check (audit builds / tests): every event has a name,
  /// finite non-negative duration, args within kMaxArgs, and a unique
  /// sequence stamp. Throws std::logic_error on violation.
  void audit() const;

 private:
  // Checkpoint reads log_; restore refills it. Snapshot strings become
  // interned copies (the recorder normally borrows string literals and owns
  // nothing).
  friend struct persist::StateAccess;

  void push(TraceEvent ev, std::initializer_list<TraceArg> args);

  /// Returns a stable pointer to an owned copy of `s`, deduplicated — event
  /// name/cat/arg-key fields restored from a snapshot point here instead of
  /// at string literals.
  const char* intern(const std::string& s) {
    if (!interned_) interned_ = std::make_shared<std::set<std::string>>();
    return interned_->insert(s).first->c_str();
  }

  EventLog<TraceEvent> log_;
  // Owned storage for restored event strings; std::set node addresses are
  // stable, so the const char* handed out by intern() stay valid for as
  // long as anyone holds strings().
  std::shared_ptr<std::set<std::string>> interned_;
};

}  // namespace photodtn::obs
