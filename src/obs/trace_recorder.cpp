#include "obs/trace_recorder.h"

#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "util/check.h"

namespace photodtn::obs {

void TraceRecorder::push(TraceEvent ev, std::initializer_list<TraceArg> args) {
  PHOTODTN_DCHECK_MSG(args.size() <= TraceEvent::kMaxArgs,
                      "too many trace event args");
  ev.nargs = 0;
  for (const TraceArg& a : args) {
    if (ev.nargs >= TraceEvent::kMaxArgs) break;
    ev.args[ev.nargs++] = a;
  }
  log_.append(ev);
}

void TraceRecorder::complete(const char* name, const char* cat, double ts_s,
                             double dur_s, std::int32_t tid,
                             std::initializer_list<TraceArg> args) {
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kComplete;
  ev.name = name;
  ev.cat = cat;
  ev.ts_s = ts_s;
  ev.dur_s = dur_s;
  ev.tid = tid;
  push(ev, args);
}

void TraceRecorder::instant(const char* name, const char* cat, double ts_s,
                            std::int32_t tid, std::initializer_list<TraceArg> args) {
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kInstant;
  ev.name = name;
  ev.cat = cat;
  ev.ts_s = ts_s;
  ev.tid = tid;
  push(ev, args);
}

void TraceRecorder::counter(const char* name, double ts_s, double value) {
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kCounter;
  ev.name = name;
  ev.cat = "counter";
  ev.ts_s = ts_s;
  push(ev, {{"value", value}});
}

void TraceRecorder::audit() const {
  auto check = [](bool ok, const char* what) {
    if (!ok) throw std::logic_error(std::string("TraceRecorder::audit: ") + what);
  };
  std::unordered_set<std::uint64_t> seqs;
  for (const TraceEvent& ev : log_.events()) {
    check(ev.name != nullptr && ev.name[0] != '\0', "unnamed event");
    check(ev.cat != nullptr, "null category");
    check(std::isfinite(ev.ts_s), "non-finite timestamp");
    check(std::isfinite(ev.dur_s) && ev.dur_s >= 0.0, "bad duration");
    check(ev.phase == TraceEvent::Phase::kComplete || ev.dur_s == 0.0,
          "duration on a non-span event");
    check(ev.nargs <= TraceEvent::kMaxArgs, "arg count out of range");
    for (std::uint32_t i = 0; i < ev.nargs; ++i) {
      check(ev.args[i].first != nullptr && ev.args[i].first[0] != '\0',
            "unnamed event arg");
    }
    check(seqs.insert(ev.seq).second, "duplicate sequence stamp");
  }
}

}  // namespace photodtn::obs
