#include "obs/provenance.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace photodtn::obs {

void ProvenanceRecorder::audit() const {
  auto check = [](bool ok, const char* what) {
    if (!ok)
      throw std::logic_error(std::string("ProvenanceRecorder::audit: ") + what);
  };
  std::unordered_set<std::uint64_t> seqs;
  for (const ProvEvent& ev : log_.events()) {
    check(static_cast<std::uint8_t>(ev.kind) <= ProvEvent::kMaxKind,
          "kind out of range");
    check(static_cast<std::uint8_t>(ev.outcome) <= ProvEvent::kMaxOutcome,
          "outcome out of range");
    check(std::isfinite(ev.ts_s), "non-finite timestamp");
    check(std::isfinite(ev.value) && std::isfinite(ev.aux),
          "non-finite payload");
    check(seqs.insert(ev.seq).second, "duplicate sequence stamp");
  }
}

}  // namespace photodtn::obs
