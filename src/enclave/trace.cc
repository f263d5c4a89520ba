#include "src/enclave/trace.h"

#include <sstream>

namespace snoopy {

uint64_t TraceRecorder::Digest() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const TraceEvent& e : events_) {
    mix(static_cast<uint64_t>(e.op));
    mix(e.a);
    mix(e.b);
  }
  return h;
}

uint64_t MemoryTraceDigest(const std::vector<TraceEvent>& events) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const TraceEvent& e : events) {
    if (!IsMemoryEvent(e)) {
      continue;
    }
    mix(static_cast<uint64_t>(e.op));
    mix(e.a);
    mix(e.b);
  }
  return h;
}

std::string TraceRecorder::ToString(size_t limit) const {
  static constexpr const char* kNames[] = {"?",      "cswap",  "cset", "read", "write",
                                           "bucket", "append", "send", "recv", "epoch",
                                           "declassify", "pscan"};
  std::ostringstream out;
  out << events_.size() << " events:";
  const size_t n = events_.size() < limit ? events_.size() : limit;
  for (size_t i = 0; i < n; ++i) {
    const TraceEvent& e = events_[i];
    const auto idx = static_cast<size_t>(e.op);
    out << ' ' << (idx < 12 ? kNames[idx] : "?") << '(' << e.a << ',' << e.b << ')';
  }
  if (events_.size() > limit) {
    out << " ...";
  }
  return out.str();
}

}  // namespace snoopy
