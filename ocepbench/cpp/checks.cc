#include <algorithm>
#include <set>

#include "bench.h"

namespace ocepbench {

using namespace ocep;

std::vector<std::vector<EventId>> canonical(
    const std::vector<Match>& matches) {
  std::vector<std::vector<EventId>> out;
  out.reserve(matches.size());
  for (const Match& match : matches) {
    out.push_back(match.bindings);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<bool> precedence_coverage(const EventStore& store, Symbol first,
                                      Symbol second) {
  const std::size_t n = store.trace_count();
  // Earliest P and latest Q per trace (0 = none): the earliest P is the
  // easiest to succeed, the latest Q knows the most.
  std::vector<EventIndex> first_p(n, kNoEvent);
  std::vector<EventIndex> last_q(n, kNoEvent);
  for (TraceId t = 0; t < n; ++t) {
    const EventIndex size = store.trace_size(t);
    for (EventIndex i = 1; i <= size; ++i) {
      const Event& event = store.event(EventId{t, i});
      if (event.type == first && first_p[t] == kNoEvent) {
        first_p[t] = i;
      }
      if (event.type == second) {
        last_q[t] = i;
      }
    }
  }
  // before(t, s): the earliest P on t happens before the latest Q on s.
  const auto before = [&](TraceId t, TraceId s) {
    if (first_p[t] == kNoEvent || last_q[s] == kNoEvent) {
      return false;
    }
    if (t == s) {
      return first_p[t] < last_q[s];
    }
    return store.clock_entry(EventId{s, last_q[s]}, t) >= first_p[t];
  };
  std::vector<bool> covered(2 * n, false);
  for (TraceId t = 0; t < n; ++t) {
    for (TraceId s = 0; s < n; ++s) {
      if (before(t, s)) {
        covered[t] = true;      // leaf P on trace t
        covered[n + s] = true;  // leaf Q on trace s
      }
    }
  }
  return covered;
}

std::vector<bool> matches_coverage(const std::vector<Match>& matches,
                                   std::size_t leaves, std::size_t traces) {
  std::vector<bool> covered(leaves * traces, false);
  for (const Match& match : matches) {
    for (std::size_t leaf = 0; leaf < match.bindings.size() && leaf < leaves;
         ++leaf) {
      if (match.bindings[leaf].trace < traces) {
        covered[leaf * traces + match.bindings[leaf].trace] = true;
      }
    }
  }
  return covered;
}

std::string check_precedence_matches(const EventStore& store,
                                     const std::vector<Match>& matches,
                                     Symbol first, Symbol second) {
  for (const Match& match : matches) {
    if (match.bindings.size() != 2) {
      return "match with " + std::to_string(match.bindings.size()) +
             " bindings";
    }
    const EventId p = match.bindings[0];
    const EventId q = match.bindings[1];
    const auto describe = [](EventId id) {
      return "(" + std::to_string(id.trace) + "," + std::to_string(id.index) +
             ")";
    };
    if (p.trace >= store.trace_count() || q.trace >= store.trace_count() ||
        p.index == kNoEvent || q.index == kNoEvent ||
        p.index > store.trace_size(p.trace) ||
        q.index > store.trace_size(q.trace)) {
      return "binding outside the computation: " + describe(p) + " " +
             describe(q);
    }
    if (store.event(p).type != first || store.event(q).type != second) {
      return "binding of the wrong type: " + describe(p) + " " + describe(q);
    }
    if (!store.happens_before(p, q)) {
      return "P " + describe(p) + " does not happen before Q " + describe(q);
    }
  }
  return "";
}

std::set<EventIndex> racing_receives(const EventStore& store,
                                     const std::vector<EventId>& order) {
  // Per receiving trace and sender trace: indices of the sends received
  // so far.  A new receive's send s races an earlier one s' from sender k
  // when neither knows the other; along trace k, s' knows ever more of
  // s's trace, so the earliest s' that s does not know decides.
  const std::size_t n = store.trace_count();
  std::vector<std::vector<std::set<EventIndex>>> received(
      n, std::vector<std::set<EventIndex>>(n));
  std::set<EventIndex> racing;
  for (const EventId id : order) {
    const Event& event = store.event(id);
    if (event.kind != EventKind::kReceive || event.message == kNoMessage) {
      continue;
    }
    const EventId send = store.send_of(event.message);
    if (send.index == kNoEvent) {
      continue;
    }
    std::vector<std::set<EventIndex>>& by_sender = received[id.trace];
    for (TraceId k = 0; k < n; ++k) {
      if (k == send.trace || by_sender[k].empty()) {
        continue;
      }
      const auto it = by_sender[k].upper_bound(store.clock_entry(send, k));
      if (it != by_sender[k].end() &&
          store.clock_entry(EventId{k, *it}, send.trace) < send.index) {
        racing.insert(id.index);
        break;
      }
    }
    by_sender[send.trace].insert(send.index);
  }
  return racing;
}

std::uint64_t failed_events(bool fin, bool degraded, std::uint64_t events,
                            std::uint64_t observed) {
  if (!fin || degraded) {
    return events;
  }
  return observed < events ? events - observed : 0;
}

}  // namespace ocepbench
