#include "common/rng.h"

#include "bench.h"

namespace ocepbench {

using namespace ocep;

std::unique_ptr<EventStore> random_computation(StringPool& pool,
                                               const RandomSpec& spec) {
  Rng rng(spec.seed);
  auto store = std::make_unique<EventStore>();
  for (std::uint32_t t = 0; t < spec.traces; ++t) {
    store->add_trace(pool.intern("T" + std::to_string(t)));
  }
  std::vector<Symbol> types;
  for (std::uint32_t i = 0; i < spec.types; ++i) {
    types.push_back(pool.intern(std::string(1, static_cast<char>('A' + i))));
  }
  std::vector<VectorClock> clocks(spec.traces, VectorClock(spec.traces));
  struct InFlight {
    std::uint64_t message;
    VectorClock clock;
  };
  // Per-destination in-flight messages; a receive takes a random one.
  std::vector<std::vector<InFlight>> inbox(spec.traces);
  std::uint64_t next_message = 1;

  const auto emit = [&](TraceId t, EventKind kind, std::uint64_t message) {
    VectorClock& clock = clocks[t];
    clock.tick(t);
    Event event;
    event.id = EventId{t, clock[t]};
    event.kind = kind;
    event.type = types[rng.below(types.size())];
    event.message = message;
    store->append(event, clock);
  };

  for (std::uint64_t i = 0; i < spec.events; ++i) {
    const auto t = static_cast<TraceId>(rng.below(spec.traces));
    const std::uint64_t roll = rng.below(6);
    if (roll < 2 || spec.traces < 2) {
      emit(t, EventKind::kLocal, kNoMessage);
    } else if (roll < 4) {
      auto to = static_cast<TraceId>(rng.below(spec.traces - 1));
      to += to >= t ? 1 : 0;
      const std::uint64_t message = next_message++;
      emit(t, EventKind::kSend, message);
      inbox[to].push_back(InFlight{message, clocks[t]});
    } else if (inbox[t].empty()) {
      emit(t, EventKind::kLocal, kNoMessage);
    } else {
      std::vector<InFlight>& queue = inbox[t];
      const std::size_t pick = rng.below(queue.size());
      std::swap(queue[pick], queue.back());
      const InFlight message = std::move(queue.back());
      queue.pop_back();
      clocks[t].merge(message.clock);
      emit(t, EventKind::kReceive, message.message);
    }
  }
  return store;
}

std::string precedence_pattern(char first, char second) {
  std::string text = "P := ['', ";
  text += first;
  text += ", '']; Q := ['', ";
  text += second;
  text += ", ''];\npattern := P -> Q;\n";
  return text;
}

}  // namespace ocepbench
