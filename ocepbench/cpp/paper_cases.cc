// paper_cases: the four case studies of §V-C, generated once by the
// simulator and replayed one after another into an embedded synchronous
// Monitor, round after round, until the run time is used up.  The metric
// is the paper's: the time an arrival takes to find its matches (§V-B).
#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <tuple>

#include "apps/apps.h"
#include "apps/patterns.h"
#include "baseline/naive_matcher.h"
#include "bench.h"
#include "core/monitor.h"
#include "pattern/compiled.h"
#include "sim/sim.h"

namespace ocepbench {

using namespace ocep;

namespace {

/// Target events per case: each case's computation is sized to about this
/// many events (the ordering case at 500 traces ends near 82k).
constexpr std::uint64_t kCaseEvents = 100000;
/// Restores timed per run; restart_s is the fastest.
constexpr int kRestarts = 15;

enum class Kind { kDeadlock, kRaces, kAtomicity, kOrdering };

struct Case {
  const char* name = "";
  Kind kind = Kind::kDeadlock;
  std::uint32_t traces = 0;
  std::string pattern;
  std::unique_ptr<StringPool> pool;
  std::unique_ptr<sim::Sim> sim;
  sim::RunResult run;
  apps::RandomWalkApp walk;
  apps::AtomicityApp atomicity;
  apps::OrderingApp ordering;
  std::vector<Symbol> names;
  std::vector<EventId> order;
  // Round 0 output, checked after the measured phase.
  std::vector<Match> reported;
  std::vector<std::vector<EventId>> subset;
  MatcherStats stats;
  std::size_t history_bytes = 0;
  std::size_t store_bytes = 0;
  Samples detect;
  // Round 0 by quarter of the run: detect samples, and cumulative matcher
  // stats at each quarter's end (per-event cost against run length).
  Samples quarters[4];
  std::vector<std::pair<std::size_t, MatcherStats>> growth;
};

sim::SimConfig sim_config(std::uint64_t seed) {
  sim::SimConfig config;
  config.seed = seed;
  config.channel_capacity = 2;
  config.max_events = 2 * kCaseEvents;
  return config;
}

void build(Case& c, std::uint64_t seed, std::uint64_t target) {
  c.pool = std::make_unique<StringPool>();
  c.sim = std::make_unique<sim::Sim>(*c.pool, sim_config(seed));
  switch (c.kind) {
    case Kind::kDeadlock: {
      apps::RandomWalkParams params;
      params.processes = c.traces;
      params.cycle_length = 4;
      params.steps = std::max<std::uint64_t>(
          8, 2 * target / (static_cast<std::uint64_t>(c.traces) * 9));
      c.walk = apps::setup_random_walk(*c.sim, params);
      c.pattern = apps::deadlock_pattern(4);
      break;
    }
    case Kind::kRaces: {
      apps::RaceParams params;
      params.traces = c.traces;
      params.messages_each =
          std::max<std::uint64_t>(4, (10 * target) / (23 * (c.traces - 1)));
      apps::setup_race_bench(*c.sim, params);
      c.pattern = apps::race_pattern();
      break;
    }
    case Kind::kAtomicity: {
      apps::AtomicityParams params;
      params.workers = c.traces - 1;
      params.iterations =
          std::max<std::uint64_t>(4, (10 * target) / (83 * params.workers));
      c.atomicity = apps::setup_atomicity(*c.sim, params);
      c.pattern = apps::atomicity_pattern();
      break;
    }
    case Kind::kOrdering: {
      apps::OrderingParams params;
      params.followers = c.traces - 1;
      params.requests_each =
          std::max<std::uint64_t>(2, (10 * target) / (63 * params.followers));
      c.ordering = apps::setup_leader_follower(*c.sim, params);
      c.pattern = apps::ordering_pattern();
      break;
    }
  }
  c.run = c.sim->run();
  const EventStore& store = c.sim->store();
  for (TraceId t = 0; t < store.trace_count(); ++t) {
    c.names.push_back(store.trace_name(t));
  }
  c.order.assign(store.arrival_order().begin(), store.arrival_order().end());
}

/// Checks round 0's reported matches against the case's ground truth:
/// injection logs, the simulator's deadlock report, the race oracle.
void check_case(Case& c, Result& result) {
  const EventStore& store = c.sim->store();
  const pattern::CompiledPattern reference =
      pattern::compile(c.pattern, *c.pool);
  const std::string where = std::string(c.name) + ": ";
  for (const Match& match : c.reported) {
    if (!baseline::is_valid_match(store, reference, match)) {
      result.fail(where + "a reported match is not a valid match");
      return;
    }
  }
  const std::size_t bound = reference.leaves.size() * store.trace_count();
  if (c.subset.size() > bound || c.subset.empty()) {
    result.fail(where + "subset holds " + std::to_string(c.subset.size()) +
                " matches (bound " + std::to_string(bound) + ")");
  }
  std::uint64_t injected = 0;
  std::uint64_t detected = 0;
  std::uint64_t false_positives = 0;
  switch (c.kind) {
    case Kind::kDeadlock: {
      const std::set<TraceId> cycle(c.walk.cycle.begin(), c.walk.cycle.end());
      // The simulator's report: every cycle member is blocked sending to
      // the next member.
      const std::size_t length = c.walk.cycle.size();
      for (std::size_t i = 0; i < length; ++i) {
        const TraceId member = c.walk.cycle[i];
        const TraceId next = c.walk.cycle[(i + 1) % length];
        const bool reported_blocked = std::any_of(
            c.run.blocked.begin(), c.run.blocked.end(),
            [&](const sim::BlockedInfo& info) {
              return info.trace == member &&
                     info.kind == sim::BlockedInfo::Kind::kSend &&
                     info.peer == next;
            });
        if (!reported_blocked) {
          result.fail(where + "simulator does not report the cycle blocked");
        }
      }
      injected = 1;
      for (const Match& match : c.reported) {
        std::set<TraceId> members;
        for (const EventId id : match.bindings) {
          members.insert(id.trace);
        }
        if (members == cycle) {
          detected = 1;
        } else {
          ++false_positives;
        }
      }
      break;
    }
    case Kind::kRaces: {
      const std::set<EventIndex> oracle = racing_receives(store, c.order);
      injected = oracle.size();
      std::set<EventIndex> seen;
      for (const Match& match : c.reported) {
        seen.insert(std::max(match.bindings[2].index, match.bindings[3].index));
      }
      for (const EventIndex r : seen) {
        if (oracle.contains(r)) {
          ++detected;
        } else {
          ++false_positives;
        }
      }
      break;
    }
    case Kind::kAtomicity: {
      std::set<EventId> enters;
      for (const auto& injection : *c.atomicity.injections) {
        enters.insert(injection.enter_event);
      }
      injected = enters.size();
      std::set<EventId> matched;
      for (const Match& match : c.reported) {
        if (!enters.contains(match.bindings[0]) &&
            !enters.contains(match.bindings[1])) {
          ++false_positives;
        }
        matched.insert(match.bindings[0]);
        matched.insert(match.bindings[1]);
      }
      for (const EventId enter : enters) {
        detected += matched.contains(enter) ? 1 : 0;
      }
      break;
    }
    case Kind::kOrdering: {
      using Triple = std::tuple<EventId, EventId, EventId>;
      std::set<Triple> triples;
      for (const auto& injection : *c.ordering.injections) {
        triples.emplace(injection.snapshot_event, injection.update_event,
                        injection.forward_event);
      }
      injected = triples.size();
      std::set<Triple> seen;
      for (const Match& match : c.reported) {
        const Triple triple{match.bindings[1], match.bindings[2],
                            match.bindings[3]};
        if (triples.contains(triple)) {
          seen.insert(triple);
        } else {
          ++false_positives;
        }
      }
      detected = seen.size();
      break;
    }
  }
  Result::note(where + std::to_string(injected) + " injected, " +
               std::to_string(detected) + " detected, " +
               std::to_string(false_positives) + " false positives");
  if (injected == 0 || detected != injected || false_positives != 0) {
    result.fail(where + "detected " + std::to_string(detected) + " of " +
                std::to_string(injected) + " injected violations with " +
                std::to_string(false_positives) + " false positives");
  }
}

}  // namespace

void run_paper_cases(const Options& options, Result& result) {
  std::vector<Case> cases(4);
  cases[0].name = "deadlock";
  cases[0].kind = Kind::kDeadlock;
  cases[0].traces = 50;
  cases[1].name = "races";
  cases[1].kind = Kind::kRaces;
  cases[1].traces = 50;
  cases[2].name = "atomicity";
  cases[2].kind = Kind::kAtomicity;
  cases[2].traces = 50;
  cases[3].name = "ordering";
  cases[3].kind = Kind::kOrdering;
  cases[3].traces = 500;
  std::uint64_t round_events = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    build(cases[i], options.seed * 1000 + i + 1, kCaseEvents);
    round_events += cases[i].order.size();
  }

  Tracer tracer(options.trace ? round_events + 16 : 0);
  Tracer* tr = options.trace ? &tracer : nullptr;
  const std::uint32_t span_round = tracer.name_id("round");
  const std::uint32_t span_event = tracer.name_id("monitor.on_event");
  std::vector<std::uint32_t> span_case;
  for (const Case& c : cases) {
    span_case.push_back(tracer.name_id(std::string("case.") + c.name));
  }

  // --- measured phase ----------------------------------------------------
  const std::int64_t t0 = now_ns();
  const double rss0 = rss_mb();
  const auto budget = static_cast<std::int64_t>(options.seconds * 1e9);
  Samples detect_all;
  Samples drain_ms;
  // Per-round figures: rate, CPU and latency are reported from the fast
  // rounds (kFastRounds), memory as the median over rounds.
  Samples round_rate;
  Samples round_cpu_us;
  Samples round_rss;
  Samples round_detect;
  std::uint64_t observed = 0;
  std::uint64_t rounds = 0;
  for (; rounds == 0 || now_ns() - t0 < budget; ++rounds) {
    // Spans of the first round only: later rounds repeat it exactly.
    Tracer* round_tracer = rounds == 0 ? tr : nullptr;
    Scope round_scope(round_tracer, span_round, rounds);
    const std::int64_t round_t0 = now_ns();
    const double round_cpu0 = process_cpu_s();
    double round_peak = 0;
    Samples this_round;
    for (std::size_t k = 0; k < cases.size(); ++k) {
      Case& c = cases[k];
      Scope case_scope(round_tracer, span_case[k], rounds);
      const EventStore& source = c.sim->store();
      auto monitor = std::make_unique<Monitor>(*c.pool);
      MatchCallback collect = nullptr;
      if (rounds == 0) {
        collect = [&c](const Match& match, bool) {
          c.reported.push_back(match);
        };
      }
      monitor->add_pattern(c.pattern, MatcherConfig{}, collect);
      monitor->on_traces(c.names);
      const OcepMatcher& matcher = monitor->matcher(0);
      std::uint64_t searches = 0;
      for (std::size_t pos = 0; pos < c.order.size(); ++pos) {
        const EventId id = c.order[pos];
        const VectorClock clock = source.clock(id);
        const Event& event = source.event(id);
        const std::int64_t a = now_ns();
        {
          Scope event_scope(round_tracer, span_event, pos);
          monitor->on_event(event, clock);
        }
        const std::int64_t b = now_ns();
        // Terminating events (category iii) are those that start a search.
        if (matcher.stats().searches != searches) {
          searches = matcher.stats().searches;
          const double us = static_cast<double>(b - a) / 1e3;
          c.detect.add(us);
          detect_all.add(us);
          this_round.add(us);
          if (rounds == 0) {
            c.quarters[4 * pos / c.order.size()].add(us);
          }
        }
        if (rounds == 0 && (4 * (pos + 1)) % c.order.size() < 4) {
          // End of a quarter of the run: cumulative search effort so far.
          c.growth.emplace_back(pos + 1, matcher.stats());
        }
      }
      {
        // A no-op barrier in synchronous mode; timed as pipeline.drain_ms.
        const std::int64_t d = now_ns();
        monitor->drain();
        drain_ms.add(static_cast<double>(now_ns() - d) / 1e6);
      }
      round_peak = std::max(round_peak, rss_mb());
      observed += c.order.size();
      if (monitor->events_seen() != c.order.size()) {
        result.failed += c.order.size() - monitor->events_seen();
      }
      auto subset = canonical(matcher.subset().matches());
      if (rounds == 0) {
        c.subset = std::move(subset);
        c.stats = matcher.stats();
        c.history_bytes = matcher.history_bytes();
        c.store_bytes = monitor->store().approx_bytes();
      } else if (subset != c.subset) {
        result.fail(std::string(c.name) + ": round " + std::to_string(rounds) +
                    " subset differs from round 0");
      }
    }
    const double round_s = static_cast<double>(now_ns() - round_t0) / 1e9;
    const auto events = static_cast<double>(round_events);
    round_rate.add(events / round_s);
    round_cpu_us.add((process_cpu_s() - round_cpu0) * 1e6 / events);
    round_rss.add(round_peak - rss0);
    round_detect.add(this_round.quantile(0.5));
  }
  result.attempted = observed;

  // --- restart: each case's monitor image, then a fresh restore ------------
  std::uint64_t image_bytes = 0;
  std::vector<std::string> images;
  for (Case& c : cases) {
    // Rebuilt once more instead of keeping every round's monitors: the
    // 500-trace case alone holds ~2 KB of clocks per event.
    Monitor monitor(*c.pool);
    monitor.add_pattern(c.pattern);
    monitor.on_traces(c.names);
    for (const EventId id : c.order) {
      monitor.on_event(c.sim->store().event(id), c.sim->store().clock(id));
    }
    std::ostringstream image;
    monitor.checkpoint(image);
    images.push_back(image.str());
    image_bytes += images.back().size();
  }
  // restart_s: the fastest of kRestarts restores of all four images.
  Samples restores;
  for (int rep = 0; rep < kRestarts; ++rep) {
    double seconds = 0;
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const std::int64_t a = now_ns();
      Monitor restored(*cases[k].pool);
      restored.add_pattern(cases[k].pattern);
      std::istringstream in(images[k]);
      restored.restore(in);
      seconds += static_cast<double>(now_ns() - a) / 1e9;
      if (rep == 0 && canonical(restored.matcher(0).subset().matches()) !=
                          cases[k].subset) {
        result.fail(std::string(cases[k].name) + ": restored subset differs");
      }
    }
    restores.add(seconds);
  }
  const double restore_s = restores.quantile(0);

  for (Case& c : cases) {
    check_case(c, result);
    std::string line = std::string(c.name) + " by quarter of the run:";
    MatcherStats last;
    for (std::size_t q = 0; q < c.growth.size() && q < 4; ++q) {
      const MatcherStats& st = c.growth[q].second;
      const double searches =
          static_cast<double>(st.searches - last.searches);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    " [to %zu events: detect p50 %.2f us, nodes/search %.3f,"
                    " history %llu]",
                    c.growth[q].first, c.quarters[q].quantile(0.5),
                    searches > 0 ? static_cast<double>(st.nodes_explored -
                                                       last.nodes_explored) /
                                       searches
                                 : 0.0,
                    static_cast<unsigned long long>(st.history_entries));
      line += buf;
      last = st;
    }
    Result::note(line);
    Result::note(c.detect.describe(std::string("detect ") + c.name) +
                 "; nodes/search " +
                 std::to_string(static_cast<double>(c.stats.nodes_explored) /
                                std::max<double>(1, c.stats.searches)) +
                 "; events " + std::to_string(c.order.size()) +
                 "; history " + std::to_string(c.stats.history_entries));
  }
  Result::note(detect_all.describe("detect all cases"));
  Result::note("series rate" + round_rate.list());
  Result::note("series cpu" + round_cpu_us.list());
  Result::note("series detect" + round_detect.list());
  Result::note("series rss" + round_rss.list());
  Result::note("rounds " + std::to_string(rounds) + ", events/round " +
               std::to_string(round_events));

  result.metric("setup_s", static_cast<double>(t0 - options.start_ns) / 1e9,
                "s");
  result.metric("events_per_s", round_rate.quantile(kFastRounds),
                "events/s");
  // Each round's median latency, taken from the fast rounds.
  result.metric("detect_us_p50", round_detect.quantile(1 - kFastRounds), "us");
  result.metric("cpu_us_per_event", round_cpu_us.quantile(1 - kFastRounds),
                "us");
  result.metric("mem_mb", round_rss.quantile(0.5), "MB");
  result.metric("log_bytes_per_event",
                static_cast<double>(image_bytes) /
                    static_cast<double>(round_events),
                "bytes");
  result.metric("restart_s", restore_s, "s");

  // --- per-layer counters (round 0) ----------------------------------------
  MatcherStats sum;
  std::size_t history_bytes = 0;
  std::size_t store_bytes = 0;
  for (const Case& c : cases) {
    sum.searches += c.stats.searches;
    sum.nodes_explored += c.stats.nodes_explored;
    sum.backjumps += c.stats.backjumps;
    sum.matches_reported += c.stats.matches_reported;
    sum.history_entries += c.stats.history_entries;
    history_bytes += c.history_bytes;
    store_bytes += c.store_bytes;
  }
  const double searches = std::max<double>(1, static_cast<double>(sum.searches));
  result.metric("matcher.nodes_per_search",
                static_cast<double>(sum.nodes_explored) / searches, "count");
  result.metric("matcher.backjumps_per_search",
                static_cast<double>(sum.backjumps) / searches, "count");
  result.metric("matcher.match_yield",
                static_cast<double>(sum.matches_reported) / searches, "ratio");
  result.metric("matcher.history_entries",
                static_cast<double>(sum.history_entries), "count");
  result.metric("matcher.history_bytes", static_cast<double>(history_bytes),
                "bytes");
  result.metric("event_store.bytes_per_event",
                static_cast<double>(store_bytes) /
                    static_cast<double>(round_events),
                "bytes");
  result.metric("pipeline.drain_ms", drain_ms.quantile(0.5), "ms");

  if (options.trace) {
    std::vector<Recording> recordings;
    for (const Case& c : cases) {
      Recording rec;
      rec.store = &c.sim->store();
      rec.pool = c.pool.get();
      rec.patterns = {c.pattern};
      // Session-level layers copy full clocks per frame: keep the
      // 500-trace case short there.
      rec.session_limit = c.traces > 100 ? 10000 : 40000;
      recordings.push_back(std::move(rec));
    }
    run_layers(options, recordings, "paper_cases", result,
               {{"workload", &tracer}});
  }
}

}  // namespace ocepbench
