// Self-tests of the benchmark's correctness checks: each checker is fed
// deliberately damaged output and must reject it.
//
//   dropped match        a match removed from a served match set
//   unrelated binding    a binding swapped for a causally unrelated event
//   truncated stream     a producer that stops half way, without BYE
//                        (caught by the attempted/failed accounting)
//   flipped store byte   one byte of a segment file flipped after the run
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "apps/apps.h"
#include "baseline/naive_matcher.h"
#include "baseline/race_checker.h"
#include "bench.h"
#include "core/monitor.h"
#include "net/client.h"
#include "net/server.h"
#include "pattern/compiled.h"
#include "sim/sim.h"
#include "store/replication.h"
#include "store/segment_log.h"

namespace ocepbench {

using namespace ocep;

namespace {

int failures = 0;

void expect_rejected(const char* name, bool rejected) {
  std::printf("%-22s %s\n", name,
              rejected ? "rejected (checker works)" : "ACCEPTED (checker broken)");
  if (!rejected) {
    ++failures;
  }
}

std::vector<Symbol> trace_names(const EventStore& store) {
  std::vector<Symbol> names;
  for (TraceId t = 0; t < store.trace_count(); ++t) {
    names.push_back(store.trace_name(t));
  }
  return names;
}

/// Serves `store` as one tenant; returns the served match set.
struct Served {
  std::vector<std::vector<EventId>> matches;
  bool fin = false;
  bool degraded = false;
  std::uint64_t observed = 0;
};

Served serve(const EventStore& store, const StringPool& pool,
             const std::string& pattern, std::uint64_t max_events,
             const std::string& store_dir) {
  net::ServerConfig config;
  config.detach_linger_ms = 50;
  config.store_dir = store_dir;
  config.flush_interval_ms = 5;
  std::atomic<std::uint64_t> observed{0};
  config.observe_hook = [&observed](std::string_view, std::uint64_t) {
    observed.fetch_add(1);
  };
  net::Server server(std::move(config));
  std::thread reactor([&server] { server.run(); });
  net::ConnectorConfig cc;
  cc.port = server.port();
  cc.tenant = "selftest";
  cc.patterns = {pattern};
  net::StreamOptions so;
  so.max_events = max_events;
  so.fin_timeout_ms = 5000;
  const net::StreamResult streamed = net::stream_store(store, pool, cc, so);
  if (max_events != 0) {
    // Let the linger expire so the tenant is finalized.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }
  server.request_shutdown();
  reactor.join();
  Served out;
  out.fin = streamed.fin_received;
  out.degraded = streamed.fin.degraded;
  out.observed = observed.load();
  if (net::Tenant* tenant = server.find_tenant("selftest")) {
    out.matches = canonical(tenant->monitor().matcher(0).subset().matches());
  }
  return out;
}

}  // namespace

int run_selftest(const std::string& out_dir) {
  StringPool pool;
  RandomSpec spec;
  spec.events = 20000;
  spec.seed = 7;
  const std::unique_ptr<EventStore> source = random_computation(pool, spec);
  const std::string text = precedence_pattern('A', 'B');
  const Symbol p = pool.intern("A");
  const Symbol q = pool.intern("B");

  Monitor monitor(pool);
  monitor.add_pattern(text);
  monitor.on_traces(trace_names(*source));
  for (const EventId id : source->arrival_order()) {
    monitor.on_event(source->event(id), source->clock(id));
  }
  const std::vector<Match> matches = monitor.matcher(0).subset().matches();
  const std::size_t traces = source->trace_count();
  const std::vector<bool> oracle = precedence_coverage(*source, p, q);

  // The undamaged output passes every check.
  const bool clean =
      matches_coverage(matches, 2, traces) == oracle &&
      check_precedence_matches(*source, matches, p, q).empty();
  std::printf("%-22s %s\n", "undamaged output", clean ? "accepted" : "REJECTED");
  failures += clean ? 0 : 1;

  // 1. Dropped match: coverage no longer equals the clock oracle, and the
  //    match set no longer equals the reference run.
  {
    // Drop a match that is the only one covering some (leaf, trace) pair.
    std::vector<Match> damaged;
    for (std::size_t drop = 0; drop < matches.size(); ++drop) {
      damaged = matches;
      damaged.erase(damaged.begin() + static_cast<std::ptrdiff_t>(drop));
      if (matches_coverage(damaged, 2, traces) != oracle) {
        break;
      }
    }
    expect_rejected("dropped match",
                    matches_coverage(damaged, 2, traces) != oracle &&
                        canonical(damaged) != canonical(matches));
  }

  // 2. Binding swapped for a causally unrelated event of the same type.
  {
    std::vector<Match> damaged = matches;
    const EventId qid = damaged.front().bindings[1];
    bool swapped = false;
    for (TraceId t = 0; t < traces && !swapped; ++t) {
      for (EventIndex i = 1; i <= source->trace_size(t) && !swapped; ++i) {
        const EventId cand{t, i};
        if (source->event(cand).type == p &&
            source->relate(cand, qid) == Relation::kConcurrent) {
          damaged.front().bindings[0] = cand;
          swapped = true;
        }
      }
    }
    const pattern::CompiledPattern compiled = pattern::compile(text, pool);
    expect_rejected(
        "unrelated binding",
        swapped &&
            !check_precedence_matches(*source, damaged, p, q).empty() &&
            !baseline::is_valid_match(*source, compiled, damaged.front()));
  }

  // The race oracle agrees with baseline::RaceChecker (quadratic, so on a
  // small message-race computation), and rejects a dropped racing receive.
  {
    StringPool race_pool;
    sim::SimConfig sc;
    sc.seed = 11;
    sc.channel_capacity = 2;
    sim::Sim sim(race_pool, sc);
    apps::RaceParams params;
    params.traces = 12;
    params.messages_each = 300;
    apps::setup_race_bench(sim, params);
    sim.run();
    const EventStore& store = sim.store();
    std::set<EventIndex> checker_set;
    baseline::RaceChecker checker(
        store,
        [&checker_set](const baseline::RaceChecker::Race& race) {
          checker_set.insert(race.second_receive.index);
        },
        /*keep_pairs=*/false);
    for (const EventId id : store.arrival_order()) {
      checker.observe(store.event(id));
    }
    const std::vector<EventId> order(store.arrival_order().begin(),
                                     store.arrival_order().end());
    const std::set<EventIndex> oracle = racing_receives(store, order);
    std::set<EventIndex> damaged = checker_set;
    if (!damaged.empty()) {
      damaged.erase(damaged.begin());
    }
    const bool agree = !checker_set.empty() && oracle == checker_set;
    std::printf("%-22s %s (%zu racing receives)\n", "race oracle",
                agree ? "agrees with RaceChecker" : "DISAGREES", oracle.size());
    failures += agree ? 0 : 1;
    expect_rejected("dropped race", damaged != oracle);
  }

  const std::string dir =
      out_dir + "/selftest-" + std::to_string(::getpid());
  reset_dir(dir);

  // 3. Truncated tenant stream: the producer stops half way, so the stream
  //    ends without BYE or FIN; the accounting must fail its events.
  {
    const std::uint64_t half = source->event_count() / 2;
    const Served served = serve(*source, pool, text, half, "");
    const std::uint64_t failed = failed_events(
        served.fin, served.degraded, source->event_count(), served.observed);
    // The match set alone may not show it: the representative subset is
    // often complete long before the stream ends.
    expect_rejected("truncated stream", failed > 0);
  }

  // 4. Store byte flipped after the run: the store no longer verifies,
  //    and a copy taken before the flip no longer compares identical.
  {
    const std::string store_dir = dir + "/store";
    const Served served = serve(*source, pool, text, 0, store_dir);
    const std::string copy = dir + "/copy";
    std::filesystem::copy(store_dir, copy,
                          std::filesystem::copy_options::recursive);
    const bool clean_before = store::verify_log(store_dir + "/shard-0").ok() &&
                              store::compare_store_dirs(copy, store_dir).ok() &&
                              served.matches == canonical(matches);
    std::string segment;
    for (const auto& entry :
         std::filesystem::directory_iterator(store_dir + "/shard-0")) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("seg-", 0) == 0 && entry.file_size() > 64) {
        segment = entry.path().string();
        break;
      }
    }
    bool flipped = false;
    if (!segment.empty()) {
      std::fstream file(segment,
                        std::ios::in | std::ios::out | std::ios::binary);
      const auto size =
          static_cast<std::streamoff>(std::filesystem::file_size(segment));
      file.seekg(size / 2);
      char byte = 0;
      file.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x5a);
      file.seekp(size / 2);
      file.write(&byte, 1);
      flipped = file.good();
    }
    expect_rejected("flipped store byte",
                    clean_before && flipped &&
                        !store::verify_log(store_dir + "/shard-0").ok() &&
                        !store::compare_store_dirs(copy, store_dir).ok());
  }
  std::filesystem::remove_all(dir);

  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace ocepbench
