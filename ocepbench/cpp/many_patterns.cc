// many_patterns: one pre-generated random computation replayed into an
// embedded Monitor with sixteen two-leaf patterns on three pipeline
// workers, round after round.  Per-pattern matching is cheap, so the
// pipeline's hand-off and batching dominate: the single-hot-tenant,
// many-pattern case.
#include <algorithm>
#include <sstream>

#include "bench.h"
#include "core/monitor.h"

namespace ocepbench {

using namespace ocep;

namespace {

constexpr std::uint32_t kTraces = 8;
constexpr std::uint64_t kRoundEvents = 300000;
constexpr std::size_t kWorkers = 3;
/// Restores timed per run; restart_s is the fastest.
constexpr int kRestarts = 15;

struct PatternSpec {
  char first;
  char second;
  std::string text;
};

std::vector<PatternSpec> sixteen_patterns() {
  std::vector<PatternSpec> specs;
  for (char x = 'A'; x <= 'D'; ++x) {
    for (char y = 'A'; y <= 'D'; ++y) {
      specs.push_back(PatternSpec{x, y, precedence_pattern(x, y)});
    }
  }
  return specs;
}

std::unique_ptr<Monitor> make_monitor(StringPool& pool,
                                      const std::vector<PatternSpec>& specs,
                                      std::size_t workers) {
  MonitorConfig config;
  config.worker_threads = workers;
  // The workers start in the Monitor's constructor and share all CPUs but
  // one; the feeding thread keeps that one.  Unpinned, the scheduler now
  // and then puts the feeder beside a worker, and whole runs drop to two
  // thirds of the rate.
  const std::size_t cpus = usable_cpus();
  pin_thread(0, cpus - 1);
  auto monitor = std::make_unique<Monitor>(pool, config);
  pin_thread(cpus - 1, 1);
  for (const PatternSpec& spec : specs) {
    monitor->add_pattern(spec.text);
  }
  return monitor;
}

std::vector<std::vector<std::vector<EventId>>> subsets(Monitor& monitor) {
  std::vector<std::vector<std::vector<EventId>>> out;
  for (std::size_t i = 0; i < monitor.pattern_count(); ++i) {
    out.push_back(canonical(monitor.matcher(i).subset().matches()));
  }
  return out;
}

}  // namespace

void run_many_patterns(const Options& options, Result& result) {
  StringPool pool;
  RandomSpec spec;
  spec.traces = kTraces;
  spec.events = kRoundEvents;
  spec.seed = options.seed * 1000 + 200;
  const std::unique_ptr<EventStore> source = random_computation(pool, spec);
  const std::vector<PatternSpec> specs = sixteen_patterns();
  std::vector<Symbol> names;
  for (TraceId t = 0; t < source->trace_count(); ++t) {
    names.push_back(source->trace_name(t));
  }
  const std::vector<EventId> order(source->arrival_order().begin(),
                                   source->arrival_order().end());
  std::vector<VectorClock> clocks;
  clocks.reserve(order.size());
  for (const EventId id : order) {
    clocks.push_back(source->clock(id));
  }

  Tracer tracer(options.trace ? order.size() + 64 : 0);
  const std::uint32_t span_event = tracer.name_id("monitor.on_event");
  const std::uint32_t span_drain = tracer.name_id("pipeline.drain");

  // --- measured phase ----------------------------------------------------
  const std::int64_t t0 = now_ns();
  const double rss0 = rss_mb();
  const auto budget = static_cast<std::int64_t>(options.seconds * 1e9);
  Samples detect;
  Samples drain_ms;
  // Per-round figures: rate, CPU and latency are reported from the fast
  // rounds (kFastRounds), memory as the median over rounds.
  Samples round_rate;
  Samples round_cpu_us;
  Samples round_rss;
  Samples round_detect;
  std::uint64_t observed = 0;
  std::uint64_t rounds = 0;
  std::vector<std::vector<std::vector<EventId>>> first;
  PipelineStats first_stats;
  std::unique_ptr<Monitor> last;
  for (; rounds == 0 || now_ns() - t0 < budget; ++rounds) {
    Tracer* tr = rounds == 0 && options.trace ? &tracer : nullptr;
    const std::int64_t round_t0 = now_ns();
    const double round_cpu0 = process_cpu_s();
    Samples this_round;
    std::unique_ptr<Monitor> monitor = make_monitor(pool, specs, kWorkers);
    monitor->on_traces(names);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      // Every event type ends some pattern, so every arrival is
      // terminating for at least one of the sixteen; one in eight is
      // timed.
      if (pos % 8 != 0) {
        Scope scope(tr, span_event, pos);
        monitor->on_event(source->event(order[pos]), clocks[pos]);
        continue;
      }
      const std::int64_t a = now_ns();
      {
        Scope scope(tr, span_event, pos);
        monitor->on_event(source->event(order[pos]), clocks[pos]);
      }
      const double us = static_cast<double>(now_ns() - a) / 1e3;
      detect.add(us);
      this_round.add(us);
    }
    const std::int64_t a = now_ns();
    {
      Scope scope(tr, span_drain, order.size());
      monitor->drain();
    }
    drain_ms.add(static_cast<double>(now_ns() - a) / 1e6);
    const auto events = static_cast<double>(order.size());
    round_rate.add(events * 1e9 / static_cast<double>(now_ns() - round_t0));
    round_cpu_us.add((process_cpu_s() - round_cpu0) * 1e6 / events);
    round_rss.add(rss_mb() - rss0);
    round_detect.add(this_round.quantile(0.5));
    observed += order.size();
    if (monitor->events_seen() != order.size()) {
      result.failed += order.size() - monitor->events_seen();
    }
    if (rounds == 0) {
      first = subsets(*monitor);
      first_stats = monitor->stats();
    } else if (subsets(*monitor) != first) {
      result.fail("round " + std::to_string(rounds) +
                  " match sets differ from round 0");
    }
    last = std::move(monitor);
  }
  result.attempted = observed;

  // --- restart from the monitor image --------------------------------------
  std::ostringstream image;
  last->checkpoint(image);
  MatcherStats sum;
  std::size_t history_bytes = 0;
  for (std::size_t i = 0; i < last->pattern_count(); ++i) {
    const MatcherStats& st = last->matcher(i).stats();
    sum.searches += st.searches;
    sum.nodes_explored += st.nodes_explored;
    sum.backjumps += st.backjumps;
    sum.matches_reported += st.matches_reported;
    sum.history_entries += st.history_entries;
    history_bytes += last->matcher(i).history_bytes();
  }
  const std::size_t store_bytes = last->store().approx_bytes();
  last.reset();
  const std::string bytes = image.str();
  // restart_s: the fastest of kRestarts restores of the image.
  Samples restores;
  for (int rep = 0; rep < kRestarts; ++rep) {
    const std::int64_t r0 = now_ns();
    std::unique_ptr<Monitor> restored = make_monitor(pool, specs, kWorkers);
    std::istringstream in(bytes);
    restored->restore(in);
    restores.add(static_cast<double>(now_ns() - r0) / 1e9);
    restored->drain();
    if (rep == 0 && subsets(*restored) != first) {
      result.fail("restored match sets differ");
    }
  }
  const double restart_s = restores.quantile(0);

  // --- correctness: workers = 0 run and the vector-clock coverage ----------
  std::unique_ptr<Monitor> reference = make_monitor(pool, specs, 0);
  reference->on_traces(names);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    reference->on_event(source->event(order[pos]), clocks[pos]);
  }
  if (subsets(*reference) != first) {
    result.fail("pipelined match sets differ from the worker_threads = 0 run");
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Symbol p = pool.intern(std::string(1, specs[i].first));
    const Symbol q = pool.intern(std::string(1, specs[i].second));
    const RepresentativeSubset& subset = reference->matcher(i).subset();
    if (matches_coverage(subset.matches(), 2, source->trace_count()) !=
        precedence_coverage(*source, p, q)) {
      result.fail("pattern " + std::to_string(i) +
                  ": coverage differs from the vector-clock computation");
    }
    const std::string why =
        check_precedence_matches(*source, subset.matches(), p, q);
    if (!why.empty()) {
      result.fail("pattern " + std::to_string(i) + ": " + why);
    }
  }
  reference.reset();

  Result::note(detect.describe("many_patterns on_event"));
  Result::note("series rate" + round_rate.list());
  Result::note("series cpu" + round_cpu_us.list());
  Result::note("series detect" + round_detect.list());
  Result::note("series rss" + round_rss.list());
  Result::note("rounds " + std::to_string(rounds) + ", drain " +
               std::to_string(drain_ms.quantile(0.5)) + " ms, events/s per " +
               "round p10 " + std::to_string(round_rate.quantile(0.1)) +
               " p50 " + std::to_string(round_rate.quantile(0.5)) + " p90 " +
               std::to_string(round_rate.quantile(0.9)));

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
                static_cast<double>(bytes.size()) /
                    static_cast<double>(order.size()),
                "bytes");
  result.metric("restart_s", restart_s, "s");

  // --- per-layer ---------------------------------------------------------------
  const double kevents = static_cast<double>(order.size()) / 1000.0;
  double stalls = 0;
  double batches = 0;
  double max_events = 0;
  double total_events = 0;
  for (const PipelineWorkerStats& worker : first_stats.workers) {
    stalls += static_cast<double>(worker.ring_full_stalls);
    batches += static_cast<double>(worker.batches);
    max_events = std::max(max_events, static_cast<double>(worker.events));
    total_events += static_cast<double>(worker.events);
  }
  const double workers = static_cast<double>(first_stats.workers.size());
  result.metric("pipeline.stalls_per_kevent", stalls / kevents, "count");
  result.metric("pipeline.batches_per_kevent", batches / kevents, "count");
  result.metric("pipeline.worker_skew",
                total_events > 0 ? max_events * workers / total_events : 0,
                "ratio");
  result.metric("pipeline.drain_ms", drain_ms.quantile(0.5), "ms");
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
                    static_cast<double>(order.size()),
                "bytes");

  if (options.trace) {
    std::vector<std::string> texts;
    for (const PatternSpec& s : specs) {
      texts.push_back(s.text);
    }
    Recording rec;
    rec.store = source.get();
    rec.pool = &pool;
    rec.patterns = texts;
    rec.session_limit = 100000;
    run_layers(options, {rec}, "many_patterns", result, {{"workload", &tracer}});
  }
}

}  // namespace ocepbench
