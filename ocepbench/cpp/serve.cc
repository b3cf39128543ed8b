// serve_ingest and serve_durable: two producer threads stream distinct
// pre-generated random computations over loopback to an in-process
// 2-shard Server, open loop at a fixed per-producer rate.  Each event's
// latency runs from its scheduled send time to the tenant monitor's
// observe, so a stalled server cannot hide behind a slowed producer.
//
// serve_durable adds the store (group commit), a history byte cap with a
// buffer pool so leaf-history spans spill to the store, the compactor,
// replication to an in-process standby, and a timed restart from the
// store after a graceful shutdown.
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/error.h"
#include "core/monitor.h"
#include "net/client.h"
#include "net/placement.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/standby.h"
#include "net/tenant.h"
#include "obs/metrics.h"
#include "store/replication.h"
#include "store/segment_log.h"

namespace ocepbench {

using namespace ocep;

namespace {

constexpr std::size_t kProducers = 2;
constexpr std::size_t kShards = 2;
/// Offered rate per producer.  One producer and one shard sustain several
/// times this closed loop, so the server keeps up with headroom.
constexpr double kRatePerProducer = 50000;
/// Events a producer sends together, in one socket write: one burst is
/// due every kBurst / kRatePerProducer seconds (640 us).  Writing each
/// frame on its own makes the reactor's frames-per-wakeup, and with it
/// the CPU per event, flip between runs.
constexpr std::size_t kBurst = 32;
constexpr std::uint32_t kTraces = 4;
/// serve_durable: per-tenant leaf-history byte cap and the shard's span
/// buffer pool.  A tenant's history passes the cap within the first
/// seconds, and from then on spans spill to the store.
constexpr std::size_t kHistoryCap = std::size_t{1} << 20U;
constexpr std::uint64_t kPoolBytes = std::uint64_t{1} << 20U;
/// Restarts timed per run; restart_s is the fastest: other load on the
/// machine only ever slows a restart down.
constexpr int kRestarts = 15;

/// Between the session encoder and the socket: gathers one burst's
/// frames into one write, and counts the bytes.
class BurstSink final : public ByteSink {
 public:
  explicit BurstSink(ByteSink& next) : next_(next) {}
  void write(std::string_view bytes) override {
    bytes_ += bytes.size();
    pending_.append(bytes);
    if (!hold) {
      flush();
    }
  }
  void flush() {
    if (!pending_.empty()) {
      next_.write(pending_);
      pending_.clear();
      ++writes_;
    }
  }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  /// Socket writes made (one per flushed burst).
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }
  /// While set, writes gather until flush().
  bool hold = false;

 private:
  ByteSink& next_;
  std::string pending_;
  std::uint64_t bytes_ = 0;
  std::uint64_t writes_ = 0;
};

struct Stream {
  std::string tenant;
  std::unique_ptr<StringPool> pool;
  std::unique_ptr<EventStore> store;
  std::vector<EventId> order;
  std::vector<std::uint8_t> terminating;  ///< per position: a Q event
  // Written by the tenant's shard thread (one writer), read after join.
  Samples detect;
  std::atomic<std::uint64_t> observed{0};
  std::atomic<std::int64_t> last_observed_ns{0};
  // Producer side.
  std::unique_ptr<net::Connector> connector;
  std::unique_ptr<BurstSink> burst;
  std::unique_ptr<SessionServer> session;
  std::uint64_t handshake_bytes = 0;
  bool fin = false;
  bool degraded = false;
  double cpu_s = 0;
  Samples late;  ///< how late each burst left, microseconds
  std::string error;
  Tracer tracer;
};

/// Distinct tenant names, one per shard under the affinity hash.
std::vector<std::string> tenant_names() {
  std::vector<std::string> names(kProducers);
  std::vector<bool> taken(kShards, false);
  std::size_t found = 0;
  for (int i = 0; found < kProducers; ++i) {
    std::string name = "tenant" + std::to_string(i);
    const std::size_t shard = net::shard_for(name, kShards);
    if (!taken[shard % kShards]) {
      taken[shard % kShards] = true;
      names[found++] = std::move(name);
    }
  }
  return names;
}

/// Sleeps until kSpinNs before `due_ns`, then spins: a wake-up from
/// sleep on an idle virtual machine comes 10 to over 100 us late, by a
/// different amount from run to run, which would land in every latency.
void wait_until(std::int64_t due_ns) {
  constexpr std::int64_t kSpinNs = 200'000;
  const std::int64_t wake_ns = due_ns - kSpinNs;
  if (wake_ns > now_ns()) {
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wake_ns / 1000000000LL);
    ts.tv_nsec = static_cast<long>(wake_ns % 1000000000LL);
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  }
  while (now_ns() < due_ns) {
  }
}

/// Open-loop producer: burst `b` (events b * kBurst ...) is due at
/// start + b * burst_ns and is written as soon as it is due, never
/// earlier, however far behind it is.
void produce(Stream& s, std::int64_t start_ns, double burst_ns, bool trace) {
  // Sleep with nanosecond slack so a wake-up is not put off by the
  // default 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::uint32_t span_write = s.tracer.name_id("client.write");
  Tracer* tr = trace ? &s.tracer : nullptr;
  const double cpu0 = thread_cpu_s();
  try {
    for (std::size_t first = 0; first < s.order.size(); first += kBurst) {
      const auto due =
          start_ns + static_cast<std::int64_t>(
                         static_cast<double>(first / kBurst) * burst_ns);
      wait_until(due);
      s.late.add(static_cast<double>(now_ns() - due) / 1e3);
      const std::size_t end = std::min(first + kBurst, s.order.size());
      s.burst->hold = true;
      for (std::size_t pos = first; pos < end; ++pos) {
        Scope scope(tr, span_write, pos);
        const EventId id = s.order[pos];
        s.session->write(s.store->event(id), s.store->clock(id));
      }
      s.burst->hold = false;
      s.burst->flush();
      if ((first / kBurst) % 4 == 3) {
        s.connector->poll_reverse(s.session.get(), 0);
      }
    }
    s.session->finish();
    s.fin = s.connector->wait_fin(s.session.get(), 30000);
    s.degraded = s.fin && s.connector->fin().degraded;
  } catch (const Error& error) {
    s.error = error.what();
  }
  s.cpu_s = thread_cpu_s() - cpu0;
}

double counter(const obs::Registry& registry, const std::string& key) {
  return static_cast<double>(registry.counter_value(key));
}

}  // namespace

void run_serve(const Options& options, bool durable, Result& result) {
  const std::string label = durable ? "serve_durable" : "serve_ingest";
  const auto per_stream =
      static_cast<std::uint64_t>(std::ceil(kRatePerProducer * options.seconds));
  const std::vector<std::string> names = tenant_names();
  const std::string pattern = precedence_pattern('A', 'B');

  std::vector<std::unique_ptr<Stream>> streams;
  for (std::size_t i = 0; i < kProducers; ++i) {
    auto s = std::make_unique<Stream>();
    s->tenant = names[i];
    s->pool = std::make_unique<StringPool>();
    RandomSpec spec;
    spec.traces = kTraces;
    spec.events = per_stream;
    spec.seed = options.seed * 1000 + 100 + i;
    s->store = random_computation(*s->pool, spec);
    s->order.assign(s->store->arrival_order().begin(),
                    s->store->arrival_order().end());
    const Symbol q = s->pool->intern("B");
    for (const EventId id : s->order) {
      s->terminating.push_back(s->store->event(id).type == q ? 1 : 0);
    }
    s->detect.reserve(s->order.size());
    streams.push_back(std::move(s));
  }

  // serve_ingest: each producer gets a CPU of its own, the last ones;
  // this thread, and the server threads it starts, share the others.
  // Unpinned, a shard woken by a producer's write was now and then placed
  // beside that producer, and the CPU per event of whole runs flipped
  // between ~0.75 and ~1.2 us.  serve_durable pins nothing: its daemon
  // needs more than two CPUs late in the run, and pinned to fewer CPUs
  // than all, or beside the producers, it fell behind for seconds in
  // some runs.
  const bool pin = !durable;
  const std::size_t server_cpus = usable_cpus() - kProducers;
  if (pin) {
    pin_thread(0, server_cpus);
  }

  const std::string store_dir =
      options.out_dir + "/store-" + std::to_string(::getpid());
  const std::string standby_dir =
      options.out_dir + "/standby-" + std::to_string(::getpid());
  std::unique_ptr<net::Standby> standby;
  std::thread standby_thread;
  if (durable) {
    reset_dir(store_dir);
    reset_dir(standby_dir);
    net::StandbyConfig sc;
    sc.store_dir = standby_dir;
    standby = std::make_unique<net::Standby>(sc);
    standby_thread = std::thread([&standby] { standby->run(); });
  }

  const double burst_ns = 1e9 * static_cast<double>(kBurst) / kRatePerProducer;
  // Set before any producer writes an event; read by the shard threads.
  std::atomic<std::int64_t> start_ns{0};
  net::ServerConfig config;
  config.shards = kShards;
  if (durable) {
    config.store_dir = store_dir;
    config.flush_interval_ms = 10;
    config.compact_ratio = 0.5;
    config.tenant.matcher.history_bytes_limit = kHistoryCap;
    config.pool_bytes = kPoolBytes;
    config.store_segment_bytes = 1U << 20U;
    config.replicate_host = "127.0.0.1";
    config.replicate_port = standby->port();
  }
  config.observe_hook = [&streams, &start_ns, burst_ns](
                            std::string_view tenant, std::uint64_t pos) {
    for (auto& s : streams) {
      if (s->tenant != tenant) {
        continue;
      }
      if (pos < s->order.size()) {
        const std::int64_t now = now_ns();
        if (s->terminating[pos] != 0) {
          const double due =
              static_cast<double>(start_ns.load(std::memory_order_relaxed)) +
              static_cast<double>(pos / kBurst) * burst_ns;
          s->detect.add((static_cast<double>(now) - due) / 1e3);
        }
        if (pos + 1 == s->order.size()) {
          s->last_observed_ns.store(now, std::memory_order_relaxed);
        }
      }
      s->observed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  };
  net::ServerConfig restart_config = config;
  restart_config.observe_hook = nullptr;
  restart_config.replicate_host.clear();
  auto server = std::make_unique<net::Server>(std::move(config));
  std::thread reactor([&server] { server->run(); });

  // Handshakes and HELLO frames are set-up, not measured traffic.
  for (auto& s : streams) {
    net::ConnectorConfig cc;
    cc.port = server->port();
    cc.tenant = s->tenant;
    cc.patterns = {pattern};
    net::HandshakeRequest request;
    request.flags = cc.want_resume ? net::kFlagResume : 0;
    request.tenant = cc.tenant;
    request.patterns = cc.patterns;
    s->handshake_bytes = net::encode_handshake(request).size();
    s->connector = std::make_unique<net::Connector>(cc);
    if (s->connector->ack().status == net::AckStatus::kRejected) {
      throw Error("handshake rejected for " + s->tenant);
    }
    s->burst = std::make_unique<BurstSink>(*s->connector);
    std::vector<Symbol> trace_names;
    for (TraceId t = 0; t < s->store->trace_count(); ++t) {
      trace_names.push_back(s->store->trace_name(t));
    }
    s->session =
        std::make_unique<SessionServer>(*s->burst, *s->pool, trace_names);
    if (options.trace) {
      s->tracer = Tracer(s->order.size() + 16);
    }
  }

  // --- measured phase ----------------------------------------------------
  const double rss0 = rss_mb();
  const double cpu0 = process_cpu_s();
  // A short lead lets both producers start on the same schedule.
  const std::int64_t start = now_ns() + 2'000'000;
  start_ns.store(start);
  std::vector<std::thread> producers;
  std::atomic<std::size_t> running{kProducers};
  for (std::size_t i = 0; i < streams.size(); ++i) {
    Stream* raw = streams[i].get();
    const std::size_t cpu = server_cpus + i;
    producers.emplace_back([raw, pin, cpu, start, burst_ns, &options,
                            &running] {
      if (pin) {
        pin_thread(cpu, 1);
      }
      produce(*raw, start, burst_ns, options.trace);
      running.fetch_sub(1);
    });
  }
  // One-second windows while both producers stream: each gives a rate and
  // the CPU per event of everything but the producers and this sampler;
  // the run reports their medians, so a slow spell of the machine moves
  // a window, not the run.
  std::vector<clockid_t> producer_clocks;
  for (std::thread& t : producers) {
    clockid_t id{};
    ::pthread_getcpuclockid(t.native_handle(), &id);
    producer_clocks.push_back(id);
  }
  const auto others_cpu = [&producer_clocks]() -> double {
    double cpu = process_cpu_s() - thread_cpu_s();
    for (const clockid_t id : producer_clocks) {
      timespec ts{};
      if (::clock_gettime(id, &ts) != 0) {
        return -1;  // a producer has exited
      }
      cpu -= static_cast<double>(ts.tv_sec) +
             static_cast<double>(ts.tv_nsec) / 1e9;
    }
    return cpu;
  };
  const auto observed_now = [&streams] {
    std::uint64_t total = 0;
    for (const auto& s : streams) {
      total += s->observed.load(std::memory_order_relaxed);
    }
    return total;
  };
  Samples window_rate;
  Samples window_cpu_us;
  // CPU and events summed over the windows: the durable path's CPU per
  // event climbs through the run, so a median window would pick one
  // moment of it.
  double windows_cpu_s = 0;
  double windows_events = 0;
  double lag_max = 0;
  std::int64_t window_t0 = start;
  double window_cpu0 = others_cpu();
  std::uint64_t window_events0 = observed_now();
  while (running.load() == kProducers &&
         now_ns() - start < 170'000'000'000LL) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (options.trace && durable) {
      obs::Registry scratch;
      server->merge_metrics(scratch);
      lag_max = std::max(
          lag_max, static_cast<double>(scratch.gauge("repl.lag_bytes").value()));
    }
    const std::int64_t now = now_ns();
    if (now - window_t0 < 1'000'000'000LL) {
      continue;
    }
    const double cpu = others_cpu();
    const std::uint64_t events = observed_now();
    if (cpu >= 0 && window_cpu0 >= 0 && events > window_events0) {
      const auto n = static_cast<double>(events - window_events0);
      window_rate.add(n * 1e9 / static_cast<double>(now - window_t0));
      window_cpu_us.add((cpu - window_cpu0) * 1e6 / n);
      windows_cpu_s += cpu - window_cpu0;
      windows_events += n;
    }
    window_t0 = now;
    window_cpu0 = cpu;
    window_events0 = events;
  }
  for (std::thread& t : producers) {
    t.join();
  }
  std::int64_t end_ns = 0;
  for (const auto& s : streams) {
    end_ns = std::max(end_ns, s->last_observed_ns.load());
  }
  if (end_ns == 0) {
    end_ns = now_ns();
  }
  const double rss = rss_mb() - rss0;
  const double wall = static_cast<double>(end_ns - start) / 1e9;

  Tracer tracer(options.trace ? 64 : 0);
  Tracer* tr = options.trace ? &tracer : nullptr;
  {
    Scope scope(tr, tracer.name_id("server.shutdown"), 0);
    server->request_shutdown();
    reactor.join();
  }

  // --- accounting ------------------------------------------------------------
  std::uint64_t events = 0;
  std::uint64_t observed = 0;
  double producer_cpu = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t socket_writes = 0;
  Samples detect;
  for (const auto& s : streams) {
    events += s->order.size();
    observed += s->observed.load();
    producer_cpu += s->cpu_s;
    bytes_sent += s->handshake_bytes + s->burst->bytes();
    socket_writes += s->burst->writes();
    detect.merge(s->detect);
    if (!s->error.empty()) {
      result.fail(s->tenant + ": producer error: " + s->error);
    }
    result.failed += failed_events(s->fin, s->degraded, s->order.size(),
                                   s->observed.load());
    if (!s->fin || s->degraded) {
      Result::note(s->tenant + (s->fin ? " ended degraded" : " got no FIN"));
    }
    Result::note(s->detect.describe("detect " + s->tenant));
    Result::note(s->late.describe("generator lateness " + s->tenant));
  }
  result.attempted += events;

  obs::Registry merged;
  server->merge_metrics(merged);
  const double bytes_in = counter(merged, "net.bytes_in_total");
  if (static_cast<std::uint64_t>(bytes_in) != bytes_sent) {
    result.fail(label + ": producers sent " + std::to_string(bytes_sent) +
                " bytes, net.bytes_in_total counts " +
                std::to_string(static_cast<std::uint64_t>(bytes_in)));
  }

  // --- correctness: served match sets vs embedded runs and the clock oracle
  std::vector<std::vector<std::vector<EventId>>> served(streams.size());
  MatcherStats sum;
  std::size_t history_bytes = 0;
  std::size_t store_bytes = 0;
  std::uint64_t held_max = 0;
  Samples drain_ms;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    Stream& s = *streams[i];
    net::Tenant* tenant = server->find_tenant(s.tenant);
    if (tenant == nullptr) {
      result.fail(s.tenant + ": tenant missing after the run");
      continue;
    }
    const OcepMatcher& matcher = tenant->monitor().matcher(0);
    served[i] = canonical(matcher.subset().matches());
    const Symbol p = s.pool->intern("A");
    const Symbol q = s.pool->intern("B");
    if (matches_coverage(matcher.subset().matches(), 2,
                         s.store->trace_count()) !=
        precedence_coverage(*s.store, p, q)) {
      result.fail(s.tenant + ": (leaf, trace) coverage differs from the "
                             "vector-clock computation");
    }
    // The served monitor interned its own symbols; check soundness on the
    // producer's copy of the computation.
    const std::string why =
        check_precedence_matches(*s.store, matcher.subset().matches(), p, q);
    if (!why.empty()) {
      result.fail(s.tenant + ": " + why);
    }
    Monitor embedded(*s.pool);
    embedded.add_pattern(pattern);
    std::vector<Symbol> trace_names;
    for (TraceId t = 0; t < s.store->trace_count(); ++t) {
      trace_names.push_back(s.store->trace_name(t));
    }
    embedded.on_traces(trace_names);
    for (const EventId id : s.order) {
      embedded.on_event(s.store->event(id), s.store->clock(id));
    }
    if (canonical(embedded.matcher(0).subset().matches()) != served[i]) {
      result.fail(s.tenant + ": served match set differs from the embedded "
                             "Monitor run");
    }
    const MatcherStats& st = matcher.stats();
    sum.searches += st.searches;
    sum.nodes_explored += st.nodes_explored;
    sum.backjumps += st.backjumps;
    sum.matches_reported += st.matches_reported;
    sum.history_entries += st.history_entries;
    sum.history_pruned += st.history_pruned;
    history_bytes += matcher.history_bytes();
    store_bytes += tenant->monitor().store().approx_bytes();
    held_max = std::max(held_max, tenant->session().stats().max_pending);
    // A no-op barrier for these synchronous monitors.
    const std::int64_t d = now_ns();
    tenant->monitor().drain();
    drain_ms.add(static_cast<double>(now_ns() - d) / 1e6);
  }

  // --- durable image and restart -------------------------------------------
  double image_bytes = 0;
  double restart_s = 0;
  if (!durable) {
    // No store: the restart image is each tenant monitor's checkpoint.
    std::vector<std::string> images;
    for (const auto& s : streams) {
      net::Tenant* tenant = server->find_tenant(s->tenant);
      if (tenant == nullptr) {
        continue;
      }
      std::ostringstream out;
      tenant->monitor().checkpoint(out);
      images.push_back(out.str());
      image_bytes += static_cast<double>(images.back().size());
    }
    // The fastest of kRestarts restores of every image.
    Samples restarts;
    for (int rep = 0; rep < kRestarts; ++rep) {
      Scope scope(tr, tracer.name_id("monitor.restore"), rep);
      const std::int64_t a = now_ns();
      for (std::size_t i = 0; i < images.size(); ++i) {
        StringPool pool;
        Monitor restored(pool);
        restored.add_pattern(pattern);
        std::istringstream in(images[i]);
        restored.restore(in);
        if (rep == 0 &&
            canonical(restored.matcher(0).subset().matches()) != served[i]) {
          result.fail(streams[i]->tenant + ": restored match set differs");
        }
      }
      restarts.add(static_cast<double>(now_ns() - a) / 1e9);
    }
    restart_s = restarts.quantile(0);
    server.reset();
  } else {
    server.reset();
    standby->request_shutdown();
    standby_thread.join();
    image_bytes = static_cast<double>(dir_bytes(store_dir));
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      const std::string dir = store_dir + "/shard-" + std::to_string(shard);
      const store::VerifyReport report = store::verify_log(dir);
      if (!report.ok() || report.records == 0) {
        result.fail(dir + ": store does not verify clean");
      }
    }
    const store::CompareReport compare =
        store::compare_store_dirs(store_dir, standby_dir);
    if (!compare.ok() || compare.bytes_compared == 0) {
      result.fail("standby store diverges from the primary (" +
                  std::to_string(compare.issues.size()) + " issues, " +
                  std::to_string(compare.bytes_compared) + " bytes compared)");
    }
    // The fastest of kRestarts cold starts of a new Server on the same
    // store.  A tenant the restarted server does not restore is a failed
    // operation (counted, and noted with the server's restore_errors);
    // a restored one must match exactly.
    Samples restarts;
    result.attempted += streams.size();
    for (int rep = 0; rep < kRestarts; ++rep) {
      std::unique_ptr<net::Server> restarted;
      {
        Scope scope(tr, tracer.name_id("server.restart"), rep);
        const std::int64_t a = now_ns();
        restarted = std::make_unique<net::Server>(restart_config);
        restarts.add(static_cast<double>(now_ns() - a) / 1e9);
      }
      for (std::size_t i = 0; i < streams.size() && rep == 0; ++i) {
        net::Tenant* tenant = restarted->find_tenant(streams[i]->tenant);
        if (tenant == nullptr) {
          ++result.failed;
          Result::note(
              streams[i]->tenant + " not restored (net.restore_errors " +
              std::to_string(restarted->counter_value("net.restore_errors")) +
              ")");
        } else if (canonical(tenant->monitor().matcher(0).subset().matches()) !=
                   served[i]) {
          result.fail(streams[i]->tenant +
                      ": match set after restart differs from before");
        }
      }
    }
    restart_s = restarts.quantile(0);
  }
  Result::note(detect.describe(label + " detect"));
  Result::note(label + ": leaf history " +
               std::to_string(sum.history_entries) + " entries, " +
               std::to_string(sum.history_pruned) + " pruned, over " +
               std::to_string(events) + " events");
  {
    // Median latency of each second's worth of terminating events of the
    // first tenant (one event in four is a Q): where in the run latency
    // moves.
    constexpr auto kChunk = static_cast<std::size_t>(kRatePerProducer / 4);
    const std::vector<double>& all = streams[0]->detect.values();
    Samples chunks;
    for (std::size_t first = 0; first + kChunk <= all.size(); first += kChunk) {
      Samples chunk;
      for (std::size_t i = first; i < first + kChunk; ++i) {
        chunk.add(all[i]);
      }
      chunks.add(chunk.quantile(0.5));
    }
    Result::note("series detect" + chunks.list());
  }
  Result::note("series rate" + window_rate.list());
  Result::note("series cpu" + window_cpu_us.list());
  // Whole-run figures, the fallback for runs shorter than one window.
  const double run_rate = static_cast<double>(observed) / wall;
  const double run_cpu_us = (process_cpu_s() - cpu0 - producer_cpu) * 1e6 /
                            static_cast<double>(events);
  Result::note(label + ": offered " +
               std::to_string(kRatePerProducer * kProducers) +
               " events/s, achieved " + std::to_string(run_rate) + " over " +
               std::to_string(window_rate.size()) + " windows");

  result.metric("setup_s",
                static_cast<double>(start - options.start_ns) / 1e9, "s");
  result.metric("events_per_s",
                window_rate.size() > 0 ? window_rate.quantile(0.5) : run_rate,
                "events/s");
  result.metric("detect_us_p50", detect.quantile(0.5), "us");
  result.metric("cpu_us_per_event",
                windows_events > 0 ? windows_cpu_s * 1e6 / windows_events
                                   : run_cpu_us,
                "us");
  result.metric("mem_mb", rss, "MB");
  result.metric("log_bytes_per_event", image_bytes / static_cast<double>(events),
                "bytes");
  result.metric("restart_s", restart_s, "s");

  // --- per-layer counters ----------------------------------------------------
  const double ev = static_cast<double>(events);
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
                static_cast<double>(store_bytes) / ev, "bytes");
  result.metric("linearizer.held_max", static_cast<double>(held_max), "count");
  result.metric("shard.bytes_in_per_event", bytes_in / ev, "bytes");
  // The producers' socket writes per event, as served (one per burst).
  result.metric("client.writes_per_event",
                static_cast<double>(socket_writes) / ev, "count");
  result.metric("pipeline.drain_ms", drain_ms.quantile(0.5), "ms");
  if (durable) {
    const double syncs = counter(merged, "store.syncs");
    result.metric("segment_log.records_per_sync",
                  counter(merged, "store.appends") / std::max(1.0, syncs),
                  "count");
    result.metric("tenant_store.delta_bytes_per_event",
                  counter(merged, "store.delta_bytes") / ev, "bytes");
    result.metric("tenant_store.restore_ms", restart_s * 1e3, "ms");
    result.metric("tenant_store.base_records",
                  counter(merged, "store.base_records"), "count");
    const double hits = counter(merged, "store.pool_hits");
    const double misses = counter(merged, "store.pool_misses");
    result.metric("buffer_pool.hit_ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
    result.metric("buffer_pool.span_records",
                  counter(merged, "store.span_records"), "count");
    result.metric("compactor.spans_moved_per_event",
                  counter(merged, "store.compaction_spans_moved") / ev,
                  "count");
    result.metric("compactor.segments_collected",
                  counter(merged, "store.segments_collected"), "count");
    result.metric("replicator.bytes_shipped_per_event",
                  counter(merged, "repl.bytes_shipped") / ev, "bytes");
    result.metric("replicator.lag_bytes_max", lag_max, "bytes");
  }
  if (durable) {
    std::filesystem::remove_all(store_dir);
    std::filesystem::remove_all(standby_dir);
  }

  if (options.trace) {
    std::vector<std::pair<std::string, const Tracer*>> sections;
    for (const auto& s : streams) {
      sections.emplace_back("producer " + s->tenant, &s->tracer);
    }
    sections.emplace_back("main", &tracer);
    Recording rec;
    rec.store = streams[0]->store.get();
    rec.pool = streams[0]->pool.get();
    rec.patterns = {pattern};
    rec.session_limit = 100000;
    run_layers(options, {rec}, label, result, sections);
  }
}

}  // namespace ocepbench
