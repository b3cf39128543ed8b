// Per-layer ledger of the traced run.  One recording is replayed through
// each layer's public functions, called from here:
//
//   isolated passes   SessionServer::write into a memory sink, crc32c,
//                     SessionClient::feed into a counting sink,
//                     Linearizer::offer, EventStore::append,
//                     OcepMatcher::observe, SegmentLog::append/sync;
//   stacked passes    matcher -> +EventStore -> +linearizer -> +session
//                     decode -> +segment-log append and sync ->
//                     +replication encode, each stage timed whole, so a
//                     layer's cost is the difference to the stage below;
//   one traced pass   the full stack with a span around every call, the
//                     spans of one event sharing its arrival position.
//
// The traced pass is also run untraced; the difference is the tracing
// overhead.  Every span recorded in the run goes to one file.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "common/crc32c.h"
#include "core/matcher.h"
#include "pattern/compiled.h"
#include "poet/linearizer.h"
#include "poet/session.h"
#include "store/replication.h"
#include "store/segment_log.h"

namespace ocepbench {

using namespace ocep;

namespace {

/// Events per segment-log record, as one group-commit window would hold.
constexpr std::uint64_t kEventsPerRecord = 512;
constexpr int kReps = 5;

class MemorySink final : public ByteSink {
 public:
  void write(std::string_view bytes) override {
    data.append(bytes);
    ends.push_back(data.size());
  }
  std::string data;
  std::vector<std::size_t> ends;  ///< end offset of every write
};

class CountingSink final : public EventSink {
 public:
  void on_event(const Event&, const VectorClock&) override { ++events; }
  std::uint64_t events = 0;
};

/// The replay is loss-free, so no resync is ever requested.
class NoTransport final : public ResyncTransport {
 public:
  void request_resync(const ResyncRequest&) override {}
};

struct SpanIds {
  std::uint32_t event, encode, feed, append, observe, log_append, log_sync,
      repl;
};

/// Top of the stack: EventStore append, then every matcher observes.
class MatchSink final : public EventSink {
 public:
  MatchSink(StringPool& pool, const std::vector<std::string>& patterns,
            Tracer* tracer, const SpanIds& ids)
      : tracer_(tracer), ids_(ids) {
    for (const std::string& text : patterns) {
      matchers_.push_back(std::make_unique<OcepMatcher>(
          store_, pattern::compile(text, pool)));
    }
  }
  void on_traces(const std::vector<Symbol>& names) override {
    for (const Symbol name : names) {
      store_.add_trace(name);
    }
  }
  void on_event(const Event& event, const VectorClock& clock) override {
    {
      Scope scope(tracer_, ids_.append, position);
      store_.append(event, clock);
    }
    Scope scope(tracer_, ids_.observe, position);
    for (auto& matcher : matchers_) {
      matcher->observe(event);
    }
  }
  [[nodiscard]] const EventStore& store() const noexcept { return store_; }
  std::uint64_t position = 0;

 private:
  EventStore store_;
  std::vector<std::unique_ptr<OcepMatcher>> matchers_;
  Tracer* tracer_;
  SpanIds ids_;
};

/// Wall seconds of `fn`, median of kReps runs.
template <typename Fn>
double timed(Fn&& fn) {
  Samples runs;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::int64_t a = now_ns();
    fn();
    runs.add(static_cast<double>(now_ns() - a) / 1e9);
  }
  return runs.quantile(0.5);
}

struct Totals {
  double events = 0;        ///< session-level events (limited)
  double matcher_events = 0;
  double encode_s = 0, bytes = 0, writes = 0;
  double crc_s = 0, crc_kib = 0;
  double decode_s = 0, linearize_s = 0, append_s = 0, observe_s = 0;
  double held_max = 0;
  Samples search_us;
  Samples log_append_us, log_sync_us;
  double log_bytes = 0, repl_bytes = 0;
  double stage[6] = {0, 0, 0, 0, 0, 0};
  double full_untraced_s = 0, full_traced_s = 0;
};

/// Segment-log tail of the stack: every kEventsPerRecord events the bytes
/// received since the last record become one delta record, synced, then
/// read back and encoded as a replication append frame.
class LogTail {
 public:
  LogTail(const std::string& dir, bool replicate, Tracer* tracer,
          const SpanIds& ids, Totals* totals)
      : replicate_(replicate), tracer_(tracer), ids_(ids), totals_(totals) {
    reset_dir(dir);
    store::LogConfig config;
    config.dir = dir;
    log_ = std::make_unique<store::SegmentLog>(
        std::move(config), [](const store::Record&, const store::RecordRef&) {});
  }
  void add(std::string_view bytes, std::uint64_t position) {
    pending_.append(bytes);
    if ((position + 1) % kEventsPerRecord == 0) {
      flush(position);
    }
  }
  void flush(std::uint64_t position) {
    if (pending_.empty()) {
      return;
    }
    store::Record record;
    record.type = store::RecordType::kDelta;
    record.epoch = 1;
    record.name = "tenant";
    record.payload = std::move(pending_);
    pending_.clear();
    store::RecordRef ref;
    {
      Scope scope(tracer_, ids_.log_append, position);
      const std::int64_t a = now_ns();
      ref = log_->append(record);
      if (totals_ != nullptr) {
        totals_->log_append_us.add(static_cast<double>(now_ns() - a) / 1e3);
      }
    }
    {
      Scope scope(tracer_, ids_.log_sync, position);
      const std::int64_t a = now_ns();
      log_->sync();
      if (totals_ != nullptr) {
        totals_->log_sync_us.add(static_cast<double>(now_ns() - a) / 1e3);
        totals_->log_bytes += static_cast<double>(record.payload.size());
      }
    }
    if (replicate_) {
      Scope scope(tracer_, ids_.repl, position);
      const std::string raw =
          log_->read_range(ref.segment, ref.offset, ref.frame_bytes);
      const std::string frame = store::encode_repl_frame(
          store::ReplFrameType::kAppend,
          store::encode_repl_append(ref.segment, ref.offset, raw));
      if (totals_ != nullptr) {
        totals_->repl_bytes += static_cast<double>(frame.size());
      }
    }
  }

 private:
  bool replicate_;
  Tracer* tracer_;
  SpanIds ids_;
  Totals* totals_;
  std::unique_ptr<store::SegmentLog> log_;
  std::string pending_;
};

std::vector<Symbol> trace_names(const EventStore& store) {
  std::vector<Symbol> names;
  for (TraceId t = 0; t < store.trace_count(); ++t) {
    names.push_back(store.trace_name(t));
  }
  return names;
}

void replay_recording(const Options& options, const Recording& rec,
                      Tracer& tracer, const SpanIds& ids, Totals& totals) {
  const EventStore& source = *rec.store;
  const std::vector<EventId> all(source.arrival_order().begin(),
                                 source.arrival_order().end());
  const std::size_t n = rec.session_limit == 0
                            ? all.size()
                            : std::min<std::size_t>(all.size(),
                                                    rec.session_limit);
  const std::vector<EventId> order(all.begin(),
                                   all.begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<VectorClock> clocks;
  clocks.reserve(n);
  for (const EventId id : order) {
    clocks.push_back(source.clock(id));
  }
  const std::vector<Symbol> names = trace_names(source);
  const std::string log_dir =
      options.out_dir + "/layers-" + std::to_string(::getpid());
  totals.events += static_cast<double>(n);

  // Client encode: SessionServer::write into memory.
  MemorySink recorded;
  const double encode_s = timed([&] {
    MemorySink sink;
    SessionServer server(sink, *rec.pool, names);
    for (std::size_t i = 0; i < n; ++i) {
      server.write(source.event(order[i]), clocks[i]);
    }
    server.finish();
    recorded = std::move(sink);
  });
  totals.encode_s += encode_s;
  totals.bytes += static_cast<double>(recorded.data.size());
  totals.writes += static_cast<double>(recorded.ends.size());
  // Frame i of the recording: HELLO is frame 0, event i is frame i + 1.
  const auto frame = [&recorded](std::size_t i) {
    const std::size_t begin = i == 0 ? 0 : recorded.ends[i - 1];
    return std::string_view(recorded.data).substr(begin,
                                                  recorded.ends[i] - begin);
  };
  const std::size_t frames = recorded.ends.size();

  // Stored to a volatile so the checksum loop cannot be optimized away.
  static volatile std::uint32_t crc_sink = 0;
  totals.crc_s += timed([&] { crc_sink = crc32c(recorded.data); });
  static_cast<void>(crc_sink);
  totals.crc_kib += static_cast<double>(recorded.data.size()) / 1024.0;

  // Session decode (with its embedded linearizer) into a counting sink.
  totals.decode_s += timed([&] {
    StringPool pool;
    CountingSink sink;
    NoTransport transport;
    SessionClient client(sink, pool, transport);
    for (std::size_t i = 0; i < frames; ++i) {
      client.feed(frame(i));
    }
  });

  totals.linearize_s += timed([&] {
    CountingSink sink;
    Linearizer linearizer(names.size(), sink);
    for (std::size_t i = 0; i < n; ++i) {
      linearizer.offer(source.event(order[i]), clocks[i]);
      totals.held_max = std::max(totals.held_max,
                                 static_cast<double>(linearizer.pending()));
    }
  });

  totals.append_s += timed([&] {
    EventStore store;
    for (const Symbol name : names) {
      store.add_trace(name);
    }
    for (std::size_t i = 0; i < n; ++i) {
      store.append(source.event(order[i]), clocks[i]);
    }
  });

  // Matcher: every observe over the whole recording, on the source store.
  {
    std::vector<std::unique_ptr<OcepMatcher>> matchers;
    for (const std::string& text : rec.patterns) {
      matchers.push_back(std::make_unique<OcepMatcher>(
          source, pattern::compile(text, *rec.pool)));
    }
    std::vector<std::uint64_t> searches(matchers.size(), 0);
    for (const EventId id : all) {
      const Event& event = source.event(id);
      for (std::size_t m = 0; m < matchers.size(); ++m) {
        const std::int64_t a = now_ns();
        matchers[m]->observe(event);
        const std::int64_t b = now_ns();
        totals.observe_s += static_cast<double>(b - a) / 1e9;
        if (matchers[m]->stats().searches != searches[m]) {
          searches[m] = matchers[m]->stats().searches;
          totals.search_us.add(static_cast<double>(b - a) / 1e3);
        }
      }
    }
    totals.matcher_events += static_cast<double>(all.size());
  }

  // Stacked stages.
  const SpanIds none{};
  {
    // S1: matcher only, over a store filled beforehand.
    Samples runs;
    for (int rep = 0; rep < kReps; ++rep) {
      MatchSink filled(*rec.pool, {}, nullptr, none);
      filled.on_traces(names);
      for (std::size_t i = 0; i < n; ++i) {
        filled.on_event(source.event(order[i]), clocks[i]);
      }
      std::vector<std::unique_ptr<OcepMatcher>> matchers;
      for (const std::string& text : rec.patterns) {
        matchers.push_back(std::make_unique<OcepMatcher>(
            filled.store(), pattern::compile(text, *rec.pool)));
      }
      const std::int64_t a = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        const Event& event = filled.store().event(order[i]);
        for (auto& matcher : matchers) {
          matcher->observe(event);
        }
      }
      runs.add(static_cast<double>(now_ns() - a) / 1e9);
    }
    totals.stage[0] += runs.quantile(0.5);
  }
  totals.stage[1] += timed([&] {
    MatchSink sink(*rec.pool, rec.patterns, nullptr, none);
    sink.on_traces(names);
    for (std::size_t i = 0; i < n; ++i) {
      sink.on_event(source.event(order[i]), clocks[i]);
    }
  });
  totals.stage[2] += timed([&] {
    MatchSink sink(*rec.pool, rec.patterns, nullptr, none);
    sink.on_traces(names);
    Linearizer linearizer(names.size(), sink);
    for (std::size_t i = 0; i < n; ++i) {
      linearizer.offer(source.event(order[i]), clocks[i]);
    }
  });
  // Stages that decode bytes compile the patterns into the decoder's pool.
  const auto session_stage = [&](int depth, Tracer* tr, const SpanIds& sids,
                                 Totals* log_totals) {
    StringPool pool;
    MatchSink sink(pool, rec.patterns, tr, sids);
    NoTransport transport;
    SessionClient client(sink, pool, transport);
    std::unique_ptr<LogTail> tail;
    if (depth >= 5) {
      tail = std::make_unique<LogTail>(log_dir, depth >= 6, tr, sids,
                                       log_totals);
    }
    client.feed(frame(0));
    for (std::size_t i = 0; i < n; ++i) {
      Scope scope(tr, sids.event, i);
      sink.position = i;
      const std::string_view bytes = frame(i + 1);
      {
        Scope feed(tr, sids.feed, i);
        client.feed(bytes);
      }
      if (tail != nullptr) {
        tail->add(bytes, i);
      }
    }
    if (tail != nullptr) {
      tail->flush(n);
    }
  };
  totals.stage[3] += timed([&] { session_stage(4, nullptr, none, nullptr); });
  totals.stage[4] += timed([&] { session_stage(5, nullptr, none, nullptr); });
  totals.stage[5] += timed([&] { session_stage(6, nullptr, none, nullptr); });

  // The full stack once more, with client encode in front: untraced, then
  // traced (spans kept), then the isolated segment-log timings.
  const auto full = [&](Tracer* tr, Totals* log_totals) {
    StringPool pool;
    MatchSink sink(pool, rec.patterns, tr, ids);
    NoTransport transport;
    SessionClient client(sink, pool, transport);
    LogTail tail(log_dir, true, tr, ids, log_totals);
    MemorySink wire;
    SessionServer server(wire, *rec.pool, names);
    client.feed(wire.data);
    for (std::size_t i = 0; i < n; ++i) {
      Scope scope(tr, ids.event, i);
      sink.position = i;
      const std::size_t before = wire.data.size();
      {
        Scope encode(tr, ids.encode, i);
        server.write(source.event(order[i]), clocks[i]);
      }
      const std::string_view bytes =
          std::string_view(wire.data).substr(before);
      {
        Scope feed(tr, ids.feed, i);
        client.feed(bytes);
      }
      tail.add(bytes, i);
    }
    tail.flush(n);
  };
  totals.full_untraced_s += timed([&] { full(nullptr, nullptr); });
  {
    const std::int64_t a = now_ns();
    full(&tracer, &totals);
    totals.full_traced_s += static_cast<double>(now_ns() - a) / 1e9;
  }
  std::filesystem::remove_all(log_dir);
}

}  // namespace

void run_layers(const Options& options, const std::vector<Recording>& recs,
                const std::string& label, Result& result,
                const std::vector<std::pair<std::string, const Tracer*>>&
                    workload_spans) {
  std::uint64_t capacity = 0;
  for (const Recording& rec : recs) {
    const std::uint64_t count = rec.store->event_count();
    const std::uint64_t n =
        rec.session_limit == 0 ? count : std::min(count, rec.session_limit);
    capacity += n * 5 + 3 * (n / kEventsPerRecord + 2);
  }
  Tracer tracer(capacity);
  SpanIds ids{};
  ids.event = tracer.name_id("event");
  ids.encode = tracer.name_id("client.encode");
  ids.feed = tracer.name_id("session.feed");
  ids.append = tracer.name_id("event_store.append");
  ids.observe = tracer.name_id("matcher.observe");
  ids.log_append = tracer.name_id("segment_log.append");
  ids.log_sync = tracer.name_id("segment_log.sync");
  ids.repl = tracer.name_id("replication.encode");
  Totals totals;
  for (const Recording& rec : recs) {
    replay_recording(options, rec, tracer, ids, totals);
  }

  const double n = std::max(1.0, totals.events);
  const auto ns_per_event = [n](double seconds) { return seconds * 1e9 / n; };
  const auto keep = [&result](const std::string& name, double value,
                              const std::string& unit) {
    if (result.metrics.find(name) == result.metrics.end()) {
      result.metric(name, value, unit);
    }
  };
  result.metric("client.encode_ns_per_event", ns_per_event(totals.encode_s),
                "ns");
  result.metric("client.frame_bytes_per_event", totals.bytes / n, "bytes");
  keep("client.writes_per_event", totals.writes / n, "count");
  result.metric("session.decode_ns_per_event", ns_per_event(totals.decode_s),
                "ns");
  result.metric("session.crc_ns_per_kib",
                totals.crc_s * 1e9 / std::max(1.0, totals.crc_kib), "ns");
  result.metric("linearizer.ns_per_event", ns_per_event(totals.linearize_s),
                "ns");
  keep("linearizer.held_max", totals.held_max, "count");
  result.metric("event_store.append_ns_per_event",
                ns_per_event(totals.append_s), "ns");
  result.metric("matcher.observe_ns_per_event",
                totals.observe_s * 1e9 / std::max(1.0, totals.matcher_events),
                "ns");
  result.metric("matcher.search_us_p50", totals.search_us.quantile(0.5), "us");
  result.metric("segment_log.append_us_p50",
                totals.log_append_us.quantile(0.5), "us");
  result.metric("segment_log.sync_us_p50", totals.log_sync_us.quantile(0.5),
                "us");
  keep("segment_log.records_per_sync", 1, "count");
  keep("tenant_store.delta_bytes_per_event", totals.log_bytes / n, "bytes");
  keep("replicator.bytes_shipped_per_event", totals.repl_bytes / n, "bytes");

  const char* stages[6] = {"matcher", "event_store", "linearizer",
                           "session_decode", "segment_log", "replication"};
  for (int i = 0; i < 6; ++i) {
    const double below = i == 0 ? 0 : totals.stage[i - 1];
    result.metric(std::string("stack.") + stages[i] + "_ns_per_event",
                  ns_per_event(totals.stage[i] - below), "ns");
  }
  result.metric("trace.overhead_pct",
                totals.full_untraced_s > 0
                    ? (totals.full_traced_s - totals.full_untraced_s) * 100.0 /
                          totals.full_untraced_s
                    : 0,
                "%");
  const std::map<std::string, double> spans = tracer.self_ns();
  const auto self_ns = [&spans, n](std::initializer_list<const char*> names) {
    double total = 0;
    for (const char* name : names) {
      const auto it = spans.find(name);
      total += it == spans.end() ? 0 : it->second;
    }
    return total / n;
  };
  result.metric("span.client_encode_self_ns", self_ns({"client.encode"}), "ns");
  result.metric("span.session_feed_self_ns", self_ns({"session.feed"}), "ns");
  result.metric("span.event_store_append_self_ns",
                self_ns({"event_store.append"}), "ns");
  result.metric("span.matcher_observe_self_ns", self_ns({"matcher.observe"}),
                "ns");
  result.metric("span.segment_log_self_ns",
                self_ns({"segment_log.append", "segment_log.sync"}), "ns");
  result.metric("span.replication_encode_self_ns",
                self_ns({"replication.encode"}), "ns");

  // Layers this workload does not run: no change predicted.
  for (const char* name :
       {"pipeline.stalls_per_kevent", "pipeline.batches_per_kevent",
        "pipeline.worker_skew", "shard.bytes_in_per_event",
        "tenant_store.base_records", "tenant_store.restore_ms",
        "buffer_pool.hit_ratio",
        "buffer_pool.span_records", "compactor.spans_moved_per_event",
        "compactor.segments_collected", "replicator.lag_bytes_max"}) {
    keep(name, 0, "count");
  }

  // One span file per run: the workload's own spans, then the ledger's.
  const std::string path = options.out_dir + "/trace-" + label + ".spans";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file != nullptr) {
    for (const auto& [section, spans_of] : workload_spans) {
      spans_of->write(file, section);
    }
    tracer.write(file, "layers");
    std::fclose(file);
  }
  Result::note("spans: " + std::to_string(tracer.size()) + " ledger spans (" +
               std::to_string(tracer.dropped()) + " dropped) written to " +
               path);
}

}  // namespace ocepbench
