// Shared pieces of the OCEP benchmark binary: run options, the result
// record printed as the final JSON line, clocks and resource probes, the
// span tracer of the traced run, and the workload entry points.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/string_pool.h"
#include "core/subset.h"
#include "poet/event_store.h"

namespace ocepbench {

/// The embedded workloads repeat one round of identical work many times.
/// Other load on the machine only ever slows a round down, and it comes
/// in spells that take a few rounds or a whole run, so a median over
/// rounds moves with it.  They report the fast end instead: this quantile
/// of the rounds' event rates, and its complement of their CPU per event
/// and median latency.  A slower program slows its fastest rounds too.
constexpr double kFastRounds = 0.9;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its span file and scratch stores live.
  std::string out_dir = ".bench_out";
  /// Process start, for setup_s.
  std::int64_t start_ns = 0;
};

/// One metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything a run reports.  `metric()` records a value; the printed set
/// is filtered by main() against the declared end-to-end or per-layer
/// names, so a workload may compute more than it prints.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed correctness check (printed on stderr).
  void fail(const std::string& why);
  /// Reference figure for the log (stderr), never part of the JSON.
  static void note(const std::string& text);
};

// --- clocks and probes -----------------------------------------------------

[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double rss_mb();
/// Number of CPUs the process may use.
[[nodiscard]] std::size_t usable_cpus();
/// Pins the calling thread, and the threads it starts from then on, to
/// `count` of the CPUs the process may use, from the `first`-th on.  A
/// no-op with fewer than 4 CPUs.
void pin_thread(std::size_t first, std::size_t count);
/// Sum of regular-file sizes under `dir` (recursive).
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir);
/// Fresh, empty directory (removed first when present).
void reset_dir(const std::string& dir);

/// Latency population (microseconds).
class Samples {
 public:
  void add(double us) { values_.push_back(us); }
  void reserve(std::size_t n) { values_.reserve(n); }
  void merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  /// Quantile q in [0,1] (nearest rank on a sorted copy); 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  /// "p50 12.3 us; p99.9 45.6 us (n=..., 12 beyond)": the median plus the
  /// highest of p90/p99/p99.9/p99.99 with at least ten samples beyond it.
  [[nodiscard]] std::string describe(const std::string& label) const;
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }
  /// Every sample, in order, for the log.
  [[nodiscard]] std::string list() const;

 private:
  std::vector<double> values_;
};

// --- traced run --------------------------------------------------------------

/// Span recorder of the traced run: name, start, end, parent span and the
/// event (arrival position) the span belongs to.  Single-threaded; spans
/// stay in memory and are written to one file when the run ends.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffU;

  explicit Tracer(std::size_t capacity = 0) { spans_.reserve(capacity); }

  [[nodiscard]] std::uint32_t name_id(const std::string& name);
  /// Opens a span under the innermost open span; returns its index, or
  /// kNoParent once the capacity is used up (the span is then dropped).
  std::uint32_t begin(std::uint32_t name, std::uint64_t event);
  void end(std::uint32_t span);

  /// Self time (duration minus the part covered by children), summed per
  /// span name, in nanoseconds.
  [[nodiscard]] std::map<std::string, double> self_ns() const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Appends a text section to `file`: "section <label>", a
  /// "name <id> <text>" line per span name, then one line per span
  /// "<name id> <parent index|-> <event> <start_ns> <end_ns>".
  void write(std::FILE* file, const std::string& section) const;

 private:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;
    std::uint64_t event;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::vector<std::string> names_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null tracer makes it free.
class Scope {
 public:
  Scope(Tracer* tracer, std::uint32_t name, std::uint64_t event)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->begin(name, event)
                                : Tracer::kNoParent) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->end(span_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t span_;
};

// --- inputs ------------------------------------------------------------------

/// A random computation (no simulator): traces T0..Tn-1, event types drawn
/// from A.. of `types` letters, sends and receives with Fidge/Mattern
/// clocks.  Deterministic in the seed.
struct RandomSpec {
  std::uint32_t traces = 4;
  std::uint64_t events = 1000;
  std::uint32_t types = 4;
  std::uint64_t seed = 1;
};
[[nodiscard]] std::unique_ptr<ocep::EventStore> random_computation(
    ocep::StringPool& pool, const RandomSpec& spec);

/// Two-leaf precedence pattern "P := ['', x, '']; Q := ['', y, ''];
/// pattern := P -> Q;".
[[nodiscard]] std::string precedence_pattern(char first, char second);

// --- checks ------------------------------------------------------------------

/// Order-independent identity of a match set.
[[nodiscard]] std::vector<std::vector<ocep::EventId>> canonical(
    const std::vector<ocep::Match>& matches);

/// (leaf, trace) coverage of "P -> Q" with P of type `first` and Q of type
/// `second`, from the vector clocks alone: P on trace t is covered when some
/// Q anywhere happens after the earliest P on t; Q on trace s when the
/// latest Q on s happens after some P.  Returns leaves x traces flags.
[[nodiscard]] std::vector<bool> precedence_coverage(
    const ocep::EventStore& store, ocep::Symbol first, ocep::Symbol second);

/// (leaf, trace) coverage of a reported match set (leaves x traces): the
/// pairs some reported match binds.
[[nodiscard]] std::vector<bool> matches_coverage(
    const std::vector<ocep::Match>& matches, std::size_t leaves,
    std::size_t traces);

/// Checks that every match is sound for a precedence pattern: P of type
/// `first`, Q of type `second`, P -> Q.  Returns an empty string or why not.
[[nodiscard]] std::string check_precedence_matches(
    const ocep::EventStore& store, const std::vector<ocep::Match>& matches,
    ocep::Symbol first, ocep::Symbol second);

/// Receives whose message races an earlier receive on the same trace
/// (their sends are concurrent), by receive index: the race oracle of
/// baseline::RaceChecker, in O(traces log n) per receive instead of
/// O(receives).
[[nodiscard]] std::set<ocep::EventIndex> racing_receives(
    const ocep::EventStore& store, const std::vector<ocep::EventId>& order);

/// Events of one stream that count as failed: all of them when the
/// stream ended degraded or without its FIN, else those never observed.
[[nodiscard]] std::uint64_t failed_events(bool fin, bool degraded,
                                          std::uint64_t events,
                                          std::uint64_t observed);

// --- workloads ---------------------------------------------------------------

void run_paper_cases(const Options& options, Result& result);
void run_serve(const Options& options, bool durable, Result& result);
void run_many_patterns(const Options& options, Result& result);

/// Per-layer replay of one recording (layers.cc): each layer's public
/// functions are called from here, one layer at a time and then stacked.
struct Recording {
  const ocep::EventStore* store = nullptr;
  ocep::StringPool* pool = nullptr;
  std::vector<std::string> patterns;
  /// Events replayed through the session-level layers (0 = all).
  std::uint64_t session_limit = 0;
};
/// Writes every span of the run (the workload's sections, then the
/// ledger's) to one file, <out_dir>/trace-<label>.spans.
void run_layers(const Options& options, const std::vector<Recording>& recs,
                const std::string& label, Result& result,
                const std::vector<std::pair<std::string, const Tracer*>>&
                    workload_spans = {});

/// Checker self-tests: every checker must fail on damaged output.
int run_selftest(const std::string& out_dir);

}  // namespace ocepbench
