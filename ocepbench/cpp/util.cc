#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench.h"

namespace ocepbench {

void Result::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

void Result::note(const std::string& text) {
  std::fprintf(stderr, "# %s\n", text.c_str());
}

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

}  // namespace

std::int64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }

double process_cpu_s() {
  return static_cast<double>(clock_ns(CLOCK_PROCESS_CPUTIME_ID)) / 1e9;
}

double thread_cpu_s() {
  return static_cast<double>(clock_ns(CLOCK_THREAD_CPUTIME_ID)) / 1e9;
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

namespace {

/// The CPUs the process may use, as at its start.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    ::sched_getaffinity(0, sizeof set, &set);
    std::vector<int> out;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

std::size_t usable_cpus() { return allowed_cpus().size(); }

void pin_thread(std::size_t first, std::size_t count) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 4) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = first; i < first + count && i < cpus.size(); ++i) {
    CPU_SET(cpus[i], &set);
  }
  ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
}

std::uint64_t dir_bytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      bytes += it->file_size(ec);
    }
  }
  return bytes;
}

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

double Samples::quantile(double q) const {
  if (values_.empty()) {
    return 0;
  }
  std::vector<double> sorted = values_;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                   sorted.end());
  return sorted[rank];
}

std::string Samples::describe(const std::string& label) const {
  const double n = static_cast<double>(values_.size());
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s: p50 %.3f us", label.c_str(),
                quantile(0.5));
  std::string out = buf;
  const double tails[] = {0.9999, 0.999, 0.99, 0.9};
  for (const double q : tails) {
    const double beyond = (1.0 - q) * n;
    if (beyond >= 10.0) {
      std::snprintf(buf, sizeof buf, "; p%g %.3f us (%.0f samples, %.0f beyond)",
                    q * 100.0, quantile(q), n, beyond);
      out += buf;
      break;
    }
  }
  return out;
}

std::string Samples::list() const {
  std::string out;
  char buf[32];
  for (const double v : values_) {
    std::snprintf(buf, sizeof buf, " %.4g", v);
    out += buf;
  }
  return out;
}

std::uint32_t Tracer::name_id(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::begin(std::uint32_t name, std::uint64_t event) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return kNoParent;
  }
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(Span{name, parent, event, now_ns(), 0});
  open_.push_back(index);
  return index;
}

void Tracer::end(std::uint32_t span) {
  if (span == kNoParent) {
    return;
  }
  spans_[span].end = now_ns();
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_ns() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ns[span.parent] += static_cast<double>(span.end - span.start);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out[names_[span.name]] +=
        static_cast<double>(span.end - span.start) - child_ns[i];
  }
  return out;
}

void Tracer::write(std::FILE* file, const std::string& section) const {
  std::fprintf(file, "section %s\n", section.c_str());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(file, "name %zu %s\n", i, names_[i].c_str());
  }
  for (const Span& span : spans_) {
    if (span.parent == kNoParent) {
      std::fprintf(file, "%u - %" PRIu64 " %" PRId64 " %" PRId64 "\n",
                   span.name, span.event, span.start, span.end);
    } else {
      std::fprintf(file, "%u %u %" PRIu64 " %" PRId64 " %" PRId64 "\n",
                   span.name, span.parent, span.event, span.start, span.end);
    }
  }
}

}  // namespace ocepbench
