// ocepbench — the OCEP benchmark binary.
//
//   ocepbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//   ocepbench --selftest
//
// Workloads: paper_cases, serve_ingest, serve_durable, many_patterns.
// Prints one JSON object as its last stdout line with every metric the
// run computed ({"correct", "attempted", "failed", "metrics"});
// ocepbench/run.py keeps the ones BENCHMARK.json declares.  Reference
// figures (tail percentiles, per-case medians) go to stderr.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/error.h"

using namespace ocepbench;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: ocepbench --workload paper_cases|serve_ingest|"
               "serve_durable|many_patterns --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n"
               "       ocepbench --selftest\n");
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.start_ns = now_ns();
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      usage();
      return 2;
    }
  }
  try {
    std::filesystem::create_directories(options.out_dir);
    if (selftest) {
      return run_selftest(options.out_dir);
    }
    if (options.seconds <= 0) {
      usage();
      return 2;
    }
    Result result;
    if (options.workload == "paper_cases") {
      run_paper_cases(options, result);
    } else if (options.workload == "serve_ingest") {
      run_serve(options, false, result);
    } else if (options.workload == "serve_durable") {
      run_serve(options, true, result);
    } else if (options.workload == "many_patterns") {
      run_many_patterns(options, result);
    } else {
      usage();
      return 2;
    }
    for (auto& [name, metric] : result.metrics) {
      if (!std::isfinite(metric.value)) {
        result.fail(name + " is not finite");
        metric.value = 0;
      }
    }
    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : result.metrics) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.10g", metric.value);
      json += first ? "" : ", ";
      json += json_string(name) + ": {\"value\": " + buf +
              ", \"unit\": " + json_string(metric.unit) + "}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ocepbench: %s\n", error.what());
    return 1;
  }
}
