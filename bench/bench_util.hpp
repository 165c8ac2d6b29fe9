// Shared helpers for the table-reproduction benchmark binaries.
//
// Every binary prints (a) a human-readable table in the layout of the
// paper's Table 1.0 and (b) machine-readable CSV lines prefixed "csv,".
// They are print-only exploration tools; perfbench/ is the repository's
// benchmark, with medians, spreads and environment stamps.
// Environment knobs keep default runtimes short while allowing full
// paper-scale runs:
//   SAGE_BENCH_RUNS   -- measurement repetitions   (paper: 10, default 2)
//   SAGE_BENCH_ITERS  -- iterations per repetition (paper: 100, default 3)
//   SAGE_BENCH_SIZES  -- comma list of matrix sizes, powers of two
//                        (default 256,512,1024)
//   SAGE_BENCH_NODES  -- comma list of node counts  (default 4,8)
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "support/strings.hpp"

namespace sage::bench {

struct BenchEnv {
  int runs = 2;
  int iterations = 3;
  std::vector<std::size_t> sizes{256, 512, 1024};
  std::vector<int> nodes{4, 8};
};

/// One comma-separated item of the knob `var`: an integer >= 1 (and a
/// power of two >= 2 when `power_of_two`). Anything else ends the
/// process with exit status 1 and a message naming the variable, before
/// a bad value can reach a division by the node count or an empty sweep.
inline int env_item(const char* var, std::string_view item,
                    bool power_of_two = false) {
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(item.data(), item.data() + item.size(), value);
  const bool ok = ec == std::errc{} && ptr == item.data() + item.size() &&
                  value >= 1 &&
                  (!power_of_two || (value >= 2 && (value & (value - 1)) == 0));
  if (!ok) {
    std::fprintf(stderr, "bench: %s: '%.*s' is not %s\n", var,
                 static_cast<int>(item.size()), item.data(),
                 power_of_two ? "a power of two >= 2" : "an integer >= 1");
    std::exit(1);
  }
  return value;
}

inline BenchEnv bench_env() {
  BenchEnv env;
  if (const char* v = std::getenv("SAGE_BENCH_RUNS")) {
    env.runs = env_item("SAGE_BENCH_RUNS", v);
  }
  if (const char* v = std::getenv("SAGE_BENCH_ITERS")) {
    env.iterations = env_item("SAGE_BENCH_ITERS", v);
  }
  if (const char* v = std::getenv("SAGE_BENCH_SIZES")) {
    env.sizes.clear();
    for (const auto& part : support::split(v, ',')) {
      env.sizes.push_back(static_cast<std::size_t>(
          env_item("SAGE_BENCH_SIZES", part, /*power_of_two=*/true)));
    }
  }
  if (const char* v = std::getenv("SAGE_BENCH_NODES")) {
    env.nodes.clear();
    for (const auto& part : support::split(v, ',')) {
      env.nodes.push_back(env_item("SAGE_BENCH_NODES", part));
    }
  }
  return env;
}

/// True when an n x n matrix splits evenly over `nodes`; otherwise
/// prints the pair as skipped, so a sweep never drops it silently.
inline bool splits_evenly(std::size_t n, int nodes) {
  if (n % static_cast<std::size_t>(nodes) == 0) return true;
  std::printf("skip   %zux%zu on %d nodes: %zu rows do not split over %d "
              "nodes\n",
              n, n, nodes, n, nodes);
  return false;
}

/// One row of a hand-coded vs auto-generated comparison table.
struct ComparisonRow {
  std::string application;
  std::size_t size = 0;
  int nodes = 0;
  double hand_seconds = 0.0;   // mean latency, virtual seconds
  double sage_seconds = 0.0;

  /// The paper's "% of Hand Coded" column: hand/sage * 100 (100 means
  /// parity; lower means the generated code is slower).
  double percent_of_hand() const {
    return sage_seconds > 0 ? hand_seconds / sage_seconds * 100.0 : 0.0;
  }
};

inline void print_table(const std::string& title,
                        const std::vector<ComparisonRow>& rows) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-6s %-14s %-10s %14s %14s %12s\n", "Nodes", "Application",
              "Array", "HandCoded(ms)", "SAGE(ms)", "%ofHand");
  double percent_sum = 0.0;
  for (const ComparisonRow& row : rows) {
    std::printf("%-6d %-14s %zux%-7zu %14.3f %14.3f %11.1f%%\n", row.nodes,
                row.application.c_str(), row.size, row.size,
                row.hand_seconds * 1e3, row.sage_seconds * 1e3,
                row.percent_of_hand());
    percent_sum += row.percent_of_hand();
  }
  if (!rows.empty()) {
    std::printf("%-54s average: %11.1f%%\n", "",
                percent_sum / static_cast<double>(rows.size()));
  }
  for (const ComparisonRow& row : rows) {
    std::printf("csv,%s,%zu,%d,%.6f,%.6f,%.2f\n", row.application.c_str(),
                row.size, row.nodes, row.hand_seconds, row.sage_seconds,
                row.percent_of_hand());
  }
}

/// Host-side (wall-clock) cost of repeated runs: `cold` is the first
/// run on a fresh session (includes machine spawn via construction cost
/// when measured around session creation), `warm` the mean of the
/// remaining runs on the same session. Virtual-time results are
/// unaffected; this measures the harness itself.
struct HostCost {
  std::string label;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  int warm_runs = 0;

  double speedup() const {
    return warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0;
  }
};

/// Folds a per-run host_seconds series (first = cold) into a HostCost.
inline HostCost host_cost(const std::string& label,
                          const std::vector<double>& host_seconds) {
  HostCost cost;
  cost.label = label;
  if (host_seconds.empty()) return cost;
  cost.cold_seconds = host_seconds.front();
  for (std::size_t i = 1; i < host_seconds.size(); ++i) {
    cost.warm_seconds += host_seconds[i];
    ++cost.warm_runs;
  }
  if (cost.warm_runs > 0) {
    cost.warm_seconds /= static_cast<double>(cost.warm_runs);
  }
  return cost;
}

inline void print_host_cost(const HostCost& cost) {
  std::printf("host   %-22s cold %8.3f ms   warm %8.3f ms x%-3d %6.1fx\n",
              cost.label.c_str(), cost.cold_seconds * 1e3,
              cost.warm_seconds * 1e3, cost.warm_runs, cost.speedup());
  std::printf("csv,host,%s,%.6f,%.6f,%d,%.2f\n", cost.label.c_str(),
              cost.cold_seconds, cost.warm_seconds, cost.warm_runs,
              cost.speedup());
}

}  // namespace sage::bench
