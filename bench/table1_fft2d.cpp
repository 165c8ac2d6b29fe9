// Table 1.0 (2D FFT rows): hand-coded vs SAGE auto-generated Parallel
// 2D FFT on the emulated CSPI platform.
//
// The paper reports the SAGE-generated code executing at roughly 83%
// (17% overhead) of the hand-coded version across 4/8 nodes and
// 256/512/1024 arrays. Absolute times differ (our substrate is an
// emulated machine, not 200 MHz PowerPCs); the reproduction target is
// the ratio column and its trend across the sweep.
#include <cstdio>

#include "apps/benchmarks.hpp"
#include "apps/handcoded.hpp"
#include "bench_util.hpp"
#include "core/project.hpp"
#include "support/clock.hpp"

namespace {

using namespace sage;

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

}  // namespace

int main() {
  const bench::BenchEnv env = bench::bench_env();
  std::printf("Table 1.0 reproduction -- Parallel 2D FFT, CSPI-like platform\n");
  std::printf("(runs=%d iterations/run=%d; paper used 10 runs x 100 iterations)\n",
              env.runs, env.iterations);

  std::vector<bench::ComparisonRow> rows;
  std::vector<bench::HostCost> hosts;
  for (int nodes : env.nodes) {
    for (std::size_t size : env.sizes) {
      if (!bench::splits_evenly(size, nodes)) continue;

      // Hand-coded baseline: averaged latency over runs.
      std::vector<double> hand_lat;
      for (int run = 0; run < env.runs; ++run) {
        apps::HandcodedOptions options;
        options.iterations = env.iterations;
        const apps::HandcodedResult result =
            apps::run_fft2d_handcoded(size, nodes, options);
        for (double lat : result.latencies) hand_lat.push_back(lat);
      }

      // SAGE auto-generated version: one warm session serves all runs.
      // The cold figure includes session construction (machine spawn,
      // buffer allocation, plan building) -- the cost every run paid
      // before warm sessions existed.
      core::Project project(apps::make_fft2d_workspace(size, nodes));
      runtime::ExecuteOptions options;
      options.iterations = env.iterations;
      options.collect_trace = false;
      std::vector<double> sage_lat;
      std::vector<double> host_seconds;
      const double cold_start = support::wall_seconds();
      auto session = project.open_session(options);
      {
        const runtime::RunStats stats = session->run();
        for (double lat : stats.latencies) sage_lat.push_back(lat);
        host_seconds.push_back(support::wall_seconds() - cold_start);
      }
      for (int run = 1; run < env.runs; ++run) {
        const runtime::RunStats stats = session->run();
        for (double lat : stats.latencies) sage_lat.push_back(lat);
        host_seconds.push_back(stats.host_seconds);
      }
      hosts.push_back(bench::host_cost(
          "fft2d/" + std::to_string(size) + "x" + std::to_string(nodes) + "n",
          host_seconds));

      bench::ComparisonRow row;
      row.application = "2D FFT";
      row.size = size;
      row.nodes = nodes;
      row.hand_seconds = mean(hand_lat);
      row.sage_seconds = mean(sage_lat);
      rows.push_back(row);
    }
  }

  bench::print_table("Comparison of hand-coded and auto-generated code (2D FFT)",
                     rows);
  std::printf("\nWarm-session host cost (first run cold, rest warm)\n");
  for (const bench::HostCost& cost : hosts) bench::print_host_cost(cost);
  return 0;
}
