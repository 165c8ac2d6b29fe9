// Strong scaling of the Parallel 2D FFT: fixed problem size, growing
// node counts -- the speedup/efficiency curve embedded-HPC evaluations
// of the paper's era reported alongside absolute times. Both the
// hand-coded and the SAGE-generated versions are swept so the overhead
// trend across scale is visible in one table.
#include <cstdio>
#include <vector>

#include "apps/benchmarks.hpp"
#include "apps/handcoded.hpp"
#include "bench_util.hpp"
#include "core/project.hpp"
#include "support/clock.hpp"

namespace {

using namespace sage;

double mean(const std::vector<double>& xs) {
  double total = 0.0;
  for (double x : xs) total += x;
  return xs.empty() ? 0.0 : total / static_cast<double>(xs.size());
}

}  // namespace

int main() {
  const bench::BenchEnv env = bench::bench_env();
  const std::size_t size = env.sizes.back();

  std::printf("Strong scaling -- 2D FFT %zux%zu (virtual time)\n\n", size,
              size);
  std::printf("%-6s %12s %9s %7s %12s %9s %7s %9s\n", "Nodes", "hand(ms)",
              "speedup", "eff", "sage(ms)", "speedup", "eff", "%ofHand");

  std::vector<bench::HostCost> hosts;
  double hand_base = 0.0;
  double sage_base = 0.0;
  for (int nodes : {1, 2, 4, 8}) {
    if (!bench::splits_evenly(size, nodes)) continue;

    apps::HandcodedOptions hand_options;
    hand_options.iterations = env.iterations;
    const double hand =
        mean(apps::run_fft2d_handcoded(size, nodes, hand_options).latencies);

    core::Project project(apps::make_fft2d_workspace(size, nodes));
    runtime::ExecuteOptions options;
    options.iterations = env.iterations;
    options.collect_trace = false;
    std::vector<double> host_seconds;
    std::vector<double> sage_lat;
    const double cold_start = support::wall_seconds();
    auto session = project.open_session(options);
    session->run();  // cold run: construction + first dispatch
    host_seconds.push_back(support::wall_seconds() - cold_start);
    for (int run = 1; run < std::max(2, env.runs); ++run) {
      const runtime::RunStats stats = session->run();
      for (double lat : stats.latencies) sage_lat.push_back(lat);
      host_seconds.push_back(stats.host_seconds);
    }
    const double sage = mean(sage_lat);
    hosts.push_back(bench::host_cost(
        "scaling/" + std::to_string(size) + "x" + std::to_string(nodes) + "n",
        host_seconds));

    if (nodes == 1) {
      hand_base = hand;
      sage_base = sage;
    }
    const double hand_speedup = hand > 0 ? hand_base / hand : 0.0;
    const double sage_speedup = sage > 0 ? sage_base / sage : 0.0;
    std::printf("%-6d %12.3f %8.2fx %6.0f%% %12.3f %8.2fx %6.0f%% %8.1f%%\n",
                nodes, hand * 1e3, hand_speedup,
                hand_speedup / nodes * 100.0, sage * 1e3, sage_speedup,
                sage_speedup / nodes * 100.0,
                sage > 0 ? hand / sage * 100.0 : 0.0);
    std::printf("csv,scaling,%zu,%d,%.6f,%.6f\n", size, nodes, hand, sage);
  }
  std::printf("\n");
  for (const bench::HostCost& cost : hosts) bench::print_host_cost(cost);
  std::printf("\nSpeedups reflect two competing effects: per-node working\n"
              "sets shrinking into cache (helps) vs the all-to-all's\n"
              "per-message costs growing relative to per-node compute\n"
              "(hurts). The generated code's fixed overheads amortize less\n"
              "at scale, so the %%-of-hand column trends down with nodes.\n");
  return 0;
}
