// Buffer-management ablation (paper §3.4 and Conclusions).
//
// The paper attributes the corner turn's extra overhead -- worst on the
// two-node configuration -- to the runtime assigning "unique logical
// buffers to the data per function which can cause extra data access
// times", and says work is underway to reach 90% of hand-coded
// performance. This bench isolates that design choice by running the
// corner turn under both buffer policies:
//   unique-per-function -- the shipped behaviour (every transfer stages
//                          through the logical buffer's own storage)
//   shared              -- the planned improvement (direct moves)
#include <cstdio>
#include <cstdlib>

#include "apps/benchmarks.hpp"
#include "apps/handcoded.hpp"
#include "bench_util.hpp"
#include "core/project.hpp"

namespace {

using namespace sage;

// One warm session serves both policies: the RunOverrides override swaps
// the buffer policy per run without rebuilding the machine.
double mean_latency(runtime::Session& session, runtime::BufferPolicy policy,
                    int runs) {
  runtime::RunOverrides request;
  request.buffer_policy = policy;
  double total = 0.0;
  int count = 0;
  for (int run = 0; run < runs; ++run) {
    for (double lat : session.run(request).latencies) {
      total += lat;
      ++count;
    }
  }
  return count > 0 ? total / count : 0.0;
}

}  // namespace

int main() {
  bench::BenchEnv env = bench::bench_env();
  if (std::getenv("SAGE_BENCH_NODES") == nullptr) {
    env.nodes = {2, 4, 8};
  }
  std::printf("Buffer-management ablation -- Distributed Corner Turn\n");
  std::printf("unique-per-function is the paper's shipped runtime;\n");
  std::printf("shared is the improvement its conclusions promise (~90%%).\n\n");
  std::printf("%-6s %-10s %12s %12s %12s %10s %10s\n", "Nodes", "Array",
              "Hand(ms)", "Unique(ms)", "Shared(ms)", "Uniq%", "Shared%");

  for (int nodes : env.nodes) {
    for (std::size_t size : env.sizes) {
      if (!bench::splits_evenly(size, nodes)) continue;

      apps::HandcodedOptions hand_options;
      hand_options.iterations = env.iterations;
      double hand = 0.0;
      for (int run = 0; run < env.runs; ++run) {
        const auto result =
            apps::run_cornerturn_handcoded(size, nodes, hand_options);
        for (double lat : result.latencies) hand += lat;
      }
      hand /= static_cast<double>(env.runs * env.iterations);

      core::Project project(apps::make_cornerturn_workspace(size, nodes));
      runtime::ExecuteOptions options;
      options.iterations = env.iterations;
      options.collect_trace = false;
      auto session = project.open_session(options);
      const double unique = mean_latency(
          *session, runtime::BufferPolicy::kUniquePerFunction, env.runs);
      const double shared =
          mean_latency(*session, runtime::BufferPolicy::kShared, env.runs);

      std::printf("%-6d %zux%-7zu %12.3f %12.3f %12.3f %9.1f%% %9.1f%%\n",
                  nodes, size, size, hand * 1e3, unique * 1e3, shared * 1e3,
                  unique > 0 ? hand / unique * 100.0 : 0.0,
                  shared > 0 ? hand / shared * 100.0 : 0.0);
      std::printf("csv,ablation,%zu,%d,%.6f,%.6f,%.6f\n", size, nodes, hand,
                  unique, shared);
    }
  }
  return 0;
}
