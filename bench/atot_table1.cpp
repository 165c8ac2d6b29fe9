// Closing the AToT loop on the Table-1 workload: does the mapping the
// genetic optimizer produces actually run as well as the canonical
// hand-chosen one-thread-per-node layout?
//
// For each configuration the bench (a) runs the design under the
// canonical mapping, (b) asks AToT for a mapping, writes it back into
// the model, regenerates the glue code, and runs again. The paper's
// workflow -- "the genetic algorithm based partitioning and mapping
// capability of AToT assigns the application tasks" followed by
// auto-generation -- as one measurable loop.
#include <cstdio>

#include "apps/benchmarks.hpp"
#include "atot/cost_model.hpp"
#include "atot/mapper.hpp"
#include "bench_util.hpp"
#include "core/project.hpp"

namespace {

using namespace sage;

double mean_latency(core::Project& project, int iterations) {
  runtime::ExecuteOptions options;
  options.iterations = iterations;
  options.collect_trace = false;
  project.execute(options);  // warm-up (first-touch page faults)
  return project.execute(options).mean_latency();
}

}  // namespace

int main() {
  const bench::BenchEnv env = bench::bench_env();
  std::printf("AToT-mapped vs canonical mapping -- Parallel 2D FFT\n\n");
  std::printf("%-6s %-10s %14s %14s %10s\n", "Nodes", "Array",
              "canonical(ms)", "AToT(ms)", "ratio");

  for (int nodes : env.nodes) {
    for (std::size_t size : env.sizes) {
      if (!bench::splits_evenly(size, nodes)) continue;

      core::Project canonical(apps::make_fft2d_workspace(size, nodes));
      const double canonical_ms = mean_latency(canonical, env.iterations);

      auto ws = apps::make_fft2d_workspace(size, nodes);
      const atot::MappingProblem problem = atot::build_problem(*ws);
      const atot::GeneticResult ga = atot::genetic_mapping(problem);
      atot::apply_assignment(*ws, problem, ga.best);
      ws->validate_or_throw();
      core::Project mapped(std::move(ws));
      const double mapped_ms = mean_latency(mapped, env.iterations);

      std::printf("%-6d %zux%-7zu %14.3f %14.3f %9.2fx\n", nodes, size, size,
                  canonical_ms * 1e3, mapped_ms * 1e3,
                  canonical_ms > 0 ? mapped_ms / canonical_ms : 0.0);
      std::printf("csv,atot_table1,%zu,%d,%.6f,%.6f\n", size, nodes,
                  canonical_ms, mapped_ms);
    }
  }
  std::printf("\nA ratio near 1.0 means the optimizer independently finds a\n"
              "layout as good as the canonical one-thread-per-node mapping.\n");
  return 0;
}
