// Cold-start benchmark: what does Session::create cost, and how much of
// it does the Compiler -> Program split give back?
//
// Three creation paths per configuration:
//   cold    -- Session::create from a GlueConfig, no plan cache: every
//              creation runs the full planner (the pre-split behaviour);
//   cache   -- Session::create with --plan-cache semantics: the first
//              creation compiles and stores, every later one
//              deserializes the content-addressed plan blob;
//   shared  -- Session::create from an already-compiled shared program:
//              the executor-only cost (machine spawn + buffer
//              allocation), i.e. the floor the cache path approaches.
//
// The HostCost convention matches the other benches: first creation is
// the cold column, the mean of the rest is the warm column. Print-only:
// perfbench's `runtime.open_ms` times the executor-only open on its
// workloads; the plan-cache path is timed nowhere else.
#include <filesystem>
#include <functional>
#include <memory>
#include <vector>

#include "apps/benchmarks.hpp"
#include "bench_util.hpp"
#include "core/project.hpp"
#include "runtime/compiler.hpp"
#include "runtime/session.hpp"
#include "support/clock.hpp"

namespace {

using namespace sage;

runtime::GlueConfig make_config(const std::string& app, std::size_t n,
                                int nodes) {
  std::unique_ptr<model::Workspace> ws =
      app == "fft2d" ? apps::make_fft2d_workspace(n, nodes)
                     : apps::make_cornerturn_workspace(n, nodes);
  core::Project project(std::move(ws));
  return project.generate().config;
}

/// Times `creations` Session constructions through `make` (which
/// returns a live session; destroyed -- machine joined -- inside the
/// timed region, matching what a serve loop pays per session slot).
bench::HostCost time_creations(const std::string& label, int creations,
                               const std::function<std::unique_ptr<
                                   runtime::Session>()>& make) {
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(creations));
  for (int i = 0; i < creations; ++i) {
    const double start = support::wall_seconds();
    std::unique_ptr<runtime::Session> session = make();
    session.reset();
    seconds.push_back(support::wall_seconds() - start);
  }
  return bench::host_cost(label, seconds);
}

}  // namespace

int main() {
  const bench::BenchEnv env = bench::bench_env();
  const int creations = env.runs + 1;  // first = cold column
  const runtime::FunctionRegistry registry = runtime::standard_registry();

  const std::string cache_dir = "bench_plan_cache";

  struct Config {
    std::string app;
    std::size_t n = 0;
    int nodes = 0;
  };
  const std::vector<Config> configs = {
      {"cornerturn", 1024, 8},
      {"fft2d", 512, 4},
  };

  std::printf("session_create: %d creations per path (first = cold)\n",
              creations);
  for (const Config& config : configs) {
    const runtime::GlueConfig glue =
        make_config(config.app, config.n, config.nodes);
    const std::string tag = config.app + "-" + std::to_string(config.n) +
                            "x" + std::to_string(config.nodes);

    // Fresh cache per configuration: creation 0 misses + stores,
    // creations 1..N hit.
    std::filesystem::remove_all(cache_dir);

    runtime::ExecuteOptions cold_options;
    const bench::HostCost cold =
        time_creations(tag + "-cold", creations, [&] {
          return std::make_unique<runtime::Session>(glue, registry,
                                                    cold_options);
        });

    runtime::ExecuteOptions cache_options;
    cache_options.plan_cache_dir = cache_dir;
    const bench::HostCost cache =
        time_creations(tag + "-cache", creations, [&] {
          return std::make_unique<runtime::Session>(glue, registry,
                                                    cache_options);
        });

    const std::shared_ptr<const runtime::CompiledProgram> program =
        runtime::Compiler::compile(glue, registry);
    const bench::HostCost shared =
        time_creations(tag + "-shared", creations, [&] {
          return std::make_unique<runtime::Session>(program, registry,
                                                    runtime::ExecuteOptions{});
        });

    bench::print_host_cost(cold);
    bench::print_host_cost(cache);
    bench::print_host_cost(shared);
  }
  std::filesystem::remove_all(cache_dir);
  return 0;
}
