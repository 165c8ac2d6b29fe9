// Glue-generation benchmark: what does chunk memoization buy over
// compiling the glue generator program on every call?
//
// Two evaluation paths per workspace, each timed over runs+1 fresh
// interpreters (first = cold column):
//   vm      -- read -> compile -> execute per call (a caller-supplied
//              program's cost under the VM);
//   vm-memo -- execute a chunk compiled once per process, which is what
//              codegen::generate_glue does for the builtin generator.
//
// Print-only: perfbench's `codegen.generate_ms` and `alter.compile_ms`
// time the same generator on its workloads.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "alter/compiler.hpp"
#include "alter/interp.hpp"
#include "apps/benchmarks.hpp"
#include "bench_util.hpp"
#include "codegen/generator_program.hpp"
#include "support/clock.hpp"

namespace {

using namespace sage;

/// Times `calls` evaluations of the glue generator program, each on a
/// fresh interpreter attached to `workspace` (matching generate_glue's
/// per-call interpreter lifetime). `evaluate` runs one evaluation.
template <typename Fn>
bench::HostCost time_calls(const std::string& label, int calls,
                           const Fn& evaluate) {
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const double start = support::wall_seconds();
    evaluate();
    seconds.push_back(support::wall_seconds() - start);
  }
  return bench::host_cost(label, seconds);
}

}  // namespace

int main() {
  const bench::BenchEnv env = bench::bench_env();
  const int calls = env.runs + 1;  // first = cold column
  const std::string& program = codegen::glue_generator_source();

  struct Config {
    std::string app;
    std::unique_ptr<model::Workspace> workspace;
  };
  std::vector<Config> configs;
  configs.push_back({"fft2d", apps::make_fft2d_workspace(256, 4)});
  configs.push_back({"cornerturn", apps::make_cornerturn_workspace(256, 2)});

  std::printf("glue_codegen: %d generator evaluations per path "
              "(first = cold)\n", calls);
  for (Config& config : configs) {
    model::ModelObject& root = config.workspace->root();

    const bench::HostCost vm = time_calls(config.app + "-vm", calls, [&] {
      alter::Interpreter interp;
      interp.attach_model(root);
      interp.eval_string(program);  // read + compile + execute
    });

    const alter::ChunkPtr chunk =
        alter::compile_string(program, "glue-generator");
    const bench::HostCost memo =
        time_calls(config.app + "-vm-memo", calls, [&] {
          alter::Interpreter interp;
          interp.attach_model(root);
          interp.execute(chunk);  // compile amortised across the process
        });

    bench::print_host_cost(vm);
    bench::print_host_cost(memo);
  }
  return 0;
}
