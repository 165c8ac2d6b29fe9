// Transport-backend overhead: what does moving real bytes cost, per
// run, relative to the historical in-process fabric?
//
// One warm session per {configuration x backend}; the first run is the
// cold column (machine spawn, and for shmem/tcp the fork/listener
// setup), the mean of the rest is the warm column. Virtual-time results
// are identical across backends by construction (the fabric resolves
// arrival times and fault verdicts before the transport moves a byte)
// -- the bench asserts that -- so host time is the only axis.
//
// Host times are print-only: perfbench times the inproc path on every
// workload (`cpu_ms_per_set`, `runtime.run_ms`). The bit-identity check
// is enforced by the `bench_transport_overhead` smoke ctest.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apps/benchmarks.hpp"
#include "bench_util.hpp"
#include "core/project.hpp"
#include "net/transport.hpp"
#include "runtime/session.hpp"

namespace {

using namespace sage;

std::unique_ptr<model::Workspace> make_workspace(const std::string& app,
                                                 std::size_t n, int nodes) {
  return app == "fft2d" ? apps::make_fft2d_workspace(n, nodes)
                        : apps::make_cornerturn_workspace(n, nodes);
}

}  // namespace

int main() {
  const bench::BenchEnv env = bench::bench_env();
  const int runs = env.runs + 1;  // first = cold column

  struct Config {
    std::string app;
    std::size_t n = 0;
    int nodes = 0;
  };
  const std::vector<Config> configs = {
      {"cornerturn", 256, 4},
      {"fft2d", 256, 4},
  };

  std::printf("transport_overhead: %d runs per backend (first = cold),"
              " %d iterations per run\n",
              runs, env.iterations);
  for (const Config& config : configs) {
    const std::string tag = config.app + "-" + std::to_string(config.n) +
                            "x" + std::to_string(config.nodes);
    std::map<std::string, std::vector<double>> results_by_backend;
    for (const net::TransportKind kind :
         {net::TransportKind::kInProc, net::TransportKind::kShmem,
          net::TransportKind::kTcp}) {
      core::Project project(
          make_workspace(config.app, config.n, config.nodes));
      runtime::ExecuteOptions options;
      options.iterations = env.iterations;
      options.collect_trace = false;
      options.transport.kind = kind;

      auto session = project.open_session(options);
      std::vector<double> seconds;
      seconds.reserve(static_cast<std::size_t>(runs));
      std::map<std::string, std::vector<double>> results;
      for (int r = 0; r < runs; ++r) {
        const runtime::RunStats stats = session->run();
        seconds.push_back(stats.host_seconds);
        results = stats.results;
      }

      // Bit-identity sanity: the mechanism must not change the answer.
      const std::string backend = net::to_string(kind);
      if (results_by_backend.empty()) {
        results_by_backend = results;
      } else if (results != results_by_backend) {
        std::fprintf(stderr,
                     "transport_overhead: %s results diverge on %s\n",
                     tag.c_str(), backend.c_str());
        return 1;
      }

      bench::print_host_cost(bench::host_cost(tag + "-" + backend, seconds));
    }
  }
  return 0;
}
