// Serve load curve -- the headline artifact of the multi-tenant
// session service (serve::Server).
//
// Open-loop Poisson arrivals (seeded, inverse-CDF over mt19937; see
// serve/loadgen.hpp) are driven against a warm fleet at offered loads
// of {0.25, 0.5, 1.0, 2.0}x the calibrated saturation rate. Latencies
// and throughput are *virtual time*: each app is calibrated once
// (solo latency L, streamed period P) and every load point then runs a
// fresh server with that calibration pinned, so the reported curve is
// a pure function of (schedule seed, calibration) -- deterministic on
// any host.
//
// The expected shape, and what the bench enforces:
//   * below saturation (0.25x, 0.5x) the fleet keeps up: p50 ~= solo
//     latency, p99 bounded by a small multiple of it (the acceptance
//     bound is p99 @ 0.5x <= 3x solo latency; exit 1 on violation);
//   * at 1.0x the queue hovers and coalescing onto streaming epochs
//     carries the load at ~the period per completion;
//   * at 2.0x an open-loop generator outruns the fleet: latency grows
//     with queue depth until admission control sheds (kQueueFull).
//
// The host (wall-clock) cost of driving each app's four-point curve is
// print-only; perfbench's serve-open workload times the server.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/benchmarks.hpp"
#include "bench_util.hpp"
#include "core/project.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"

namespace {

using namespace sage;

constexpr std::size_t kN = 64;
constexpr int kNodes = 2;
constexpr int kRequests = 48;         // arrivals per load point
constexpr int kSessionCap = 2;        // fleet size per program
constexpr int kQueueDepth = 256;      // deep enough that only 2.0x sheds
constexpr double kFractions[] = {0.25, 0.5, 1.0, 2.0};
constexpr double kP99Bound = 3.0;     // p99 @ 0.5x <= bound * solo latency

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::unique_ptr<model::Workspace> make_workspace(const std::string& app) {
  if (app == "fft2d") return apps::make_fft2d_workspace(kN, kNodes);
  return apps::make_cornerturn_workspace(kN, kNodes);
}

serve::ServerOptions serve_options(const runtime::ExecuteOptions& execute) {
  serve::ServerOptions options;
  options.workers = 2;
  options.max_sessions_per_program = kSessionCap;
  options.max_queue_depth = kQueueDepth;
  options.execute = execute;
  return options;
}

/// Drives one app's load curve. Appends the per-point host walls (the
/// calibration server first, so host_cost sees it as the cold run) and
/// returns false when the 0.5x acceptance bound fails.
bool drive_curve(const std::string& app, int app_index,
                 std::vector<bench::HostCost>& hosts) {
  core::Project project(make_workspace(app));
  runtime::ExecuteOptions execute;
  execute.iterations = 1;
  execute.collect_trace = false;
  execute = project.resolved_options(execute);
  const auto program = project.compile_program(execute);

  // Calibrate once; every load point below replays this exact model.
  std::vector<double> host;
  double t0 = now_seconds();
  double solo = 0.0;
  double period = 0.0;
  double saturation = 0.0;
  {
    serve::Server calibrator(serve_options(execute));
    const std::uint64_t key =
        calibrator.add_program(app, program, project.registry(), kSessionCap);
    const serve::ProgramInfo info = calibrator.program_info(key);
    solo = info.solo_latency_vt;
    period = info.stream_period_vt;
    saturation = info.saturation_rate();
  }
  host.push_back(now_seconds() - t0);

  std::printf("\n%s %zux%zu, %d nodes: solo latency %.3f ms, period %.3f ms, "
              "saturation %.1f req/s (virtual), fleet cap %d\n",
              app.c_str(), kN, kN, kNodes, solo * 1e3, period * 1e3,
              saturation, kSessionCap);
  std::printf("%-8s %10s %9s %6s %6s %10s %10s %10s\n", "load", "rate(r/s)",
              "admitted", "shed", "coal", "p50(ms)", "p99(ms)", "thru(r/s)");

  bool ok = true;
  int point_index = 0;
  for (const double fraction : kFractions) {
    const double rate = fraction * saturation;
    const std::uint64_t seed =
        0x53415645u ^ static_cast<std::uint64_t>(app_index * 100 + point_index);
    const std::vector<support::VirtualSeconds> arrivals =
        serve::poisson_arrivals(kRequests, rate, seed);

    t0 = now_seconds();
    serve::ServerOptions options = serve_options(execute);
    options.calibration_latency = solo;    // pinned: the point replays
    options.calibration_period = period;   // the calibrated model
    serve::Server server(options);
    const std::uint64_t key =
        server.add_program(app, program, project.registry(), kSessionCap);
    const serve::LoadPoint point =
        serve::drive_load(server, key, arrivals, rate);
    server.shutdown();
    host.push_back(now_seconds() - t0);

    std::printf("%-7.2fx %10.1f %9d %6d %6d %10.3f %10.3f %10.1f\n", fraction,
                rate, point.admitted, point.shed, point.coalesced,
                point.p50_latency_vt * 1e3, point.p99_latency_vt * 1e3,
                point.throughput);
    std::printf("csv,serve,%s,%.2f,%.4f,%d,%d,%d,%.6f,%.6f,%.4f\n",
                app.c_str(), fraction, rate, point.admitted, point.shed,
                point.coalesced, point.p50_latency_vt, point.p99_latency_vt,
                point.throughput);

    if (fraction == 0.5) {
      const double bound = kP99Bound * solo;
      if (point.p99_latency_vt > bound) {
        std::printf("FAIL %s: p99 %.3f ms at 0.5x saturation exceeds "
                    "%.0fx solo latency (%.3f ms)\n",
                    app.c_str(), point.p99_latency_vt * 1e3, kP99Bound,
                    bound * 1e3);
        ok = false;
      } else {
        std::printf("pass %s: p99 %.3f ms at 0.5x saturation within "
                    "%.0fx solo latency (%.3f ms)\n",
                    app.c_str(), point.p99_latency_vt * 1e3, kP99Bound,
                    bound * 1e3);
      }
    }
    ++point_index;
  }
  hosts.push_back(bench::host_cost(app, host));
  return ok;
}

}  // namespace

int main() {
  std::printf("Serve load curve -- open-loop Poisson arrivals, %d requests "
              "per point,\nvirtual-time latency/throughput "
              "(deterministic; host speed never changes the numbers)\n",
              kRequests);

  std::vector<bench::HostCost> hosts;
  bool ok = true;
  ok &= drive_curve("fft2d", 0, hosts);
  ok &= drive_curve("cornerturn", 1, hosts);

  std::printf("\n");
  for (const bench::HostCost& cost : hosts) bench::print_host_cost(cost);
  std::printf("\nOpen loop: arrivals never wait for completions, so loads "
              "past saturation expose\nqueueing growth and admission sheds "
              "rather than silently throttling the generator.\n");
  return ok ? 0 : 1;
}
