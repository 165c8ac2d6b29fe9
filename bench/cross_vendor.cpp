// Cross-vendor sweep (paper §3.1/§3.2).
//
// MITRE measured the benchmarks on Mercury, CSPI, SIGI and SKY
// platforms. We model each vendor as a fabric/CPU preset and re-run the
// Table-1 comparison on every platform: absolute times differ per
// vendor, while the SAGE-vs-hand-coded ratio stays in the same band --
// the portability claim of the paper ("the application developed is
// portable to other SAGE supported hardware platforms; the designer
// simply needs to re-generate the glue code").
#include <cstdio>
#include <vector>

#include "apps/benchmarks.hpp"
#include "apps/handcoded.hpp"
#include "bench_util.hpp"
#include "core/platforms.hpp"
#include "core/project.hpp"
#include "model/hardware.hpp"

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
  const int nodes = env.nodes.back();
  if (!bench::splits_evenly(size, nodes)) return 0;

  std::printf("Cross-vendor sweep -- 2D FFT %zux%zu on %d nodes\n\n", size,
              size, nodes);
  std::printf("%-10s %14s %14s %12s\n", "Vendor", "HandCoded(ms)", "SAGE(ms)",
              "%ofHand");

  for (const core::VendorPlatform& vendor : core::vendor_platforms()) {
    // Hand-coded baseline on the vendor's fabric/CPU model.
    apps::HandcodedOptions hand_options;
    hand_options.iterations = env.iterations;
    hand_options.cpu_scale = vendor.cpu_scale;
    if (vendor.key == "mercury") {
      hand_options.fabric = net::raceway_fabric();
    } else if (vendor.key == "sky") {
      hand_options.fabric = net::sky_fabric();
    } else if (vendor.key == "sigi") {
      hand_options.fabric = net::sigi_fabric();
    }
    const auto hand = apps::run_fft2d_handcoded(size, nodes, hand_options);

    // SAGE version: the same design, hardware re-targeted, glue
    // regenerated.
    auto workspace = apps::make_fft2d_workspace(size, nodes);
    core::retarget_hardware(workspace->hardware(), vendor.key);
    core::Project project(std::move(workspace));
    runtime::ExecuteOptions options;
    options.iterations = env.iterations;
    options.collect_trace = false;
    auto session = project.open_session(options);
    const runtime::RunStats stats = session->run();

    const double hand_s = mean(hand.latencies);
    const double sage_s = mean(stats.latencies);
    std::printf("%-10s %14.3f %14.3f %11.1f%%\n", vendor.key.c_str(),
                hand_s * 1e3, sage_s * 1e3,
                sage_s > 0 ? hand_s / sage_s * 100.0 : 0.0);
    std::printf("csv,vendor,%s,%zu,%d,%.6f,%.6f\n", vendor.key.c_str(), size,
                nodes, hand_s, sage_s);
  }
  return 0;
}
