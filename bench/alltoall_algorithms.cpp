// Vendor alltoall comparison (paper §3.1).
//
// "The traditional MPI implementation have a built in function for
// performing the corner turn operation, namely the MPI_All_to_All
// function; each vendor implemented their own version tailored to their
// respective hardware for the most optimal performance." This bench
// compares the three minimpi alltoall algorithms on corner-turn-shaped
// exchanges.
#include <complex>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "mpi/alltoall.hpp"
#include "mpi/comm.hpp"
#include "net/machine.hpp"

namespace {

using namespace sage;
using Complex = std::complex<float>;

double measure(std::size_t n, int nodes, mpi::AlltoallAlgorithm algorithm,
               int iterations) {
  const std::size_t block = n / static_cast<std::size_t>(nodes);
  net::Machine machine(nodes, net::myrinet_fabric());
  std::vector<double> finish(static_cast<std::size_t>(nodes), 0.0);

  machine.run([&](net::NodeContext& node) {
    mpi::Communicator comm(node);
    std::vector<Complex> send(block * n), recv(block * n);
    for (std::size_t i = 0; i < send.size(); ++i) {
      send[i] = Complex(static_cast<float>(i), 0.0f);
    }
    for (int iter = 0; iter < iterations; ++iter) {
      mpi::alltoall<Complex>(comm, send, recv, block * block, algorithm);
    }
    finish[static_cast<std::size_t>(node.rank())] = node.now();
  });

  double makespan = 0.0;
  for (double f : finish) makespan = std::max(makespan, f);
  return makespan / iterations;
}

}  // namespace

int main() {
  const bench::BenchEnv env = bench::bench_env();
  std::printf("Alltoall algorithm comparison (corner-turn exchange)\n\n");
  std::printf("%-6s %-10s %14s %14s %14s\n", "Nodes", "Array",
              "pairwise(ms)", "ring(ms)", "vendor(ms)");

  for (int nodes : env.nodes) {
    for (std::size_t size : env.sizes) {
      if (!bench::splits_evenly(size, nodes)) continue;
      const double pairwise = measure(
          size, nodes, mpi::AlltoallAlgorithm::kPairwise, env.iterations);
      const double ring =
          measure(size, nodes, mpi::AlltoallAlgorithm::kRing, env.iterations);
      const double vendor = measure(
          size, nodes, mpi::AlltoallAlgorithm::kVendorDirect, env.iterations);
      std::printf("%-6d %zux%-7zu %14.3f %14.3f %14.3f\n", nodes, size, size,
                  pairwise * 1e3, ring * 1e3, vendor * 1e3);
      std::printf("csv,alltoall,%zu,%d,%.6f,%.6f,%.6f\n", size, nodes,
                  pairwise, ring, vendor);
    }
  }
  std::printf("\nThe vendor path models DMA aggregation (reduced per-message\n"
              "software overhead), as each vendor's tuned MPI_Alltoall did.\n");
  return 0;
}
