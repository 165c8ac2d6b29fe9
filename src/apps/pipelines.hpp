// openSAGE -- the two tutorial pipelines (the quickstart FFT chain and
// the range-Doppler radar chain) as reusable workspace builders, so the
// CLI (`sagec demo quickstart|radar`, `sagec stats`) and the tests can
// instantiate them without duplicating the examples' model-building
// code. The examples stay standalone as narrated tutorials.
#pragma once

#include <cstddef>
#include <memory>

#include "model/workspace.hpp"

namespace sage::apps {

/// Quickstart pipeline: src -> row FFT -> sink over an n x n complex
/// matrix, one thread of every function per node.
std::unique_ptr<model::Workspace> make_quickstart_workspace(
    std::size_t n = 256, int nodes = 4);

/// Range-Doppler radar chain (the paper's motivating application class):
///   pulses -> window -> range FFT -> corner turn -> Doppler FFT
///          -> magnitude -> threshold -> detections
/// over a pulses x range complex cube. The corner turn is expressed
/// purely as port striping (rows in, columns out); the magnitude stage
/// switches the data type from complex to float mid-pipeline.
std::unique_ptr<model::Workspace> make_radar_workspace(
    std::size_t pulses = 256, std::size_t range = 512, int nodes = 8);

/// Online-tuning demo: a deliberately skewed heterogeneous platform --
/// `fast_procs` quick processors (400 MHz, cpu_scale 0.25) next to
/// `slow_procs` processors 16x slower (100 MHz, cpu_scale 4.0) --
/// running a source -> `stages` row-FFT stages -> sink chain of
/// two-threaded functions over an n x n complex matrix. The baked-in
/// mapping is deliberately bad: every function sits on the slow
/// processors, the fast ones idle. `sagec tune` and
/// bench/tune_convergence start here and let the online AToT loop dig
/// the placement out (ROADMAP: "metrics-driven re-mapping").
std::unique_ptr<model::Workspace> make_tuning_workspace(
    std::size_t n = 128, int stages = 4, int fast_procs = 2,
    int slow_procs = 2);

/// A deliberately lumpy mapping problem: a 10-stage chain of
/// two-threaded functions with mixed work sizes (seeded) over 256 x 256
/// complex data, on a heterogeneous machine of two fast processors and
/// six slow ones. No mapping: bench/atot_mapping and the AToT tests feed
/// it to atot::build_problem and compare the mappers on it.
std::unique_ptr<model::Workspace> make_synthetic_hetero_workspace();

}  // namespace sage::apps
