// Runs the shipped Alter tool script (scripts/model_report.alt) through
// the interpreter directly -- unit-level coverage for the example the
// CLI exposes, so the script cannot rot without a test failing. Its
// output is pinned by a golden file (regenerate with
// SAGE_UPDATE_GOLDEN=1 ./build/tests/alter_script_test).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "alter/interp.hpp"
#include "apps/benchmarks.hpp"
#include "golden_file.hpp"
#include "support/error.hpp"

#ifndef SAGE_SCRIPTS_DIR
#define SAGE_SCRIPTS_DIR "scripts"
#endif

namespace sage::alter {
namespace {

std::string read_script(const std::string& name) {
  const std::string path = std::string(SAGE_SCRIPTS_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) raise<Error>("cannot open script '", path, "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(AlterScriptTest, ModelReportRunsAgainstABenchmarkDesign) {
  auto ws = apps::make_fft2d_workspace(64, 4);
  Interpreter interp;
  interp.attach_model(ws->root());
  interp.eval_string(read_script("model_report.alt"));

  ASSERT_TRUE(interp.outputs().contains("report.txt"));
  const std::string& report = interp.outputs().at("report.txt");
  // Every function and arc appears in the report.
  for (const char* name :
       {"src", "fft_rows", "corner_turn", "fft_cols", "sink"}) {
    EXPECT_NE(report.find(name), std::string::npos) << name;
  }
  EXPECT_NE(report.find("parallel_fft2d"), std::string::npos);
  EXPECT_NE(report.find("4 processors"), std::string::npos);
  // Traffic sizes are computed: 64*64 cfloat = 32768 bytes per arc.
  EXPECT_NE(report.find("32768 bytes"), std::string::npos);
  // The script logs completion via (print ...).
  EXPECT_NE(interp.print_log().find("report generated"), std::string::npos);
}

TEST(AlterScriptTest, ModelReportMatchesGolden) {
  // The shipped script's emit streams and print log on the 64x64,
  // 4-node 2D FFT design, byte for byte.
  auto ws = apps::make_fft2d_workspace(64, 4);
  Interpreter interp;
  interp.attach_model(ws->root());
  interp.eval_string(read_script("model_report.alt"));

  std::string actual;
  for (const auto& [stream, text] : interp.outputs()) {
    actual += "=== stream " + stream + " ===\n" + text;
  }
  actual += "=== print log ===\n" + interp.print_log();
  golden::expect_matches_golden(actual, "model_report_fft2d_64x4.txt");
}

}  // namespace
}  // namespace sage::alter
