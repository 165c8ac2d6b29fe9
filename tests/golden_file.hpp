// Text golden files for the test suites: compare an output against the
// committed copy under tests/golden/, or rewrite that copy when
// SAGE_UPDATE_GOLDEN is set:
//
//   SAGE_UPDATE_GOLDEN=1 ./build/tests/<suite>
//
// A suite that includes this header must be built with SAGE_GOLDEN_DIR
// pointing at tests/golden.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "support/error.hpp"

#ifndef SAGE_GOLDEN_DIR
#error "SAGE_GOLDEN_DIR must be defined by the build"
#endif

namespace sage::golden {

inline std::string golden_path(const std::string& name) {
  return std::string(SAGE_GOLDEN_DIR) + "/" + name;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SAGE_CHECK(in.good(), "cannot read golden file ", path,
             " (set SAGE_UPDATE_GOLDEN=1 to (re)generate)");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

inline bool update_goldens() {
  const char* env = std::getenv("SAGE_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

/// Compares `actual` against the committed golden, or rewrites the
/// golden when SAGE_UPDATE_GOLDEN is set. Diffs are reported line by
/// line so a generator change is reviewable from the test log.
inline void expect_matches_golden(const std::string& actual,
                                  const std::string& name) {
  const std::string path = golden_path(name);
  if (update_goldens()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_LOG_(INFO) << "updated golden " << path;
    return;
  }
  const std::string expected = read_file(path);
  if (actual == expected) return;

  std::istringstream actual_lines(actual);
  std::istringstream expected_lines(expected);
  std::string a;
  std::string e;
  int line = 0;
  while (true) {
    const bool have_a = static_cast<bool>(std::getline(actual_lines, a));
    const bool have_e = static_cast<bool>(std::getline(expected_lines, e));
    ++line;
    if (!have_a && !have_e) break;
    if (!have_a || !have_e || a != e) {
      ADD_FAILURE() << name << " diverges from golden at line " << line
                    << "\n  golden: " << (have_e ? e : "<end of file>")
                    << "\n  actual: " << (have_a ? a : "<end of file>");
      return;
    }
  }
  ADD_FAILURE() << name << " differs from golden (whitespace-only change?)";
}

}  // namespace sage::golden
