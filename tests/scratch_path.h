// Scratch file names for the test suites: under the gtest temp dir, with the
// process id appended, so two runs of a suite at once (from two build trees,
// say) never share a snapshot, a log or a spill directory.
#ifndef RECONCILE_TESTS_SCRATCH_PATH_H_
#define RECONCILE_TESTS_SCRATCH_PATH_H_

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace reconcile {

/// `name` under the gtest temp dir, unique to this process.
inline std::string ScratchPath(const std::string& name) {
  return testing::TempDir() + "/" + name + "." + std::to_string(::getpid());
}

}  // namespace reconcile

#endif  // RECONCILE_TESTS_SCRATCH_PATH_H_
