// The number of threads this process runs, for tests that check which
// operations start threads.
#ifndef RECONCILE_TESTS_PROCESS_THREADS_H_
#define RECONCILE_TESTS_PROCESS_THREADS_H_

#include <fstream>
#include <string>

namespace reconcile {

/// `Threads:` in /proc/self/status, or -1 if it cannot be read.
inline int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

}  // namespace reconcile

#endif  // RECONCILE_TESTS_PROCESS_THREADS_H_
