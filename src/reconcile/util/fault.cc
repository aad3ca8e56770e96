#include "reconcile/util/fault.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "reconcile/util/shutdown.h"

namespace reconcile {

namespace {

enum class FaultKind { kCrash, kStop, kIo };

struct FaultEntry {
  FaultKind kind;
  std::string point;
  // crash/stop: the value the point must report to fire.
  // io: the 1-based hit index on which the point fires.
  int64_t value = 1;
  int64_t hits = 0;  // io points only
};

const char* KindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kStop:
      return "stop";
    case FaultKind::kIo:
      return "io";
  }
  return "?";
}

// One process-global armed set behind a mutex. Fault points sit on cold
// paths (round boundaries, checkpoint commits), so a mutex is fine.
struct Injector {
  std::mutex mu;
  std::vector<FaultEntry> entries;
  bool env_read = false;

  static Injector& Get() {
    static Injector injector;
    return injector;
  }

  // Reads RECONCILE_FAULT once; a malformed env spec is a loud warning,
  // not an abort (the env var is a test/ops hook, not an API).
  void MaybeArmFromEnvLocked() {
    if (env_read) return;
    env_read = true;
    const char* env = std::getenv("RECONCILE_FAULT");
    if (env == nullptr || env[0] == '\0') return;
    std::string error;
    std::vector<FaultEntry> parsed;
    if (!ParseSpec(env, &parsed, &error)) {
      std::fprintf(stderr, "warning: ignoring RECONCILE_FAULT: %s\n",
                   error.c_str());
      return;
    }
    entries = std::move(parsed);
  }

  static bool ParseSpec(const std::string& spec,
                        std::vector<FaultEntry>* out, std::string* error) {
    std::vector<FaultEntry> parsed;
    size_t begin = 0;
    while (begin <= spec.size()) {
      size_t end = spec.find_first_of(";,", begin);
      if (end == std::string::npos) end = spec.size();
      const std::string item = spec.substr(begin, end - begin);
      begin = end + 1;
      if (item.empty()) {
        if (end == spec.size()) break;
        continue;
      }
      const size_t colon = item.find(':');
      if (colon == std::string::npos) {
        *error = "fault entry '" + item + "' lacks a kind: prefix "
                 "(crash:, stop: or io:)";
        return false;
      }
      FaultEntry entry;
      const std::string kind = item.substr(0, colon);
      if (kind == "crash") {
        entry.kind = FaultKind::kCrash;
      } else if (kind == "stop") {
        entry.kind = FaultKind::kStop;
      } else if (kind == "io") {
        entry.kind = FaultKind::kIo;
      } else {
        *error = "fault entry '" + item + "' has unknown kind '" + kind +
                 "' (want crash, stop or io)";
        return false;
      }
      std::string rest = item.substr(colon + 1);
      const size_t eq = rest.find('=');
      if (eq != std::string::npos) {
        const std::string value = rest.substr(eq + 1);
        entry.point = rest.substr(0, eq);
        char* parse_end = nullptr;
        entry.value = std::strtoll(value.c_str(), &parse_end, 10);
        if (value.empty() || parse_end == nullptr || *parse_end != '\0') {
          *error = "fault entry '" + item + "' has a non-integer value '" +
                   value + "'";
          return false;
        }
        // Threshold points (`FaultPointExhausted`, e.g. enospc_after)
        // accept 0 ("fail every hit"); ordinary hit-index points fire on
        // exactly hit N, so 0 there would silently never fire — reject it.
        const bool threshold_point =
            entry.point.size() >= 6 &&
            entry.point.compare(entry.point.size() - 6, 6, "_after") == 0;
        const int64_t min_value = threshold_point ? 0 : 1;
        if (entry.kind == FaultKind::kIo && entry.value < min_value) {
          *error = "fault entry '" + item + "': io " +
                   (threshold_point ? "threshold must be >= 0"
                                    : "hit index must be >= 1");
          return false;
        }
      } else {
        entry.point = std::move(rest);
      }
      if (entry.point.empty()) {
        *error = "fault entry '" + item + "' names no fault point";
        return false;
      }
      parsed.push_back(std::move(entry));
      if (end == spec.size()) break;
    }
    *out = std::move(parsed);
    return true;
  }
};

}  // namespace

bool ArmFaults(const std::string& spec, std::string* error) {
  std::vector<FaultEntry> parsed;
  std::string local_error;
  if (!Injector::ParseSpec(spec, &parsed, &local_error)) {
    if (error != nullptr) *error = local_error;
    return false;
  }
  Injector& injector = Injector::Get();
  std::lock_guard<std::mutex> lock(injector.mu);
  injector.env_read = true;  // an explicit arm overrides the env var
  injector.entries = std::move(parsed);
  return true;
}

void DisarmFaults() {
  Injector& injector = Injector::Get();
  std::lock_guard<std::mutex> lock(injector.mu);
  injector.env_read = true;
  injector.entries.clear();
}

std::string ArmedFaultSpec() {
  Injector& injector = Injector::Get();
  std::lock_guard<std::mutex> lock(injector.mu);
  injector.MaybeArmFromEnvLocked();
  std::string spec;
  for (const FaultEntry& entry : injector.entries) {
    if (!spec.empty()) spec += ';';
    spec += KindName(entry.kind);
    spec += ':';
    spec += entry.point;
    spec += '=';
    spec += std::to_string(entry.value);
  }
  return spec;
}

bool FaultPointHit(std::string_view point) {
  Injector& injector = Injector::Get();
  std::lock_guard<std::mutex> lock(injector.mu);
  injector.MaybeArmFromEnvLocked();
  bool fired = false;
  for (FaultEntry& entry : injector.entries) {
    if (entry.kind != FaultKind::kIo || entry.point != point) continue;
    ++entry.hits;
    if (entry.hits == entry.value) fired = true;
  }
  return fired;
}

bool FaultPointExhausted(std::string_view point) {
  Injector& injector = Injector::Get();
  std::lock_guard<std::mutex> lock(injector.mu);
  injector.MaybeArmFromEnvLocked();
  bool fired = false;
  for (FaultEntry& entry : injector.entries) {
    if (entry.kind != FaultKind::kIo || entry.point != point) continue;
    ++entry.hits;
    if (entry.hits > entry.value) fired = true;
  }
  return fired;
}

void FaultValuePoint(std::string_view point, int64_t value) {
  Injector& injector = Injector::Get();
  bool crash = false;
  bool stop = false;
  {
    std::lock_guard<std::mutex> lock(injector.mu);
    injector.MaybeArmFromEnvLocked();
    for (const FaultEntry& entry : injector.entries) {
      if (entry.point != point || entry.value != value) continue;
      if (entry.kind == FaultKind::kCrash) crash = true;
      if (entry.kind == FaultKind::kStop) stop = true;
    }
  }
  if (stop) {
    std::fprintf(stderr, "fault injection: graceful stop at %.*s=%lld\n",
                 static_cast<int>(point.size()), point.data(),
                 static_cast<long long>(value));
    RequestGracefulStop();
  }
  if (crash) {
    std::fprintf(stderr, "fault injection: crashing at %.*s=%lld\n",
                 static_cast<int>(point.size()), point.data(),
                 static_cast<long long>(value));
    std::fflush(nullptr);
    // _exit, not abort: no atexit hooks, no core dump noise — models a
    // SIGKILLed worker as closely as a self-inflicted death can.
    _exit(kFaultCrashExitCode);
  }
}

}  // namespace reconcile
