#include "reconcile/util/fault.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <vector>

#include "reconcile/util/shutdown.h"

namespace reconcile {

namespace {

enum class FaultKind { kCrash, kStop, kIo };

// How a point is declared: a value point (`FaultValuePoint`, armed by
// crash: and stop:), an io point (`FaultPointHit`) or a threshold io point
// (`FaultPointExhausted`); both io kinds are armed by io:.
enum class PointKind { kValue, kIo, kIoThreshold };

// The one table of fault points (the header's "Known points"): how each is
// declared and which tools reach it. A spec naming a point outside it, or
// one its tool never reaches, would arm a fault that can never fire.
struct KnownPoint {
  std::string_view name;
  PointKind kind;
  bool batch;  // reached by the batch matcher (`reconcile_cli`)
  bool serve;  // reached by the serve loop (`reconcile_serve`)
};

constexpr KnownPoint kKnownPoints[] = {
    {"after_round", PointKind::kValue, true, false},
    {"checkpoint_write_fail", PointKind::kIo, true, true},
    {"checkpoint_truncate", PointKind::kIo, true, true},
    {"spill_write_fail", PointKind::kIo, true, false},
    {"spill_truncate", PointKind::kIo, true, false},
    {"mmap_fail", PointKind::kIo, true, false},
    {"enospc_after", PointKind::kIoThreshold, true, false},
    {"spill_commit", PointKind::kValue, true, false},
    {"serve_apply", PointKind::kValue, false, true},
    {"after_batch", PointKind::kValue, false, true},
};

const KnownPoint* FindPoint(std::string_view name) {
  for (const KnownPoint& point : kKnownPoints) {
    if (point.name == name) return &point;
  }
  return nullptr;
}

std::string KnownPointNames() {
  std::string names;
  for (const KnownPoint& point : kKnownPoints) {
    if (!names.empty()) names += ", ";
    names += point.name;
  }
  return names;
}

bool Reaches(FaultScope scope, const KnownPoint& point) {
  switch (scope) {
    case FaultScope::kAny:
      return true;
    case FaultScope::kBatch:
      return point.batch;
    case FaultScope::kServe:
      return point.serve;
  }
  return false;
}

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
    if (!ParseSpec(env, FaultScope::kAny, &parsed, &error)) {
      std::fprintf(stderr, "warning: ignoring RECONCILE_FAULT: %s\n",
                   error.c_str());
      return;
    }
    entries = std::move(parsed);
  }

  static bool ParseSpec(const std::string& spec, FaultScope scope,
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
      entry.point = rest.substr(0, eq);
      if (entry.point.empty()) {
        *error = "fault entry '" + item + "' names no fault point";
        return false;
      }
      const KnownPoint* point = FindPoint(entry.point);
      if (point == nullptr) {
        *error = "fault entry '" + item + "' names unknown point '" +
                 entry.point + "' (known: " + KnownPointNames() + ")";
        return false;
      }
      const bool io_point = point->kind != PointKind::kValue;
      if (io_point != (entry.kind == FaultKind::kIo)) {
        *error = "fault entry '" + item + "': '" + entry.point + "' is " +
                 (io_point ? "an io point (use io:)"
                           : "a value point (use crash: or stop:)");
        return false;
      }
      if (!Reaches(scope, *point)) {
        *error = "fault entry '" + item + "': this tool never reaches '" +
                 entry.point + "'";
        return false;
      }
      if (eq != std::string::npos) {
        const std::string value = rest.substr(eq + 1);
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
        const bool threshold_point = point->kind == PointKind::kIoThreshold;
        const int64_t min_value = threshold_point ? 0 : 1;
        if (io_point && entry.value < min_value) {
          *error = "fault entry '" + item + "': io " +
                   (threshold_point ? "threshold must be >= 0"
                                    : "hit index must be >= 1");
          return false;
        }
      }
      parsed.push_back(std::move(entry));
      if (end == spec.size()) break;
    }
    *out = std::move(parsed);
    return true;
  }
};

}  // namespace

bool ArmFaults(const std::string& spec, std::string* error,
               FaultScope scope) {
  std::vector<FaultEntry> parsed;
  std::string local_error;
  if (!Injector::ParseSpec(spec, scope, &parsed, &local_error)) {
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
