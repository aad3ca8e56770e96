#include "reconcile/util/spill_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "reconcile/util/fault.h"
#include "reconcile/util/radix_sort.h"

namespace reconcile {

namespace {

constexpr uint64_t kSpillMagic = 0x52434e53'50494c31ull;  // "RCNSPIL1"
constexpr size_t kHeaderBytes = 2 * sizeof(uint64_t);

size_t SpillFileBytes(size_t entries) {
  return kHeaderBytes + entries * (sizeof(uint64_t) + sizeof(uint32_t));
}

// write(2) with short-write and EINTR handling. Returns false on any error.
bool WriteAll(int fd, const void* data, size_t length) {
  const char* p = static_cast<const char*>(data);
  while (length > 0) {
    const ssize_t n = ::write(fd, p, length);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    length -= static_cast<size_t>(n);
  }
  return true;
}

std::string ErrnoString() {
  return std::strerror(errno);
}

// Spill file sequence numbers, shared by every store in the process: the
// file names must not collide when two stores spill into one directory.
std::atomic<uint64_t> next_spill_id{0};

}  // namespace

SpilledRun::~SpilledRun() {
  if (map_base_ != nullptr) ::munmap(map_base_, map_length_);
  if (!path_.empty()) ::unlink(path_.c_str());
}

SpillStore::SpillStore(std::string dir) : dir_(std::move(dir)) {}

std::unique_ptr<SpilledRun> SpillStore::Spill(const SortedCountRun& run,
                                              std::string* error) {
  if (disabled_) {
    if (error != nullptr) *error = "spilling disabled for this store";
    return nullptr;
  }
  if (!dir_ready_) {
    if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST) {
      ++stats_.spill_failures;
      if (error != nullptr) {
        *error = "mkdir " + dir_ + ": " + ErrnoString();
      }
      return nullptr;
    }
    dir_ready_ = true;
  }

  char name[64];
  std::snprintf(name, sizeof(name), "spill-%ld-%llu.spill",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(next_spill_id++));
  std::string path = dir_ + "/" + name;

  const size_t n = run.keys.size();
  const size_t expect_bytes = SpillFileBytes(n);

  // A lambda so every failure exit shares the unlink-and-count epilogue.
  auto fail = [&](int fd, const std::string& what) -> std::unique_ptr<SpilledRun> {
    if (fd >= 0) ::close(fd);
    ::unlink(path.c_str());
    ++stats_.spill_failures;
    if (error != nullptr) *error = what;
    return nullptr;
  };

  const bool inject_write_fail = FaultPointHit("spill_write_fail");
  const bool inject_truncate = FaultPointHit("spill_truncate");
  const bool inject_mmap_fail = FaultPointHit("mmap_fail");
  const bool inject_enospc = FaultPointExhausted("enospc_after");

  if (inject_write_fail) {
    return fail(-1, "injected fault: spill_write_fail");
  }
  if (inject_enospc) {
    errno = ENOSPC;
    return fail(-1, "injected fault: enospc_after (" + ErrnoString() + ")");
  }

  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_RDWR, 0644);
  if (fd < 0) {
    return fail(-1, "open " + path + ": " + ErrnoString());
  }

  const uint64_t header[2] = {kSpillMagic, static_cast<uint64_t>(n)};
  bool ok = WriteAll(fd, header, sizeof(header));
  if (ok && inject_truncate) {
    // Torn spill: write only half of the key payload, then pretend the
    // write completed. The size validation below must catch this.
    ok = WriteAll(fd, run.keys.data(), n * sizeof(uint64_t) / 2);
  } else if (ok) {
    ok = WriteAll(fd, run.keys.data(), n * sizeof(uint64_t)) &&
         WriteAll(fd, run.counts.data(), n * sizeof(uint32_t));
  }
  if (!ok && !inject_truncate) {
    return fail(fd, "write " + path + ": " + ErrnoString());
  }
  if (::fsync(fd) != 0) {
    return fail(fd, "fsync " + path + ": " + ErrnoString());
  }

  // Validate the on-disk length before trusting the file as a view: a torn
  // write (injected or a quietly-lying filesystem) must never become a
  // short mapping that reads as a valid-but-wrong run.
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return fail(fd, "fstat " + path + ": " + ErrnoString());
  }
  if (static_cast<size_t>(st.st_size) != expect_bytes) {
    return fail(fd, "short spill file " + path + " (" +
                        std::to_string(st.st_size) + " of " +
                        std::to_string(expect_bytes) + " bytes)");
  }

  void* base = nullptr;
  if (inject_mmap_fail) {
    errno = ENOMEM;
  } else if (expect_bytes > 0) {
    base = ::mmap(nullptr, expect_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base == MAP_FAILED) base = nullptr;
  }
  if (base == nullptr && (inject_mmap_fail || expect_bytes > 0)) {
    return fail(fd, "mmap " + path + ": " + ErrnoString());
  }
  ::close(fd);

  auto spilled = std::unique_ptr<SpilledRun>(new SpilledRun());
  spilled->map_base_ = base;
  spilled->map_length_ = expect_bytes;
  spilled->size_ = n;
  spilled->file_bytes_ = expect_bytes;
  spilled->path_ = std::move(path);
  if (base != nullptr) {
    const char* bytes = static_cast<const char*>(base);
    const uint64_t* hdr = reinterpret_cast<const uint64_t*>(bytes);
    if (hdr[0] != kSpillMagic || hdr[1] != n) {
      // Can only happen if the filesystem lied end to end; treat as torn.
      ++stats_.spill_failures;
      if (error != nullptr) *error = "corrupt spill header in " + spilled->path();
      return nullptr;  // SpilledRun dtor unmaps + unlinks
    }
    spilled->keys_ = reinterpret_cast<const uint64_t*>(bytes + kHeaderBytes);
    spilled->counts_ = reinterpret_cast<const uint32_t*>(
        bytes + kHeaderBytes + n * sizeof(uint64_t));
  }

  ++stats_.tiers_spilled;
  stats_.bytes_spilled += expect_bytes;
  // Value point for crash-mid-enforcement tests: crash:spill_commit=k kills
  // the process right after the k-th successful spill of this process.
  FaultValuePoint("spill_commit",
                  static_cast<int64_t>(stats_.tiers_spilled));
  return spilled;
}

}  // namespace reconcile
