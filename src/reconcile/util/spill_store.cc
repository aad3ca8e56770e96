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

namespace reconcile {

namespace {

constexpr uint64_t kSpillMagic = 0x52434e53'50494c32ull;  // "RCNSPIL2"
constexpr size_t kHeaderBytes = 4 * sizeof(uint64_t);

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

std::unique_ptr<SpilledRun> SpillStore::Spill(const RowRun& resident,
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

  const RowRunView run = resident.view();
  // The payload arrays in file order (see the header comment).
  const struct {
    const void* data;
    size_t bytes;
  } arrays[] = {
      {run.rows, run.num_rows * sizeof(RunRow)},
      {run.vs, run.size * sizeof(uint32_t)},
      {run.escapes, run.num_escapes * sizeof(uint32_t)},
      {run.counts, run.size * sizeof(uint8_t)},
  };
  const size_t expect_bytes = kHeaderBytes + RowRunBytes(run);

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

  const uint64_t header[4] = {kSpillMagic, run.num_rows, run.size,
                               run.num_escapes};
  bool ok = WriteAll(fd, header, sizeof(header));
  if (ok && inject_truncate) {
    // Torn spill: write only half of the row payload, then pretend the
    // write completed. The size validation below must catch this.
    ok = WriteAll(fd, arrays[0].data, arrays[0].bytes / 2);
  } else {
    for (const auto& array : arrays) {
      ok = ok && WriteAll(fd, array.data, array.bytes);
    }
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

  void* base = MAP_FAILED;
  if (inject_mmap_fail) {
    errno = ENOMEM;
  } else {
    base = ::mmap(nullptr, expect_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  }
  if (base == MAP_FAILED) {
    return fail(fd, "mmap " + path + ": " + ErrnoString());
  }
  ::close(fd);

  auto spilled = std::unique_ptr<SpilledRun>(new SpilledRun());
  spilled->map_base_ = base;
  spilled->map_length_ = expect_bytes;
  spilled->file_bytes_ = expect_bytes;
  spilled->path_ = std::move(path);
  const char* bytes = static_cast<const char*>(base);
  const uint64_t* hdr = reinterpret_cast<const uint64_t*>(bytes);
  if (hdr[0] != kSpillMagic || hdr[1] != run.num_rows || hdr[2] != run.size ||
      hdr[3] != run.num_escapes) {
    // Can only happen if the filesystem lied end to end; treat as torn.
    ++stats_.spill_failures;
    if (error != nullptr) *error = "corrupt spill header in " + spilled->path();
    return nullptr;  // SpilledRun dtor unmaps + unlinks
  }
  const char* next = bytes + kHeaderBytes;
  auto take = [&next](size_t array_bytes) {
    const char* at = next;
    next += array_bytes;
    return at;
  };
  RowRunView& view = spilled->view_;
  view.num_rows = run.num_rows;
  view.size = run.size;
  view.num_escapes = run.num_escapes;
  view.rows = reinterpret_cast<const RunRow*>(take(arrays[0].bytes));
  view.vs = reinterpret_cast<const uint32_t*>(take(arrays[1].bytes));
  view.escapes = reinterpret_cast<const uint32_t*>(take(arrays[2].bytes));
  view.counts = reinterpret_cast<const uint8_t*>(take(arrays[3].bytes));

  ++stats_.tiers_spilled;
  stats_.bytes_spilled += expect_bytes;
  // Value point for crash-mid-enforcement tests: crash:spill_commit=k kills
  // the process right after the k-th successful spill of this process.
  FaultValuePoint("spill_commit",
                  static_cast<int64_t>(stats_.tiers_spilled));
  return spilled;
}

}  // namespace reconcile
