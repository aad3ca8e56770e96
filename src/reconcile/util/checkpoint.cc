#include "reconcile/util/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "reconcile/util/fault.h"
#include "reconcile/util/logging.h"

namespace reconcile {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

std::string ErrnoString() { return std::strerror(errno); }

// Full write with EINTR handling; returns false on any short/failed write.
bool WriteAll(int fd, const void* data, size_t size) {
  const char* cursor = static_cast<const char*>(data);
  size_t remaining = size;
  while (remaining > 0) {
    const ssize_t written = ::write(fd, cursor, remaining);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    cursor += written;
    remaining -= static_cast<size_t>(written);
  }
  return true;
}

bool FsyncDirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, std::max<size_t>(1, slash));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

constexpr char kCheckpointSuffix[] = ".ckpt";

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  crc = ~crc;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xffu];
  }
  return ~crc;
}

void SnapshotWriter::BeginSection(uint32_t id) {
  RECONCILE_CHECK(!in_section_) << "BeginSection inside an open section";
  sections_.push_back(Section{id, {}});
  in_section_ = true;
}

void SnapshotWriter::EndSection() {
  RECONCILE_CHECK(in_section_) << "EndSection without BeginSection";
  in_section_ = false;
}

void SnapshotWriter::AppendBytes(const void* data, size_t size) {
  RECONCILE_CHECK(in_section_) << "Append outside a section";
  if (size == 0) return;
  std::vector<uint8_t>& payload = sections_.back().payload;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  payload.insert(payload.end(), bytes, bytes + size);
}

bool SnapshotWriter::Commit(const std::string& path,
                            std::string* error) const {
  RECONCILE_CHECK(!in_section_) << "Commit with an open section";
  if (FaultPointHit("checkpoint_write_fail")) {
    *error = "injected fault: checkpoint_write_fail";
    return false;
  }

  // Assemble the whole snapshot in memory, so the write path is a single
  // syscall sequence. That holds a second copy of the sections while the
  // file is written: the matcher's cursor and link log (8 bytes per link),
  // or the serve session's two graphs.
  std::vector<uint8_t> blob;
  auto append = [&blob](const void* data, size_t size) {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    blob.insert(blob.end(), bytes, bytes + size);
  };
  const uint64_t magic = kSnapshotMagic;
  const uint32_t version = kSnapshotFormatVersion;
  const uint32_t count = static_cast<uint32_t>(sections_.size());
  append(&magic, sizeof(magic));
  append(&version, sizeof(version));
  append(&count, sizeof(count));
  for (const Section& section : sections_) {
    const uint64_t length = section.payload.size();
    const uint32_t crc = Crc32(section.payload.data(), section.payload.size());
    append(&section.id, sizeof(section.id));
    append(&length, sizeof(length));
    append(&crc, sizeof(crc));
    append(section.payload.data(), section.payload.size());
  }

  // Torn-write fault: persist only the first half under the final name via
  // the normal rename path, then report success — what a crash on a
  // non-atomic filesystem would leave behind.
  const size_t write_size =
      FaultPointHit("checkpoint_truncate") ? blob.size() / 2 : blob.size();

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    *error = "cannot create " + tmp + ": " + ErrnoString();
    return false;
  }
  // Every later failure removes the temp file; `fd` is closed unless the
  // failing step was the close itself.
  auto fail = [&](const std::string& what, bool close_fd) {
    *error = what + " failed: " + ErrnoString();
    if (close_fd) ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  };
  if (!WriteAll(fd, blob.data(), write_size)) {
    return fail("write to " + tmp, true);
  }
  if (::fsync(fd) != 0) return fail("fsync of " + tmp, true);
  if (::close(fd) != 0) return fail("close of " + tmp, false);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail("rename " + tmp + " -> " + path, false);
  }
  // Make the rename itself durable. Failure here is not fatal to the
  // caller: the file is visible and valid, only its durability is weaker.
  if (!FsyncDirOf(path)) {
    RECONCILE_LOG(Warning) << "directory fsync after committing " << path
                           << " failed: " << ErrnoString();
  }
  return true;
}

bool SnapshotReader::Section::ReadBytes(void* out, size_t size) {
  if (!ok_) return false;
  if (size > payload_.size() - cursor_) {
    ok_ = false;
    return false;
  }
  // An empty vector's data() may be null, and memcpy must not see it.
  if (size == 0) return true;
  std::memcpy(out, payload_.data() + cursor_, size);
  cursor_ += size;
  return true;
}

bool SnapshotReader::Open(const std::string& path, std::string* error) {
  sections_.clear();
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    *error = "cannot open " + path + ": " + ErrnoString();
    return false;
  }
  std::fseek(file, 0, SEEK_END);
  const long file_size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  if (file_size < 0) {
    *error = "cannot stat " + path + ": " + ErrnoString();
    std::fclose(file);
    return false;
  }
  std::vector<uint8_t> blob(static_cast<size_t>(file_size));
  const size_t read =
      blob.empty() ? 0 : std::fread(blob.data(), 1, blob.size(), file);
  std::fclose(file);
  if (read != blob.size()) {
    *error = "short read of " + path;
    return false;
  }

  size_t cursor = 0;
  auto take = [&blob, &cursor](void* out, size_t size) {
    if (size > blob.size() - cursor) return false;
    std::memcpy(out, blob.data() + cursor, size);
    cursor += size;
    return true;
  };
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t count = 0;
  if (!take(&magic, sizeof(magic)) || magic != kSnapshotMagic) {
    *error = path + ": not a snapshot (bad magic)";
    return false;
  }
  if (!take(&version, sizeof(version)) || version != kSnapshotFormatVersion) {
    *error = path + ": unsupported snapshot format version " +
             std::to_string(version) + " (want " +
             std::to_string(kSnapshotFormatVersion) + ")";
    return false;
  }
  if (!take(&count, sizeof(count))) {
    *error = path + ": truncated header";
    return false;
  }
  std::vector<Section> sections;
  for (uint32_t i = 0; i < count; ++i) {
    Section section;
    uint64_t length = 0;
    uint32_t crc = 0;
    if (!take(&section.id_, sizeof(section.id_)) ||
        !take(&length, sizeof(length)) || !take(&crc, sizeof(crc))) {
      *error = path + ": truncated section header (section " +
               std::to_string(i) + " of " + std::to_string(count) + ")";
      return false;
    }
    if (length > blob.size() - cursor) {
      *error = path + ": truncated section payload (section " +
               std::to_string(i) + " declares " + std::to_string(length) +
               " bytes, " + std::to_string(blob.size() - cursor) +
               " remain)";
      return false;
    }
    section.payload_.assign(blob.begin() + static_cast<ptrdiff_t>(cursor),
                            blob.begin() +
                                static_cast<ptrdiff_t>(cursor + length));
    cursor += static_cast<size_t>(length);
    const uint32_t actual =
        Crc32(section.payload_.data(), section.payload_.size());
    if (actual != crc) {
      *error = path + ": checksum mismatch in section id " +
               std::to_string(section.id_);
      return false;
    }
    sections.push_back(std::move(section));
  }
  if (cursor != blob.size()) {
    *error = path + ": trailing garbage after the last section";
    return false;
  }
  sections_ = std::move(sections);
  return true;
}

SnapshotReader::Section* SnapshotReader::Find(uint32_t id) {
  for (Section& section : sections_) {
    if (section.id_ == id) {
      section.cursor_ = 0;
      section.ok_ = true;
      return &section;
    }
  }
  return nullptr;
}

std::string CheckpointPath(const std::string& dir, const std::string& prefix,
                           int counter) {
  char digits[32];
  std::snprintf(digits, sizeof(digits), "%06d", counter);
  return dir + "/" + prefix + digits + kCheckpointSuffix;
}

std::vector<CheckpointFile> ListCheckpoints(const std::string& dir,
                                            const std::string& prefix) {
  std::vector<CheckpointFile> found;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return found;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    const size_t prefix_len = prefix.size();
    const size_t suffix_len = sizeof(kCheckpointSuffix) - 1;
    if (name.size() <= prefix_len + suffix_len ||
        name.compare(0, prefix_len, prefix) != 0 ||
        name.compare(name.size() - suffix_len, suffix_len,
                     kCheckpointSuffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    CheckpointFile file;
    file.round = std::atoi(digits.c_str());
    file.path = dir + "/" + name;
    found.push_back(std::move(file));
  }
  ::closedir(handle);
  std::sort(found.begin(), found.end(),
            [](const CheckpointFile& a, const CheckpointFile& b) {
              return a.round < b.round;
            });
  return found;
}

size_t PruneCheckpoints(const std::string& dir, const std::string& prefix,
                        int keep, std::string* error) {
  if (keep <= 0) return 0;
  std::vector<CheckpointFile> checkpoints = ListCheckpoints(dir, prefix);
  if (checkpoints.size() <= static_cast<size_t>(keep)) return 0;
  size_t removed = 0;
  const size_t excess = checkpoints.size() - static_cast<size_t>(keep);
  for (size_t i = 0; i < excess; ++i) {  // ascending => oldest first
    if (::unlink(checkpoints[i].path.c_str()) == 0) {
      ++removed;
    } else if (error != nullptr && error->empty()) {
      *error = "unlink " + checkpoints[i].path + ": " + ErrnoString();
    }
  }
  return removed;
}

std::string ResumeFromNewestCheckpoint(const std::string& dir,
                                       const std::string& prefix, int keep,
                                       const SnapshotFileFn& load) {
  const std::vector<CheckpointFile> checkpoints = ListCheckpoints(dir, prefix);
  int newer = 0;
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend();
       ++it, ++newer) {
    std::string error;
    if (!load(it->path, &error)) {
      RECONCILE_LOG(Warning) << "skipping checkpoint " << it->path << ": "
                             << error;
      continue;
    }
    if (keep > 0) {
      std::string prune_error;
      PruneCheckpoints(dir, prefix, std::max(keep, newer + 1), &prune_error);
      if (!prune_error.empty()) {
        RECONCILE_LOG(Warning)
            << "checkpoint prune on resume failed (non-fatal): "
            << prune_error;
      }
    }
    return it->path;
  }
  RECONCILE_LOG(Warning) << "no usable " << prefix << "NNNNNN"
                         << kCheckpointSuffix << " checkpoint in " << dir
                         << "; starting fresh";
  return "";
}

bool WriteCheckpoint(const std::string& dir, const std::string& prefix,
                     int counter, int keep, const SnapshotFileFn& save) {
  std::string error;
  if (!save(CheckpointPath(dir, prefix, counter), &error)) {
    RECONCILE_LOG(Warning) << "checkpoint write failed: " << error;
    return false;
  }
  PruneCheckpoints(dir, prefix, keep, &error);
  if (!error.empty()) {
    RECONCILE_LOG(Warning) << "checkpoint prune failed (non-fatal): "
                           << error;
  }
  return true;
}

bool EnsureDir(const std::string& dir, std::string* error) {
  if (dir.empty()) {
    *error = "empty directory path";
    return false;
  }
  std::string partial;
  size_t begin = 0;
  while (begin <= dir.size()) {
    size_t end = dir.find('/', begin);
    if (end == std::string::npos) end = dir.size();
    partial = dir.substr(0, end == 0 ? 1 : end);
    begin = end + 1;
    if (partial.empty() || partial == "/" || partial == ".") continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      *error = "cannot create directory " + partial + ": " + ErrnoString();
      return false;
    }
  }
  return true;
}

}  // namespace reconcile
