#ifndef RECONCILE_UTIL_FLAGS_H_
#define RECONCILE_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace reconcile {

/// Minimal `--key=value` command-line parser for the CLI tools. Flags may
/// also be written `--key value`; bare `--key` sets the value "true".
/// Unknown positional arguments are collected separately.
class Flags {
 public:
  /// Parses argv[1..argc). Returns false (and fills *error) on malformed
  /// input such as an empty flag name.
  bool Parse(int argc, const char* const argv[], std::string* error);

  bool Has(const std::string& key) const;

  /// Typed getters with defaults. A value that is present but does not
  /// parse as the requested type (`--nodes=abc`, `--nodes=1e3` for an
  /// integer, `--no-bucketing=maybe`) is a usage error: one stderr line
  /// naming the flag and its value, then the process exits with code 2,
  /// the tools' usage-error code.
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that were provided but never read by any getter; used to warn
  /// about typos.
  std::vector<std::string> UnusedKeys() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
};

}  // namespace reconcile

#endif  // RECONCILE_UTIL_FLAGS_H_
