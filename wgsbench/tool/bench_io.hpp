// Shared helpers of the wgsbench tool: a flat name -> number metrics
// sink written as one JSON object, flag lookup, and the fixed file names
// of a generated input directory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "formats/fasta.hpp"
#include "formats/vcf.hpp"

namespace wgsbench {

/// Input files `wgsbench gen` writes into its output directory.
inline const char* const kRefFile = "ref.fa";
inline const char* const kReads1File = "r1.fastq";
inline const char* const kReads2File = "r2.fastq";
inline const char* const kTruthFile = "truth.vcf";
inline const char* const kKnownFile = "known.vcf";

/// VCF header naming every contig of `reference`.
inline gpf::VcfHeader vcf_header_for(const gpf::Reference& reference) {
  gpf::VcfHeader header;
  for (const auto& c : reference.contigs()) {
    header.contigs.push_back(
        {c.name, static_cast<std::int64_t>(c.sequence.size())});
  }
  return header;
}

/// Partition length as `gpf_tool pipeline` sets it: about 16 partitions
/// over the genome, at least 10 kb each.
inline std::int64_t partition_length_for(const gpf::Reference& reference) {
  return std::max<std::int64_t>(
      10'000, static_cast<std::int64_t>(reference.total_length() / 16));
}

/// Metrics in insertion order; set() on an existing name overwrites it.
class Metrics {
 public:
  void set(const std::string& name, double value) {
    for (auto& [n, v] : values_) {
      if (n == name) {
        v = value;
        return;
      }
    }
    values_.emplace_back(name, value);
  }

  /// Writes {"name": value, ...} to `path`; returns false on I/O error.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{", f);
    for (std::size_t i = 0; i < values_.size(); ++i) {
      std::fprintf(f, "%s\n  \"%s\": %.17g", i == 0 ? "" : ",",
                   values_[i].first.c_str(), values_[i].second);
    }
    std::fputs("\n}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// `--flag value` lookup over argv[first..argc); returns `fallback` when
/// the flag is absent.
inline std::string flag_value(int argc, char** argv, const std::string& flag,
                              const std::string& fallback = {}) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (flag == argv[i]) return argv[i + 1];
  }
  return fallback;
}

inline bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 0; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

int cmd_run(int argc, char** argv);
int cmd_replay(int argc, char** argv);

}  // namespace wgsbench
