#include "caller/haplotype_caller.hpp"

#include <algorithm>

namespace gpf::caller {

std::vector<VcfRecord> call_region(const ActiveRegion& region,
                                   std::span<const SamRecord> records,
                                   const Reference& reference,
                                   const CallerOptions& options,
                                   CallStats* stats) {
  std::vector<VcfRecord> out;
  if (region.read_indices.empty()) return out;

  // Gather region reads (bounded).
  std::vector<const SamRecord*> reads;
  reads.reserve(
      std::min(region.read_indices.size(), options.max_reads_per_region));
  for (const std::size_t idx : region.read_indices) {
    if (reads.size() >= options.max_reads_per_region) break;
    reads.push_back(&records[idx]);
  }

  const std::string_view ref_window =
      reference.slice(region.contig_id, region.start, region.size());
  if (ref_window.empty()) return out;

  // Assemble candidate haplotypes.
  std::vector<std::string_view> read_seqs;
  read_seqs.reserve(reads.size());
  for (const auto* r : reads) read_seqs.push_back(r->sequence);
  const AssemblyResult assembly =
      assemble_haplotypes(read_seqs, ref_window, options.assembler);
  if (stats != nullptr && assembly.assembled) ++stats->assembled_regions;
  if (assembly.haplotypes.size() < 2) return out;

  // Pair-HMM likelihoods, every region read against every haplotype in one
  // call (lane-batched at the SIMD levels with shared haplotype prefixes
  // reused, bit-identical to one call per pair).
  PairHmm hmm(options.pairhmm);
  std::vector<HmmRead> hmm_reads;
  hmm_reads.reserve(reads.size());
  for (const auto* r : reads) hmm_reads.push_back({r->sequence, r->quality});
  const std::vector<std::string_view> haps(assembly.haplotypes.begin(),
                                           assembly.haplotypes.end());
  std::vector<double> scores(reads.size() * haps.size());
  hmm.log10_likelihoods(hmm_reads, haps, scores);
  LikelihoodMatrix likelihoods(reads.size());
  for (std::size_t r = 0; r < reads.size(); ++r) {
    likelihoods[r].assign(scores.begin() + r * haps.size(),
                          scores.begin() + (r + 1) * haps.size());
  }
  if (stats != nullptr) stats->reads_processed += reads.size();

  // Genotype.
  const auto genotyped =
      genotype_region(assembly.haplotypes, likelihoods, region.contig_id,
                      region.start, options.genotyper);
  out.reserve(genotyped.size());
  for (const auto& gv : genotyped) out.push_back(gv.record);
  return out;
}

std::vector<VcfRecord> call_variants(std::span<const SamRecord> sorted_records,
                                     const Reference& reference,
                                     const CallerOptions& options,
                                     CallStats* stats) {
  auto regions =
      find_active_regions(sorted_records, reference, options.active_region);
  if (options.targets != nullptr) {
    std::erase_if(regions, [&options](const ActiveRegion& r) {
      return !options.targets->overlaps(r.contig_id, r.start, r.end);
    });
  }
  CallStats local;
  std::vector<VcfRecord> out;
  for (const auto& region : regions) {
    auto calls = call_region(region, sorted_records, reference, options,
                             &local);
    out.insert(out.end(), std::make_move_iterator(calls.begin()),
               std::make_move_iterator(calls.end()));
  }
  local.regions = regions.size();
  local.variants_emitted = out.size();
  std::sort(out.begin(), out.end(), vcf_less);
  // Deduplicate identical records from adjacent/overlapping regions.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const VcfRecord& a, const VcfRecord& b) {
                          return a.contig_id == b.contig_id &&
                                 a.pos == b.pos && a.ref == b.ref &&
                                 a.alt == b.alt;
                        }),
            out.end());
  if (stats != nullptr) {
    stats->regions += local.regions;
    stats->assembled_regions += local.assembled_regions;
    stats->reads_processed += local.reads_processed;
    stats->variants_emitted += local.variants_emitted;
  }
  return out;
}

}  // namespace gpf::caller
