// Cohort study: several samples from related donor genomes run through
// the GPF pipeline against one shared reference, then merged into a
// multi-sample VCF — the workload family behind the paper's Table 1
// (concurrent samples) and the standard population-genetics workflow.
//
//   ./cohort_study [samples=3] [genome_kb=100] [coverage=12]
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/cohort.hpp"
#include "simdata/read_sim.hpp"
#include "simdata/reference_gen.hpp"
#include "simdata/variant_gen.hpp"

using namespace gpf;

int main(int argc, char** argv) {
  const int n_samples = argc > 1 ? std::atoi(argv[1]) : 3;
  const std::int64_t genome_kb = argc > 2 ? std::atoll(argv[2]) : 100;
  const double coverage = argc > 3 ? std::atof(argv[3]) : 12.0;

  // Shared reference; each sample is its own donor (private variant set
  // drawn with a different seed) — so the cohort has both shared and
  // private sites.
  const Reference reference = simdata::generate_reference(
      simdata::ReferenceSpec::genome(genome_kb * 1000, 2, 555));
  simdata::VariantSpec common_spec;
  common_spec.snp_rate = 0.0006;
  common_spec.seed = 556;
  const auto common_truth = simdata::spawn_variants(reference, common_spec);

  std::vector<core::SampleInput> samples;
  for (int s = 0; s < n_samples; ++s) {
    // Donor = common variants + a private sprinkle.
    simdata::VariantSpec private_spec;
    private_spec.snp_rate = 0.0002;
    private_spec.indel_rate = 0.0;
    private_spec.seed = 600 + static_cast<std::uint64_t>(s);
    auto truth = common_truth;
    for (auto& v : simdata::spawn_variants(reference, private_spec)) {
      truth.push_back(v);
    }
    std::sort(truth.begin(), truth.end(), vcf_less);
    // Drop overlapping private/common collisions.
    truth.erase(std::unique(truth.begin(), truth.end(),
                            [](const VcfRecord& a, const VcfRecord& b) {
                              return a.contig_id == b.contig_id &&
                                     a.pos == b.pos;
                            }),
                truth.end());
    const simdata::Donor donor(reference, truth);
    simdata::ReadSimSpec read_spec;
    read_spec.coverage = coverage;
    read_spec.seed = 700 + static_cast<std::uint64_t>(s);
    auto sample = simdata::simulate_reads(reference, donor, read_spec);
    std::printf("sample S%d: %zu pairs, %zu donor variants\n", s + 1,
                sample.pairs.size(), truth.size());
    samples.push_back({std::string("S").append(std::to_string(s + 1)),
                       std::move(sample.pairs)});
  }

  engine::Engine engine;
  core::PipelineConfig config;
  config.partition_length = 25'000;
  const core::CohortResult cohort = core::run_cohort(
      engine, reference, std::move(samples), common_truth, config);

  // Site sharing statistics.
  std::vector<std::size_t> carriers_histogram(
      static_cast<std::size_t>(n_samples) + 1, 0);
  for (const auto& site : cohort.sites) {
    std::size_t carriers = 0;
    for (const auto g : site.genotypes) {
      if (g != Genotype::kHomRef) ++carriers;
    }
    ++carriers_histogram[carriers];
  }
  std::printf("\ncohort: %zu distinct sites across %d samples\n",
              cohort.sites.size(), n_samples);
  for (std::size_t c = 1; c < carriers_histogram.size(); ++c) {
    std::printf("  carried by %zu sample%s: %zu sites\n", c,
                c == 1 ? " " : "s", carriers_histogram[c]);
  }

  VcfHeader header;
  for (const auto& c : reference.contigs()) {
    header.contigs.push_back(
        {c.name, static_cast<std::int64_t>(c.sequence.size())});
  }
  std::ofstream out("cohort.vcf");
  out << core::write_cohort_vcf(header, cohort.sample_names, cohort.sites);
  std::printf("wrote cohort.vcf\n");
  return 0;
}
