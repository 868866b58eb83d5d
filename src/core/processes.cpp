#include "core/processes.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "caller/haplotype_caller.hpp"
#include "cleaner/indel_realign.hpp"
#include "cleaner/markdup.hpp"
#include "cleaner/sorter.hpp"
#include "common/bytes.hpp"
#include "common/timer.hpp"
#include "compress/qual_codec.hpp"
#include "compress/seq_codec.hpp"

namespace gpf::core {
namespace {

/// Raw FASTQ text size of a pair (the storage-subsystem read volume).
std::uint64_t fastq_text_size(const FastqPair& p) {
  const auto one = [](const FastqRecord& r) {
    return r.name.size() + r.sequence.size() + r.quality.size() + 7;
  };
  return one(p.first) + one(p.second);
}

/// VCF text size estimate for output-volume accounting.
std::uint64_t vcf_text_size(const VcfRecord& v) {
  return 24 + v.ref.size() + v.alt.size() + v.id.size();
}

/// Records a synthetic stage for driver-side or I/O-only steps that do not
/// run through Dataset transformations.
void record_stage(PipelineContext& ctx, std::string name, double seconds,
                  std::uint64_t input_bytes, std::uint64_t output_bytes,
                  std::size_t tasks = 1) {
  engine::StageMetrics stage;
  stage.name = std::move(name);
  stage.task_count = tasks;
  stage.task_seconds.assign(tasks, seconds / static_cast<double>(tasks));
  stage.wall_seconds = seconds;
  stage.input_bytes = input_bytes;
  stage.output_bytes = output_bytes;
  ctx.engine().metrics().add_stage(std::move(stage));
}

// --- RegionBundle batch codec ----------------------------------------------

void write_bundle_batch(ByteWriter& w, std::span<const RegionBundle> bundles,
                        Codec codec) {
  w.u32(0x474e4442);  // "GNDB"
  w.uvarint(bundles.size());
  for (const auto& b : bundles) {
    w.u32(b.partition_id);
    w.i32(b.contig_id);
    w.i64(b.start);
    w.i64(b.end);
    if (codec == Codec::kGpf) {
      // 2-bit pack the reference slice; N positions listed explicitly.
      std::string dummy_qual(b.ref_bases.size(), 'I');
      const CompressedSequence seq =
          compress_sequence(b.ref_bases, dummy_qual);
      w.uvarint(seq.length);
      w.raw(std::span(seq.packed.data(), seq.packed.size()));
      std::vector<std::uint64_t> n_positions;
      for (std::size_t i = 0; i < b.ref_bases.size(); ++i) {
        if (b.ref_bases[i] == 'N') n_positions.push_back(i);
      }
      w.uvarint(n_positions.size());
      for (const auto p : n_positions) w.uvarint(p);
    } else {
      w.str(b.ref_bases);
    }
    const auto sam = encode_sam_batch(b.sam, codec);
    w.uvarint(sam.size());
    w.raw(std::span(sam.data(), sam.size()));
    const auto vcf = encode_vcf_batch(b.known, codec);
    w.uvarint(vcf.size());
    w.raw(std::span(vcf.data(), vcf.size()));
  }
}

std::vector<std::uint8_t> encode_bundle_batch(
    std::span<const RegionBundle> bundles, Codec codec) {
  ByteWriter w;
  write_bundle_batch(w, bundles, codec);
  return w.take();
}

/// encode_bundle_batch into `out`'s storage (pooled shuffle buffers); the
/// bytes are identical.
void encode_bundle_batch_into(std::span<const RegionBundle> bundles,
                              Codec codec, std::vector<std::uint8_t>& out) {
  ByteWriter w(std::move(out));
  write_bundle_batch(w, bundles, codec);
  out = w.take();
}

std::vector<RegionBundle> decode_bundle_batch(
    std::span<const std::uint8_t> bytes, Codec codec) {
  ByteReader r(bytes);
  if (r.u32() != 0x474e4442) {
    throw std::invalid_argument("bundle batch: bad magic");
  }
  const std::uint64_t count = r.uvarint();
  std::vector<RegionBundle> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    RegionBundle b;
    b.partition_id = r.u32();
    b.contig_id = r.i32();
    b.start = r.i64();
    b.end = r.i64();
    if (codec == Codec::kGpf) {
      CompressedSequence seq;
      seq.length = static_cast<std::uint32_t>(r.uvarint());
      const auto raw = r.raw(packed_size(seq.length));
      seq.packed.assign(raw.begin(), raw.end());
      std::string qual(seq.length, 'I');
      b.ref_bases = decompress_sequence(seq, qual);
      const std::uint64_t n_count = r.uvarint();
      for (std::uint64_t n = 0; n < n_count; ++n) {
        b.ref_bases[r.uvarint()] = 'N';
      }
    } else {
      b.ref_bases = r.str();
    }
    const std::size_t sam_size = r.uvarint();
    b.sam = decode_sam_batch(r.raw(sam_size), codec);
    const std::size_t vcf_size = r.uvarint();
    b.known = decode_vcf_batch(r.raw(vcf_size), codec);
    out.push_back(std::move(b));
  }
  return out;
}

engine::ShuffleCodec<RegionBundle> make_bundle_codec(Codec codec) {
  return {
      [codec](std::span<const RegionBundle> b) {
        return encode_bundle_batch(b, codec);
      },
      [codec](std::span<const std::uint8_t> bytes) {
        return decode_bundle_batch(bytes, codec);
      },
      [codec](std::span<const RegionBundle> b, std::vector<std::uint8_t>& out) {
        encode_bundle_batch_into(b, codec, out);
      },
  };
}

/// Partition function for mapped records; unmapped reads ride along in the
/// partition of their mate position (or 0).
std::uint32_t record_partition(const SamRecord& rec,
                               const PartitionInfo& info) {
  if (rec.contig_id >= 0) return info.partition_of(rec.contig_id, rec.pos);
  if (rec.mate_contig_id >= 0) {
    return info.partition_of(rec.mate_contig_id, rec.mate_pos);
  }
  return 0;
}

}  // namespace

engine::ShuffleCodec<FastqPair> make_fastq_pair_codec(Codec codec) {
  return {
      [codec](std::span<const FastqPair> p) {
        return encode_fastq_pair_batch(p, codec);
      },
      [codec](std::span<const std::uint8_t> bytes) {
        return decode_fastq_pair_batch(bytes, codec);
      },
      [codec](std::span<const FastqPair> p, std::vector<std::uint8_t>& out) {
        encode_fastq_pair_batch_into(p, codec, out);
      },
  };
}

engine::ShuffleCodec<SamRecord> make_sam_codec(Codec codec) {
  return {
      [codec](std::span<const SamRecord> r) {
        return encode_sam_batch(r, codec);
      },
      [codec](std::span<const std::uint8_t> bytes) {
        return decode_sam_batch(bytes, codec);
      },
      [codec](std::span<const SamRecord> r, std::vector<std::uint8_t>& out) {
        encode_sam_batch_into(r, codec, out);
      },
  };
}

engine::ShuffleCodec<VcfRecord> make_vcf_codec(Codec codec) {
  return {
      [codec](std::span<const VcfRecord> r) {
        return encode_vcf_batch(r, codec);
      },
      [codec](std::span<const std::uint8_t> bytes) {
        return decode_vcf_batch(bytes, codec);
      },
      [codec](std::span<const VcfRecord> r, std::vector<std::uint8_t>& out) {
        encode_vcf_batch_into(r, codec, out);
      },
  };
}

// --- LoadFastqProcess -------------------------------------------------------

LoadFastqProcess::LoadFastqProcess(std::string name,
                                   std::vector<FastqPair> pairs,
                                   FastqPairBundle* output)
    : Process(std::move(name), {}, {output}),
      pairs_(std::move(pairs)),
      output_(output) {}

void LoadFastqProcess::run(PipelineContext& ctx) {
  std::uint64_t raw_bytes = 0;
  for (const auto& p : pairs_) raw_bytes += fastq_text_size(p);
  Timer t;
  auto dataset =
      ctx.engine()
          .parallelize(std::move(pairs_), ctx.config().fastq_partitions)
          .with_codec(make_fastq_pair_codec(ctx.config().codec));
  record_stage(ctx, name() + ".load", t.seconds(), raw_bytes, 0,
               ctx.config().fastq_partitions);
  output_->set(std::move(dataset));
}

// --- LoadKnownSitesProcess --------------------------------------------------

LoadKnownSitesProcess::LoadKnownSitesProcess(std::string name,
                                             std::vector<VcfRecord> sites,
                                             VcfBundle* output)
    : Process(std::move(name), {}, {output}),
      sites_(std::move(sites)),
      output_(output) {}

void LoadKnownSitesProcess::run(PipelineContext& ctx) {
  std::uint64_t raw_bytes = 0;
  for (const auto& v : sites_) raw_bytes += vcf_text_size(v);
  Timer t;
  auto dataset =
      ctx.engine()
          .parallelize(std::move(sites_),
                       std::max<std::size_t>(1,
                                             ctx.config().fastq_partitions / 4))
          .with_codec(make_vcf_codec(ctx.config().codec));
  record_stage(ctx, name() + ".load", t.seconds(), raw_bytes, 0, 1);
  output_->set(std::move(dataset));
}

// --- BwaMemProcess ----------------------------------------------------------

BwaMemProcess::BwaMemProcess(std::string name, FastqPairBundle* input,
                             SamBundle* output)
    : Process(std::move(name), {input}, {output}),
      input_(input),
      output_(output) {}

void BwaMemProcess::run(PipelineContext& ctx) {
  // The FM index is a prebuilt artifact in production (bwa ships hg19
  // indexes; the paper's runs load, not build, it), so construction time
  // is deliberately NOT recorded as a pipeline stage: replaying it as
  // data-scaled work would wrongly charge the aligner a fixed per-cluster
  // setup cost multiplied by dataset size.
  const align::ReadAligner& aligner = ctx.aligner();

  auto aligned = input_->get().flat_map(
      "aligner.bwamem",
      [&aligner](const FastqPair& pair) -> std::vector<SamRecord> {
        auto [r1, r2] = aligner.align_pair(pair);
        std::vector<SamRecord> out;
        out.reserve(2);
        out.push_back(std::move(r1));
        out.push_back(std::move(r2));
        return out;
      });
  output_->set(
      aligned.with_codec(make_sam_codec(ctx.config().codec)));
}

// --- ReadRepartitioner ------------------------------------------------------

ReadRepartitioner::ReadRepartitioner(std::string name, SamBundle* input,
                                     PartitionInfoResource* output)
    : Process(std::move(name), {input}, {output}),
      input_(input),
      output_(output) {}

void ReadRepartitioner::run(PipelineContext& ctx) {
  PartitionInfo info(ctx.contig_infos(), ctx.config().partition_length);
  const std::size_t buckets = info.base_partition_count();

  // Count reads per base partition (the paper's (partition id, 1) tuples
  // reduced with collect()).
  using Counts = std::vector<std::uint64_t>;
  const Counts counts = input_->get().aggregate<Counts>(
      "repartition.count", Counts(buckets, 0),
      [&info](Counts acc, const SamRecord& rec) {
        ++acc[record_partition(rec, info)];
        return acc;
      },
      [](Counts a, Counts b) {
        for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
        return a;
      });

  if (ctx.config().dynamic_repartition) {
    Timer t;
    info.apply_split(counts, ctx.config().split_threshold);
    record_stage(ctx, "repartition.split", t.seconds(), 0, 0);
  }
  output_->set(std::move(info));
}

// --- SortProcess ------------------------------------------------------------

SortProcess::SortProcess(std::string name, SamBundle* input,
                         PartitionInfoResource* partition_info,
                         SamBundle* output)
    : Process(std::move(name), {input, partition_info}, {output}),
      input_(input),
      partition_info_(partition_info),
      output_(output) {}

void SortProcess::run(PipelineContext& ctx) {
  const PartitionInfo& info = partition_info_->get();
  auto shuffled = input_->get().shuffle(
      "cleaner.sort.shuffle", info.partition_count(),
      [&info](const SamRecord& rec) { return record_partition(rec, info); });
  auto sorted = shuffled.map_partitions<SamRecord>(
      "cleaner.sort.local", [](const std::vector<SamRecord>& part) {
        std::vector<SamRecord> out = part;
        cleaner::coordinate_sort(out);
        return out;
      });
  output_->set(sorted.with_codec(make_sam_codec(ctx.config().codec)));
}

// --- MarkDuplicateProcess ---------------------------------------------------

MarkDuplicateProcess::MarkDuplicateProcess(std::string name, SamBundle* input,
                                           SamBundle* output)
    : Process(std::move(name), {input}, {output}),
      input_(input),
      output_(output) {}

void MarkDuplicateProcess::run(PipelineContext& ctx) {
  // Duplicates share a fragment signature, so routing by signature hash
  // keeps every signature group within one partition.
  const std::size_t n_out =
      std::max<std::size_t>(ctx.engine().pool().size() * 2,
                            input_->get().partition_count());
  auto shuffled = input_->get().shuffle(
      "cleaner.markdup.shuffle", n_out, [](const SamRecord& rec) {
        const auto sig = cleaner::fragment_signature(rec);
        std::uint64_t h = 0xcbf29ce484222325ULL;
        auto mixin = [&h](std::uint64_t v) {
          h ^= v;
          h *= 0x100000001b3ULL;
        };
        mixin(static_cast<std::uint64_t>(sig.contig_id));
        mixin(static_cast<std::uint64_t>(sig.unclipped_start));
        mixin(static_cast<std::uint64_t>(sig.mate_contig_id));
        mixin(static_cast<std::uint64_t>(sig.mate_pos));
        return h;
      });

  std::mutex stats_mu;
  stats_ = {};
  auto marked = shuffled.map_partitions<SamRecord>(
      "cleaner.markdup.mark",
      [this, &stats_mu](const std::vector<SamRecord>& part) {
        std::vector<SamRecord> out = part;
        const auto s = cleaner::mark_duplicates(out);
        {
          std::lock_guard lock(stats_mu);
          stats_.records += s.records;
          stats_.duplicates_marked += s.duplicates_marked;
          stats_.signature_groups += s.signature_groups;
        }
        return out;
      });
  output_->set(marked.with_codec(make_sam_codec(ctx.config().codec)));
}

// --- region bundle construction ----------------------------------------------

engine::Dataset<RegionBundle> build_region_bundles(
    PipelineContext& ctx, const engine::Dataset<SamRecord>& sam,
    const engine::Dataset<VcfRecord>& known, const PartitionInfo& info,
    const std::string& stage_prefix) {
  const std::size_t n_out = info.partition_count();
  const Codec codec = ctx.config().codec;

  // Shuffle 1: SAM records grouped by partition id.
  auto sam_parts = sam.with_codec(make_sam_codec(codec))
                       .shuffle(stage_prefix + ".sam_groupby", n_out,
                                [&info](const SamRecord& rec) {
                                  return record_partition(rec, info);
                                });

  // Shuffle 2: FASTA partition RDD — reference slices routed to their
  // partition (paper Fig 7's "groupBy partition ID" over FASTA contigs).
  std::vector<RegionBundle> fasta_chunks;
  fasta_chunks.reserve(n_out);
  for (std::uint32_t pid = 0; pid < n_out; ++pid) {
    const auto region = info.region_of(pid);
    RegionBundle chunk;
    chunk.partition_id = pid;
    chunk.contig_id = region.contig_id;
    chunk.start = region.start;
    chunk.end = region.end;
    chunk.ref_bases = std::string(ctx.reference().slice(
        region.contig_id, region.start, region.end - region.start));
    fasta_chunks.push_back(std::move(chunk));
  }
  auto fasta_parts =
      ctx.engine()
          .parallelize(std::move(fasta_chunks),
                       std::max<std::size_t>(1, n_out / 4))
          .with_codec(make_bundle_codec(codec))
          .shuffle(stage_prefix + ".fasta_groupby", n_out,
                   [](const RegionBundle& c) { return c.partition_id; });

  // Shuffle 3: known-VCF partition RDD.
  auto vcf_parts = known.with_codec(make_vcf_codec(codec))
                       .shuffle(stage_prefix + ".vcf_groupby", n_out,
                                [&info](const VcfRecord& v) {
                                  return info.partition_of(v.contig_id,
                                                           v.pos);
                                });

  // Join: co-partitioned by construction, so the join zips partitions by
  // index.
  const auto& fasta_partitions = fasta_parts.partitions();
  const auto& vcf_partitions = vcf_parts.partitions();
  return sam_parts.map_partitions_indexed<RegionBundle>(
      stage_prefix + ".join",
      [&fasta_partitions, &vcf_partitions](
          std::size_t pid, const std::vector<SamRecord>& sam_part) {
        RegionBundle bundle;
        if (!fasta_partitions[pid].empty()) {
          bundle = fasta_partitions[pid][0];  // ref slice + region info
        }
        bundle.partition_id = static_cast<std::uint32_t>(pid);
        bundle.sam = sam_part;
        cleaner::coordinate_sort(bundle.sam);
        bundle.known = vcf_partitions[pid];
        std::sort(bundle.known.begin(), bundle.known.end(), vcf_less);
        std::vector<RegionBundle> out;
        out.push_back(std::move(bundle));
        return out;
      });
}

std::size_t encoded_bundle_bytes(std::span<const RegionBundle> bundles,
                                 Codec codec) {
  return encode_bundle_batch(bundles, codec).size();
}

engine::Dataset<SamRecord> flatten_bundles(
    PipelineContext& ctx, const engine::Dataset<RegionBundle>& bundles,
    const std::string& stage_name) {
  auto flat = bundles.flat_map(
      stage_name,
      [](const RegionBundle& b) { return b.sam; });
  return flat.with_codec(make_sam_codec(ctx.config().codec));
}

// --- IndelRealignProcess ----------------------------------------------------

IndelRealignProcess::IndelRealignProcess(std::string name, SamBundle* input,
                                         VcfBundle* known,
                                         PartitionInfoResource* partition_info,
                                         SamBundle* output)
    : Process(std::move(name), {input, known, partition_info}, {output}),
      input_(input),
      known_(known),
      partition_info_(partition_info),
      output_(output) {}

void IndelRealignProcess::run(PipelineContext& ctx) {
  engine::Dataset<RegionBundle> bundles =
      bundle_source() != nullptr
          ? *bundle_source()->published_bundle()
          : build_region_bundles(ctx, input_->get(), known_->get(),
                                 partition_info_->get(), "cleaner.indel");

  const Reference& reference = ctx.reference();
  auto processed = bundles.map(
      "cleaner.indel.realign", [&reference](const RegionBundle& in) {
        RegionBundle b = in;
        const cleaner::RealignOptions options;
        const auto targets =
            cleaner::find_realign_targets(b.sam, b.known, options);
        cleaner::realign_reads(b.sam, reference, targets, options);
        return b;
      });

  if (emit_bundle()) {
    publish_bundle(processed);
    // The flat output is fused away; downstream reads the bundle.
    output_->set(ctx.engine().make_dataset<SamRecord>({}));
  } else {
    output_->set(
        flatten_bundles(ctx, processed, "cleaner.indel.flatten"));
  }
}

// --- BaseRecalibrationProcess -------------------------------------------------

BaseRecalibrationProcess::BaseRecalibrationProcess(
    std::string name, SamBundle* input, VcfBundle* known,
    PartitionInfoResource* partition_info, SamBundle* output)
    : Process(std::move(name), {input, known, partition_info}, {output}),
      input_(input),
      known_(known),
      partition_info_(partition_info),
      output_(output) {}

void BaseRecalibrationProcess::run(PipelineContext& ctx) {
  engine::Dataset<RegionBundle> bundles =
      bundle_source() != nullptr
          ? *bundle_source()->published_bundle()
          : build_region_bundles(ctx, input_->get(), known_->get(),
                                 partition_info_->get(), "cleaner.bqsr");

  const Reference& reference = ctx.reference();

  // Pass 1: per-partition covariate tables.
  auto tables = bundles.map(
      "cleaner.bqsr.collect_covariates",
      [&reference](const RegionBundle& b) {
        const cleaner::KnownSites known_sites(b.known);
        return cleaner::collect_covariates(b.sam, reference, known_sites);
      });

  // Collect: merge on the driver and broadcast — the serial step the
  // paper observes slowing BQSR's parallel efficiency.
  Timer collect_timer;
  cleaner::RecalTable merged;
  for (const auto& part : tables.partitions()) {
    for (const auto& t : part) merged.merge(t);
  }
  broadcast_bytes_ = merged.byte_size();
  record_stage(ctx, "cleaner.bqsr.collect", collect_timer.seconds(), 0,
               broadcast_bytes_);

  // Pass 2: apply.
  auto recalibrated = bundles.map(
      "cleaner.bqsr.apply", [&merged](const RegionBundle& in) {
        RegionBundle b = in;
        cleaner::apply_recalibration(b.sam, merged);
        return b;
      });

  if (emit_bundle()) {
    publish_bundle(recalibrated);
    output_->set(ctx.engine().make_dataset<SamRecord>({}));
  } else {
    output_->set(
        flatten_bundles(ctx, recalibrated, "cleaner.bqsr.flatten"));
  }
}

// --- HaplotypeCallerProcess ---------------------------------------------------

namespace {

/// Output resource list for the HaplotypeCaller, depending on gVCF mode.
std::vector<Resource*> hc_outputs(VcfBundle* output,
                                  GvcfBlocksResource* gvcf_output) {
  std::vector<Resource*> outs{output};
  if (gvcf_output != nullptr) outs.push_back(gvcf_output);
  return outs;
}

}  // namespace

HaplotypeCallerProcess::HaplotypeCallerProcess(
    std::string name, SamBundle* input, VcfBundle* known,
    PartitionInfoResource* partition_info, VcfBundle* output, bool use_gvcf,
    GvcfBlocksResource* gvcf_output)
    : Process(std::move(name), {input, known, partition_info},
              hc_outputs(output, gvcf_output)),
      input_(input),
      known_(known),
      partition_info_(partition_info),
      output_(output),
      use_gvcf_(use_gvcf),
      gvcf_output_(gvcf_output) {
  if (use_gvcf_ && gvcf_output_ == nullptr) {
    throw std::invalid_argument(
        "HaplotypeCallerProcess: useGVCF requires a gvcf output resource");
  }
}

void HaplotypeCallerProcess::run(PipelineContext& ctx) {
  engine::Dataset<RegionBundle> bundles =
      bundle_source() != nullptr
          ? *bundle_source()->published_bundle()
          : build_region_bundles(ctx, input_->get(), known_->get(),
                                 partition_info_->get(), "caller.hc");

  const Reference& reference = ctx.reference();
  if (!use_gvcf_) {
    auto variants = bundles.flat_map(
        "caller.hc.call", [&reference](const RegionBundle& in) {
          std::vector<SamRecord> sorted = in.sam;
          cleaner::coordinate_sort(sorted);
          const caller::CallerOptions options;
          return caller::call_variants(sorted, reference, options);
        });
    output_->set(variants.with_codec(make_vcf_codec(ctx.config().codec)));
    return;
  }

  // gVCF mode: call variants and derive reference-confidence blocks per
  // region in one pass.
  using RegionResult =
      std::pair<std::vector<VcfRecord>, std::vector<caller::GvcfBlock>>;
  auto results = bundles.map(
      "caller.hc.call_gvcf", [&reference](const RegionBundle& in) {
        std::vector<SamRecord> sorted = in.sam;
        cleaner::coordinate_sort(sorted);
        const caller::CallerOptions options;
        RegionResult result;
        result.first = caller::call_variants(sorted, reference, options);
        result.second =
            caller::reference_blocks(sorted, result.first, reference);
        // Clip blocks to this bundle's genomic region: reads spanning the
        // partition border would otherwise produce overlapping blocks in
        // two bundles (the neighbour owns the territory past the border).
        std::vector<caller::GvcfBlock> clipped;
        for (auto& b : result.second) {
          b.start = std::max(b.start, in.start);
          b.end = std::min(b.end, in.end);
          if (b.start < b.end) clipped.push_back(b);
        }
        result.second = std::move(clipped);
        return result;
      });
  auto variants = results.flat_map(
      "caller.hc.extract_variants",
      [](const RegionResult& r) { return r.first; });
  output_->set(variants.with_codec(make_vcf_codec(ctx.config().codec)));

  std::vector<caller::GvcfBlock> blocks;
  for (const auto& part : results.partitions()) {
    for (const auto& r : part) {
      blocks.insert(blocks.end(), r.second.begin(), r.second.end());
    }
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const caller::GvcfBlock& a, const caller::GvcfBlock& b) {
              if (a.contig_id != b.contig_id) return a.contig_id < b.contig_id;
              return a.start < b.start;
            });
  gvcf_output_->set(std::move(blocks));
}

// --- CollectVcfProcess --------------------------------------------------------

CollectVcfProcess::CollectVcfProcess(std::string name, VcfBundle* input,
                                     VcfResultResource* output)
    : Process(std::move(name), {input}, {output}),
      input_(input),
      output_(output) {}

void CollectVcfProcess::run(PipelineContext& ctx) {
  Timer t;
  std::vector<VcfRecord> all = input_->get().collect();
  std::sort(all.begin(), all.end(), vcf_less);
  all.erase(std::unique(all.begin(), all.end(),
                        [](const VcfRecord& a, const VcfRecord& b) {
                          return a.contig_id == b.contig_id &&
                                 a.pos == b.pos && a.ref == b.ref &&
                                 a.alt == b.alt;
                        }),
            all.end());
  std::uint64_t out_bytes = 0;
  for (const auto& v : all) out_bytes += vcf_text_size(v);
  record_stage(ctx, name() + ".write", t.seconds(), 0, out_bytes);
  output_->set(std::move(all));
}

}  // namespace gpf::core
