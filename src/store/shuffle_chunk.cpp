#include "store/shuffle_chunk.hpp"

namespace gpf::store {

std::string shuffle_block_column(std::size_t reduce_part) {
  // Appended, not "b" + string: GCC 12 flags that form's inlined insert
  // with a false -Wrestrict (GCC bug 105329).
  std::string column = "b";
  column += std::to_string(reduce_part);
  return column;
}

std::string shuffle_chunk_name(std::uint64_t shuffle, std::size_t map_task) {
  return "shuffle" + std::to_string(shuffle) + ".m" +
         std::to_string(map_task);
}

ChunkData make_shuffle_chunk(
    std::vector<std::vector<std::uint8_t>> blocks,
    const std::vector<engine::ShuffleBlockMeta>& meta) {
  ChunkData data;
  data.columns.reserve(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (b < meta.size()) data.records += meta[b].records;
    ColumnSpec col;
    col.name = shuffle_block_column(b);
    col.bytes = std::move(blocks[b]);
    data.columns.push_back(std::move(col));
  }
  return data;
}

}  // namespace gpf::store
