#include "dataplane/registers.h"

#include <stdexcept>

#include "crypto/merkle.h"
#include "obs/obs.h"

namespace pera::dataplane {

void RegisterFile::declare(const std::string& name, std::size_t size) {
  regs_[name] = Reg{std::vector<std::uint64_t>(size, 0), 0, {}};
  ++decls_;
  layout_stale_ = true;
}

std::uint64_t RegisterFile::read(const std::string& name,
                                 std::size_t index) const {
  const auto it = regs_.find(name);
  if (it == regs_.end()) {
    throw std::out_of_range("register '" + name + "' not declared");
  }
  if (index >= it->second.values.size()) {
    throw std::out_of_range("register '" + name + "' index " +
                            std::to_string(index) + " out of range");
  }
  return it->second.values[index];
}

void RegisterFile::write(const std::string& name, std::size_t index,
                         std::uint64_t value) {
  const auto it = regs_.find(name);
  if (it == regs_.end()) {
    throw std::out_of_range("register '" + name + "' not declared");
  }
  Reg& reg = it->second;
  if (index >= reg.values.size()) {
    throw std::out_of_range("register '" + name + "' index " +
                            std::to_string(index) + " out of range");
  }
  if (reg.values[index] == value) return;  // no-op write: nothing changed
  reg.values[index] = value;
  ++writes_;
  if (tree_init_ && !layout_stale_) {
    const std::size_t chunk = index / kChunkValues;
    reg.dirty_chunks[chunk / 64] |= std::uint64_t{1} << (chunk % 64);
  }
}

std::size_t RegisterFile::size(const std::string& name) const {
  const auto it = regs_.find(name);
  if (it == regs_.end()) {
    throw std::out_of_range("register '" + name + "' not declared");
  }
  return it->second.values.size();
}

crypto::Digest RegisterFile::schema_leaf(const std::string& name,
                                         std::size_t size) {
  crypto::Bytes buf;
  crypto::append(buf, crypto::as_bytes("pera.reg.schema.v1"));
  crypto::append_str(buf, name);
  crypto::append_u64(buf, size);
  return crypto::sha256(crypto::BytesView{buf.data(), buf.size()});
}

crypto::Digest RegisterFile::chunk_leaf(
    const std::vector<std::uint64_t>& values, std::size_t chunk) {
  const std::size_t begin = chunk * kChunkValues;
  const std::size_t end =
      begin + kChunkValues < values.size() ? begin + kChunkValues
                                           : values.size();
  crypto::Bytes buf;
  buf.reserve((end - begin) * 8);
  for (std::size_t i = begin; i < end; ++i) crypto::append_u64(buf, values[i]);
  crypto::Digest out;
  crypto::Sha256::digest_into(crypto::BytesView{buf.data(), buf.size()}, out);
  return out;
}

void RegisterFile::rebuild_tree() const {
  std::vector<crypto::Digest> leaves;
  for (const auto& [name, reg] : regs_) {
    reg.leaf_base = leaves.size();
    leaves.push_back(schema_leaf(name, reg.values.size()));
    const std::size_t chunks =
        (reg.values.size() + kChunkValues - 1) / kChunkValues;
    for (std::size_t c = 0; c < chunks; ++c) {
      leaves.push_back(chunk_leaf(reg.values, c));
    }
    reg.dirty_chunks.assign((chunks + 63) / 64, 0);
  }
  tree_.assign(std::move(leaves));
  tree_init_ = true;
  layout_stale_ = false;
}

crypto::Digest RegisterFile::state_digest() const {
  if (!tree_init_ || layout_stale_) {
    rebuild_tree();
    PERA_OBS_COUNT("dataplane.digest.reg.full");
  } else {
    std::uint64_t dirty = 0;
    for (const auto& [name, reg] : regs_) {
      for (std::size_t w = 0; w < reg.dirty_chunks.size(); ++w) {
        std::uint64_t word = reg.dirty_chunks[w];
        while (word != 0) {
          const unsigned bit =
              static_cast<unsigned>(__builtin_ctzll(word));
          word &= word - 1;
          const std::size_t chunk = w * 64 + bit;
          tree_.set_leaf(reg.leaf_base + 1 + chunk,
                         chunk_leaf(reg.values, chunk));
          ++dirty;
        }
        reg.dirty_chunks[w] = 0;
      }
    }
    PERA_OBS_COUNT("dataplane.digest.reg.incremental");
    if (dirty > 0) PERA_OBS_COUNT("dataplane.digest.reg.dirty_chunks", dirty);
  }
  const std::uint64_t before = tree_.stats().nodes_rehashed;
  const crypto::Digest root = tree_.root();
  PERA_OBS_COUNT("dataplane.digest.reg.nodes_rehashed",
                 tree_.stats().nodes_rehashed - before);
  return root;
}

crypto::Digest RegisterFile::state_digest_full() const {
  std::vector<crypto::Digest> leaves;
  for (const auto& [name, reg] : regs_) {
    leaves.push_back(schema_leaf(name, reg.values.size()));
    const std::size_t chunks =
        (reg.values.size() + kChunkValues - 1) / kChunkValues;
    for (std::size_t c = 0; c < chunks; ++c) {
      leaves.push_back(chunk_leaf(reg.values, c));
    }
  }
  return crypto::MerkleTree(std::move(leaves)).root();
}

}  // namespace pera::dataplane
