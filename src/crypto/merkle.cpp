#include "crypto/merkle.h"

#include <cstring>
#include <stdexcept>

namespace pera::crypto {

namespace {

// Build one tree level: hash each sibling pair through the backend
// engine's multi-buffer lanes (each left||right pair is exactly one
// message block), promoting an unpaired trailing node unchanged.
std::vector<Digest> build_level(const std::vector<Digest>& prev) {
  const std::size_t pairs = prev.size() / 2;
  std::vector<Digest> next((prev.size() + 1) / 2);

  constexpr std::size_t kChunk = 64;  // pairs staged per batch
  alignas(32) std::uint8_t blocks[kChunk][64];
  for (std::size_t base = 0; base < pairs; base += kChunk) {
    const std::size_t m = base + kChunk <= pairs ? kChunk : pairs - base;
    for (std::size_t j = 0; j < m; ++j) {
      std::memcpy(blocks[j], prev[2 * (base + j)].v.data(), 32);
      std::memcpy(blocks[j] + 32, prev[2 * (base + j) + 1].v.data(), 32);
    }
    sha256_block_multi(blocks, next.data() + base, m);
  }
  if (prev.size() % 2 == 1) {
    next.back() = prev.back();  // promote unpaired node
  }
  return next;
}

}  // namespace

MerkleTree::MerkleTree(std::vector<Digest> leaves) {
  if (leaves.empty()) {
    root_ = Digest{};
    return;
  }
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    levels_.push_back(build_level(levels_.back()));
  }
  root_ = levels_.back()[0];
}

MerkleProof MerkleTree::prove(std::uint64_t index) const {
  if (levels_.empty() || index >= levels_[0].size()) {
    throw std::out_of_range("MerkleTree::prove: leaf index out of range");
  }
  MerkleProof proof;
  proof.leaf_index = index;
  std::size_t idx = index;
  for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    const auto& nodes = levels_[lvl];
    const std::size_t sibling = (idx % 2 == 0) ? idx + 1 : idx - 1;
    if (sibling < nodes.size()) {
      proof.siblings.push_back(nodes[sibling]);
    } else {
      // Unpaired node: mark with the zero digest; verification skips it.
      proof.siblings.push_back(Digest{});
    }
    idx /= 2;
  }
  return proof;
}

Digest MerkleTree::root_from_proof(const Digest& leaf,
                                   const MerkleProof& proof) {
  Digest acc = leaf;
  std::uint64_t idx = proof.leaf_index;
  for (const Digest& sib : proof.siblings) {
    if (sib.is_zero()) {
      // Promoted unpaired node: value carries up unchanged.
    } else if (idx % 2 == 0) {
      acc = sha256_pair(acc, sib);
    } else {
      acc = sha256_pair(sib, acc);
    }
    idx /= 2;
  }
  return acc;
}

bool MerkleTree::verify(const Digest& root, const Digest& leaf,
                        const MerkleProof& proof) {
  return root_from_proof(leaf, proof) == root;
}

Bytes MerkleProof::serialize() const {
  Bytes out;
  append_u64(out, leaf_index);
  append_u32(out, static_cast<std::uint32_t>(siblings.size()));
  for (const auto& d : siblings) append(out, d);
  return out;
}

MerkleProof MerkleProof::deserialize(BytesView data) {
  ByteReader r(data, "MerkleProof::deserialize");
  MerkleProof p;
  p.leaf_index = r.u64();
  const std::size_t n = r.count(32);
  p.siblings.reserve(n);
  for (std::size_t i = 0; i < n; ++i) p.siblings.push_back(r.digest());
  r.finish();
  return p;
}

XmssKeyPair::XmssKeyPair(const Digest& seed, unsigned height)
    : seed_(seed), height_(height) {
  if (height > 20) {
    throw std::invalid_argument("XmssKeyPair: height too large (max 20)");
  }
  const std::uint64_t n = std::uint64_t{1} << height;
  std::vector<Digest> leaves;
  leaves.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto sk = wots::keygen_secret(seed_, i);
    leaves.push_back(wots::derive_public(sk).compressed);
  }
  tree_.emplace(std::move(leaves));
}

XmssSignature XmssKeyPair::sign(const Digest& message) {
  if (exhausted()) {
    throw std::runtime_error("XmssKeyPair::sign: one-time keys exhausted");
  }
  const std::uint64_t leaf = next_leaf_++;
  XmssSignature sig;
  sig.leaf_index = leaf;
  sig.ots = wots::sign(wots::keygen_secret(seed_, leaf), message);
  sig.auth_path = tree_->prove(leaf);
  return sig;
}

bool XmssKeyPair::verify(const Digest& public_root, const Digest& message,
                         const XmssSignature& sig) {
  if (sig.auth_path.leaf_index != sig.leaf_index) return false;
  const wots::PublicKey implied = wots::recover_public(sig.ots, message);
  return MerkleTree::verify(public_root, implied.compressed, sig.auth_path);
}

Bytes XmssSignature::serialize() const {
  Bytes out;
  append_u64(out, leaf_index);
  const Bytes ots_bytes = ots.serialize();
  append_blob(out, BytesView{ots_bytes.data(), ots_bytes.size()});
  const Bytes path = auth_path.serialize();
  append_blob(out, BytesView{path.data(), path.size()});
  return out;
}

XmssSignature XmssSignature::deserialize(BytesView data) {
  ByteReader r(data, "XmssSignature::deserialize");
  XmssSignature sig;
  sig.leaf_index = r.u64();
  sig.ots = wots::Signature::deserialize(r.blob());
  sig.auth_path = MerkleProof::deserialize(r.blob());
  r.finish();
  return sig;
}

std::size_t XmssSignature::wire_size() const { return serialize().size(); }

}  // namespace pera::crypto
