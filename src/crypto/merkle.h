// Merkle trees and an XMSS-style many-time signature scheme.
//
// MerkleTree is also used on its own by the evidence engine to commit to
// table contents (a PERA switch attests the Merkle root of its match-action
// tables rather than shipping every entry).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/sha256.h"
#include "crypto/wots.h"

namespace pera::crypto {

/// Authentication path for one leaf: sibling digests bottom-up.
struct MerkleProof {
  std::uint64_t leaf_index = 0;
  std::vector<Digest> siblings;

  [[nodiscard]] Bytes serialize() const;
  /// Throws std::invalid_argument on malformed input.
  [[nodiscard]] static MerkleProof deserialize(BytesView data);
};

/// Binary Merkle tree over pre-hashed leaves. Odd nodes are promoted
/// (duplicated-free: the unpaired node moves up unchanged).
class MerkleTree {
 public:
  /// Build from leaf digests. An empty tree has the all-zero root.
  explicit MerkleTree(std::vector<Digest> leaves);

  [[nodiscard]] const Digest& root() const { return root_; }
  [[nodiscard]] std::size_t leaf_count() const { return levels_.empty() ? 0 : levels_[0].size(); }

  /// Authentication path for leaf `index`. Throws std::out_of_range.
  [[nodiscard]] MerkleProof prove(std::uint64_t index) const;

  /// Recompute the root implied by (leaf, proof).
  [[nodiscard]] static Digest root_from_proof(const Digest& leaf,
                                              const MerkleProof& proof);

  /// Full verification against a known root.
  [[nodiscard]] static bool verify(const Digest& root, const Digest& leaf,
                                   const MerkleProof& proof);

 private:
  std::vector<std::vector<Digest>> levels_;  // levels_[0] = leaves
  Digest root_{};
};

/// XMSS-style many-time signature: a Merkle tree over 2^height WOTS public
/// keys. The signer is *stateful* — each signature consumes one leaf.
struct XmssSignature {
  std::uint64_t leaf_index = 0;
  wots::Signature ots;
  MerkleProof auth_path;

  [[nodiscard]] Bytes serialize() const;
  /// Throws std::invalid_argument on malformed input.
  [[nodiscard]] static XmssSignature deserialize(BytesView data);
  [[nodiscard]] std::size_t wire_size() const;
};

class XmssKeyPair {
 public:
  /// Generate a keypair with 2^height one-time keys from `seed`.
  XmssKeyPair(const Digest& seed, unsigned height);

  [[nodiscard]] const Digest& public_root() const { return tree_->root(); }
  [[nodiscard]] std::uint64_t capacity() const { return std::uint64_t{1} << height_; }
  [[nodiscard]] std::uint64_t signatures_used() const { return next_leaf_; }
  [[nodiscard]] bool exhausted() const { return next_leaf_ >= capacity(); }

  /// Sign a message digest, consuming the next leaf.
  /// Throws std::runtime_error when the keypair is exhausted.
  [[nodiscard]] XmssSignature sign(const Digest& message);

  /// Verify a signature against a public root.
  [[nodiscard]] static bool verify(const Digest& public_root,
                                   const Digest& message,
                                   const XmssSignature& sig);

 private:
  Digest seed_{};
  unsigned height_;
  std::uint64_t next_leaf_ = 0;
  std::optional<MerkleTree> tree_;
};

}  // namespace pera::crypto
