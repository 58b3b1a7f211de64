// Evidence terms — the values Copland evaluation produces.
//
// Evidence mirrors the structure of the term that produced it: measurements
// accumulate, `!` wraps evidence in a signature, `#` collapses evidence to
// its digest, branches pair up the evidence of their arms. Evidence has a
// canonical byte encoding; its SHA-256 is what gets signed and what the
// appraiser recomputes.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/nonce.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"

namespace pera::copland {

struct Evidence;
using EvidencePtr = std::shared_ptr<const Evidence>;

enum class EvidenceKind : std::uint8_t {
  kEmpty = 0,
  kMeasurement = 1,  // asp measured target at place -> value
  kNonce = 2,        // freshness token bound into the evidence
  kSignature = 3,    // place signed child evidence
  kHashed = 4,       // child evidence collapsed to its digest
  kSeq = 5,          // ordered pair (left before right)
  kPar = 6,          // unordered pair
  kFuncOut = 7,      // output of a named function applied to child evidence
};

struct Evidence {
  EvidenceKind kind = EvidenceKind::kEmpty;

  // kMeasurement
  std::string asp;
  std::string target;
  std::string place;           // where the measurement/signature happened
  crypto::Digest value{};      // measured value (e.g. program digest)
  std::string claim;           // human-readable claim text

  // kNonce
  crypto::Nonce nonce{};

  // kSignature / kHashed / kFuncOut
  EvidencePtr child;
  crypto::Signature sig;       // kSignature
  crypto::Digest hash_value{}; // kHashed: digest of the collapsed child

  // kFuncOut
  std::string func;
  crypto::Bytes output;

  // kSeq / kPar
  EvidencePtr left;
  EvidencePtr right;

  // --- factories ---------------------------------------------------------
  static EvidencePtr empty();
  static EvidencePtr measurement(std::string asp, std::string place,
                                 std::string target, crypto::Digest value,
                                 std::string claim);
  static EvidencePtr nonce_ev(crypto::Nonce n);
  static EvidencePtr signature(std::string place, EvidencePtr child,
                               crypto::Signature sig);
  static EvidencePtr hashed(std::string place, crypto::Digest value);
  static EvidencePtr seq(EvidencePtr l, EvidencePtr r);
  static EvidencePtr par(EvidencePtr l, EvidencePtr r);
  static EvidencePtr func_out(std::string func, std::string place,
                              EvidencePtr input, crypto::Bytes output);

  /// Extend accumulated evidence with a new item: Empty + x = x,
  /// otherwise Seq(acc, x). This is the evidence-accumulation rule the
  /// evaluator uses for measurements in a pipeline.
  static EvidencePtr extend(const EvidencePtr& acc, EvidencePtr item);
};

/// Canonical byte encoding (self-delimiting, deterministic).
[[nodiscard]] crypto::Bytes encode(const EvidencePtr& e);

/// Deepest evidence tree decode() accepts, counted in nodes from the root
/// to a leaf. Decoding recurses once per level, so attacker-supplied
/// nesting (a buffer of `seq` tags) must stop here, well inside any
/// thread's stack.
inline constexpr std::size_t kMaxEvidenceDepth = 256;

/// Decode evidence from its canonical encoding.
/// Throws std::invalid_argument on malformed input, including trees
/// deeper than kMaxEvidenceDepth.
[[nodiscard]] EvidencePtr decode(crypto::BytesView data);

/// Digest of the canonical encoding — the value `!` signs and `#` keeps.
[[nodiscard]] crypto::Digest digest(const EvidencePtr& e);

/// Wire size of the canonical encoding.
[[nodiscard]] std::size_t wire_size(const EvidencePtr& e);

/// Number of nodes.
[[nodiscard]] std::size_t node_count(const EvidencePtr& e);

/// Human-readable multi-line rendering for logs and examples.
[[nodiscard]] std::string describe(const EvidencePtr& e);

/// Deep structural equality.
[[nodiscard]] bool equal(const EvidencePtr& a, const EvidencePtr& b);

/// Collect all measurement nodes (pre-order).
[[nodiscard]] std::vector<const Evidence*> measurements_of(const EvidencePtr& e);

/// Collect all signature nodes (pre-order).
[[nodiscard]] std::vector<const Evidence*> signatures_of(const EvidencePtr& e);

/// Collect all nonce nodes (pre-order).
[[nodiscard]] std::vector<const Evidence*> nonces_of(const EvidencePtr& e);

/// Order-preserving balanced `par` fold: adjacent items are paired level
/// by level, an unpaired trailing item is promoted unchanged — the same
/// build rule as the Merkle tree, so the fold of n items has depth
/// ceil(log2 n) instead of n. Empty input folds to Evidence::empty().
[[nodiscard]] EvidencePtr fold_par(std::vector<EvidencePtr> items);

/// Canonical fold: items are sorted by canonical encoding before folding,
/// so every permutation of the same item multiset folds to byte-identical
/// evidence. This is what makes delegated composition trees comparable —
/// two appraisers that saw the same per-switch evidence in different
/// arrival orders produce the same aggregate digest.
[[nodiscard]] EvidencePtr fold_par_canonical(std::vector<EvidencePtr> items);

}  // namespace pera::copland
