// Inertia-aware evidence cache (§5.2: "High-inertia attestations are more
// easily cached since they take longer to expire").
//
// A cached entry records the epoch of every detail level it covers; it is
// valid while all those epochs are unchanged. Nonce-bound evidence keys on
// the nonce too — fresh challenges intentionally defeat caching, which is
// exactly the freshness/overhead trade-off Fig. 4 describes.
#pragma once

#include <array>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "copland/evidence.h"
#include "crypto/nonce.h"
#include "nac/detail.h"
#include "pera/measurement.h"

namespace pera::pera {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;  // misses caused by epoch change

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// A cached attestation: the evidence tree and its canonical encoding
/// (copland::encode of the tree). The encoding is made once, on the
/// entry's first hit, so entries that are never hit (fresh nonces) hold
/// no second copy of their evidence.
struct CachedEvidence {
  copland::EvidencePtr evidence;
  crypto::Bytes encoded;
};

/// What besides detail and nonce tells two instructions' evidence apart:
/// their hash/sign flags and their custom attestation targets.
struct CacheVariant {
  std::uint8_t flags = 0;  // bit 0: hash_evidence, bit 1: sign_evidence
  std::vector<std::string> custom_targets;

  auto operator<=>(const CacheVariant&) const = default;
};

class EvidenceCache {
 public:
  explicit EvidenceCache(bool enabled = true) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Look up cached evidence for (detail mask, nonce, instruction
  /// variant). Returns the entry, encoding included, when present and
  /// every covered level's epoch still matches, else nullptr. The pointer
  /// is valid until the next store, lookup or clear.
  [[nodiscard]] const CachedEvidence* lookup(nac::DetailMask detail,
                                             const crypto::Nonce& nonce,
                                             const MeasurementUnit& mu,
                                             const CacheVariant& variant = {});

  /// Store evidence with the current epochs of its covered levels.
  void store(nac::DetailMask detail, const crypto::Nonce& nonce,
             copland::EvidencePtr evidence, const MeasurementUnit& mu,
             CacheVariant variant = {});

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  struct Key {
    nac::DetailMask detail;
    crypto::Digest nonce;
    CacheVariant variant;
    auto operator<=>(const Key&) const = default;
  };
  struct Entry {
    CachedEvidence cached;
    // Epoch of each of nac::kAllLevels the key's detail covers.
    std::array<std::uint64_t, std::size(nac::kAllLevels)> epochs{};
  };

  bool enabled_;
  std::map<Key, Entry> entries_;
  CacheStats stats_;
};

}  // namespace pera::pera
