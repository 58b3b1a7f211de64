// Inertia-aware evidence cache (§5.2: "High-inertia attestations are more
// easily cached since they take longer to expire").
//
// An entry is keyed on (detail, nonce, instruction variant) and records
// the epoch of every detail level it covers; a lookup hits while all those
// epochs are unchanged. Fresh challenges intentionally defeat caching (the
// freshness/overhead trade-off Fig. 4 describes): their nonces never
// recur. So only an entry whose nonce has recurred (it was hit, as a
// flow's policy nonce is on the flow's next attested packet) is kept until
// an epoch moves. An entry never hit is dropped after kRecurrenceWindow
// newer entries have been stored, so a run of fresh nonces costs that
// many entries and not one per round, while up to that many repeating
// nonces may interleave before their first recurrence.
// A fresh-nonce round still reuses the measurements: the MeasurementUnit
// memoises each level's digest on its epoch.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
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

  /// Entries never hit that the cache holds at most; the oldest goes
  /// first. One such entry is a signed bundle of about 2 KB at Program
  /// detail, so fresh nonces hold about 0.5 MB per switch.
  static constexpr std::size_t kRecurrenceWindow = 256;

  /// Look up cached evidence for (detail mask, nonce, instruction
  /// variant). Returns the entry, encoding included, when present and
  /// every covered level's epoch still matches, else nullptr. The pointer
  /// is valid until the next store, lookup or clear.
  [[nodiscard]] const CachedEvidence* lookup(nac::DetailMask detail,
                                             const crypto::Nonce& nonce,
                                             const MeasurementUnit& mu,
                                             const CacheVariant& variant = {});

  /// Store evidence with the current epochs of its covered levels. The
  /// new entry drops the oldest entry never hit once more than
  /// kRecurrenceWindow are held.
  void store(nac::DetailMask detail, const crypto::Nonce& nonce,
             copland::EvidencePtr evidence, const MeasurementUnit& mu,
             CacheVariant variant = {});

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void clear() {
    entries_.clear();
    unhit_.clear();
  }

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
    bool hit = false;  // its nonce has recurred: kept until an epoch moves
  };
  using Entries = std::map<Key, Entry>;

  // Stops listing `it` among the entries never hit.
  void forget_unhit(Entries::iterator it);

  bool enabled_;
  Entries entries_;
  std::deque<Entries::iterator> unhit_;  // entries never hit, oldest first
  CacheStats stats_;
};

}  // namespace pera::pera
