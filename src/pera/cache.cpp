#include "pera/cache.h"

#include <algorithm>
#include <iterator>

#include "obs/obs.h"

namespace pera::pera {

const CachedEvidence* EvidenceCache::lookup(nac::DetailMask detail,
                                            const crypto::Nonce& nonce,
                                            const MeasurementUnit& mu,
                                            const CacheVariant& variant) {
  if (!enabled_) {
    ++stats_.misses;
    PERA_OBS_COUNT("pera.cache.miss");
    return nullptr;
  }
  // Packet-level evidence is never cacheable by construction.
  if (nac::has_detail(detail, nac::EvidenceDetail::kPacket)) {
    ++stats_.misses;
    PERA_OBS_COUNT("pera.cache.miss");
    PERA_OBS_EVENT(obs::SpanKind::kCacheMiss, "pera.cache.uncacheable", 0,
                   detail);
    return nullptr;
  }
  const auto it = entries_.find(Key{detail, nonce.value, variant});
  if (it == entries_.end()) {
    ++stats_.misses;
    PERA_OBS_COUNT("pera.cache.miss");
    PERA_OBS_EVENT(obs::SpanKind::kCacheMiss, "pera.cache.cold", 0, detail);
    return nullptr;
  }
  for (std::size_t i = 0; i < std::size(nac::kAllLevels); ++i) {
    const nac::EvidenceDetail level = nac::kAllLevels[i];
    if (nac::has_detail(detail, level) &&
        mu.epoch(level) != it->second.epochs[i]) {
      ++stats_.misses;
      ++stats_.invalidations;
      if (!it->second.hit) forget_unhit(it);
      entries_.erase(it);
      PERA_OBS_COUNT("pera.cache.miss");
      PERA_OBS_COUNT("pera.cache.invalidation");
      PERA_OBS_EVENT(obs::SpanKind::kCacheMiss, "pera.cache.invalidated", 0,
                     detail);
      return nullptr;
    }
  }
  ++stats_.hits;
  PERA_OBS_COUNT("pera.cache.hit");
  PERA_OBS_EVENT(obs::SpanKind::kCacheHit, "pera.cache", 0, detail);
  if (!it->second.hit) {
    it->second.hit = true;
    forget_unhit(it);
  }
  CachedEvidence& cached = it->second.cached;
  if (cached.encoded.empty()) cached.encoded = copland::encode(cached.evidence);
  return &cached;
}

void EvidenceCache::store(nac::DetailMask detail, const crypto::Nonce& nonce,
                          copland::EvidencePtr evidence,
                          const MeasurementUnit& mu, CacheVariant variant) {
  if (!enabled_) return;
  if (nac::has_detail(detail, nac::EvidenceDetail::kPacket)) return;
  const auto [it, added] =
      entries_.try_emplace(Key{detail, nonce.value, std::move(variant)});
  Entry& entry = it->second;
  entry.cached = CachedEvidence{std::move(evidence), {}};
  for (std::size_t i = 0; i < std::size(nac::kAllLevels); ++i) {
    if (nac::has_detail(detail, nac::kAllLevels[i])) {
      entry.epochs[i] = mu.epoch(nac::kAllLevels[i]);
    }
  }
  if (added) {
    unhit_.push_back(it);
    if (unhit_.size() > kRecurrenceWindow) {
      entries_.erase(unhit_.front());
      unhit_.pop_front();
    }
  }
  PERA_OBS_GAUGE("pera.cache.entries",
                 static_cast<std::int64_t>(entries_.size()));
}

void EvidenceCache::forget_unhit(Entries::iterator it) {
  unhit_.erase(std::find(unhit_.begin(), unhit_.end(), it));
}

}  // namespace pera::pera
