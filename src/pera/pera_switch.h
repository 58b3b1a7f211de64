// PERA — "PISA Extended with RA" (Fig. 2, §5).
//
// A PeraSwitch wraps a dataplane::PisaSwitch with the evidence-handling
// blocks of Fig. 3: it parses the RA options header riding on flow
// traffic (A), runs the ordinary match+action pipeline (B/C), and when the
// policy and sampler say so, creates/composes evidence (E) and signs it
// (D), either appending it in-band to the packet's carrier or emitting it
// out-of-band toward the appraiser.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dataplane/builder.h"
#include "dataplane/program.h"
#include "pera/batcher.h"
#include "pera/engine.h"

namespace pera::pera {

/// Per-switch RA statistics (on top of dataplane::SwitchStats).
struct PeraStats {
  std::uint64_t attestations = 0;
  std::uint64_t skipped_by_sampling = 0;
  std::uint64_t guard_failures = 0;
  std::uint64_t out_of_band_messages = 0;
  std::uint64_t inband_bytes_added = 0;
  netsim::SimTime ra_time_total = 0;
};

/// Evidence leaving the packet path (Fig. 2 ➁ out-of-band).
struct OutOfBandEvidence {
  std::string to;  // appraiser place name
  crypto::Bytes evidence;
  crypto::Nonce nonce{};
};

/// Result of processing one packet.
struct PeraResult {
  std::optional<dataplane::RawPacket> forwarded;
  std::vector<OutOfBandEvidence> out_of_band;
  netsim::SimTime ra_latency = 0;
  std::size_t inband_bytes_added = 0;
  bool attested = false;
};

class PeraSwitch {
 public:
  PeraSwitch(std::string name,
             std::shared_ptr<dataplane::DataplaneProgram> program,
             crypto::Signer& signer, PeraConfig config = {},
             HardwareIdentity hw = {});

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] dataplane::PisaSwitch& dataplane() { return switch_; }
  [[nodiscard]] const dataplane::PisaSwitch& dataplane() const {
    return switch_;
  }
  [[nodiscard]] MeasurementUnit& measurement() { return mu_; }
  [[nodiscard]] const MeasurementUnit& measurement() const { return mu_; }
  [[nodiscard]] EvidenceCache& cache() { return cache_; }
  [[nodiscard]] const EvidenceCache& cache() const { return cache_; }
  [[nodiscard]] EvidenceEngine& engine() { return engine_; }
  [[nodiscard]] const PeraStats& ra_stats() const { return stats_; }
  [[nodiscard]] const PeraConfig& config() const { return config_; }
  [[nodiscard]] PeraConfig& config() { return config_; }

  // --- control plane ------------------------------------------------------
  /// Swap the dataplane program. The switch's load count moves every
  /// level's epoch, so cached evidence expires at once; this is how RA
  /// catches the swap. dataplane().load_program does the same.
  void load_program(std::shared_ptr<dataplane::DataplaneProgram> program);

  /// Add a table entry at runtime (the table's revision moves the Tables
  /// epoch, as any other edit of its content does). Throws
  /// std::invalid_argument, changing nothing, when the program cannot
  /// run it (DataplaneProgram::check_entry).
  void update_table(const std::string& table, dataplane::TableEntry entry);

  /// Register a named guard test evaluated against the current packet
  /// (the Khop / P predicates of Table 1).
  using PacketGuard = std::function<bool(const dataplane::ParsedPacket&)>;
  void set_guard(const std::string& name, PacketGuard guard);

  // --- data path -----------------------------------------------------------
  /// Process a packet carrying an optional RA header/carrier.
  /// `header`/`carrier` are updated in place when evidence rides in-band.
  [[nodiscard]] PeraResult process(const dataplane::RawPacket& in,
                                   const nac::PolicyHeader* header,
                                   nac::EvidenceCarrier* carrier);

  /// Force-flush evidence deferred by the out-of-band batcher (end of a
  /// measurement interval, pipeline drain). Returns the signed records;
  /// empty when nothing is pending or batching is off.
  [[nodiscard]] std::vector<OutOfBandEvidence> flush_pending();

  /// Items currently queued in the out-of-band batcher.
  [[nodiscard]] std::size_t pending_oob() const { return pending_oob_.size(); }

  // --- direct attestation (Fig. 2, out-of-band challenge) ------------------
  /// Respond to an RP's challenge: attest `detail` levels bound to
  /// `nonce`, hash-then-sign (expression (3)'s  attest -> # -> !).
  [[nodiscard]] copland::EvidencePtr attest_challenge(
      nac::DetailMask detail, const crypto::Nonce& nonce,
      bool hash_before_sign = true);

 private:
  [[nodiscard]] bool sampler_fires(const crypto::Digest& flow_key,
                                   std::uint8_t sampling_log2);
  /// Wrap every pending item in its batch receipt as signature evidence,
  /// encode it onto `out` and clear the queue. Callers account the cost.
  void emit_batch(const std::vector<BatchedSignature>& receipts,
                  std::vector<OutOfBandEvidence>& out);

  std::string name_;
  dataplane::PisaSwitch switch_;
  PeraConfig config_;
  MeasurementUnit mu_;
  EvidenceCache cache_;
  EvidenceEngine engine_;
  PeraStats stats_;
  std::map<std::string, PacketGuard> guards_;
  std::map<crypto::Digest, std::uint64_t> flow_counters_;
  dataplane::ParsedPacket packet_;  // process() parses into it, reusing it

  // Deferred out-of-band signing (config_.oob_batch_size > 1).
  std::optional<EvidenceBatcher> batcher_;
  struct PendingOob {
    std::string to;
    copland::EvidencePtr evidence;  // unsigned; wrapped at flush
    crypto::Nonce nonce;
  };
  std::vector<PendingOob> pending_oob_;
};

}  // namespace pera::pera
