// Switch-side socket clients.
//
//  * SwitchClient — one blocking connection: connect, RA handshake,
//    evidence rounds, challenge answering. Used by tools, tests and the
//    SocketBackend's per-place attester loops.
//  * SwitchFleet — an epoll load generator driving N concurrent
//    SwitchClient-equivalent sessions from one thread: a connection
//    storm to establish the fleet, then closed-loop evidence rounds with
//    a configurable pipeline depth per connection. This is what the
//    connection-scaling soak bench runs against the server.
//
// Both drive the same sans-I/O ClientSession the tests exercise.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/nonce.h"
#include "crypto/signer.h"
#include "net/session.h"
#include "net/socket.h"

namespace pera::net {

/// Who this switch claims to be and the keys that back the claim.
struct ClientIdentity {
  std::string place = "switch0";
  /// Quote-signing root shared with the server (derive_quote_key).
  crypto::Digest quote_root_key{};
  /// The measurement the quote claims. Admission requires it to equal
  /// the server's golden value.
  crypto::Digest measurement{};
  /// Evidence-signing device key (one of the derived shard keys the
  /// server's VerifierSet was provisioned with).
  crypto::Digest device_key{};
  bool mutual = false;
  /// Appraiser identity key (mutual mode: verifies the counter-quote;
  /// also verifies result certificates).
  crypto::Digest cert_key{};
  /// Expected appraiser measurement in the counter-quote (mutual mode).
  crypto::Digest appraiser_golden{};
  std::uint64_t nonce_seed = 0xFACE'0001;
};

/// Canonical switch evidence for one round: a signed (measurement ∥
/// nonce) sequence — the same shape the sim's attester produces, signed
/// with the device key so the server's VerifierSet resolves it by key
/// id.
[[nodiscard]] crypto::Bytes make_signed_evidence(
    const std::string& place, const crypto::Digest& measurement,
    const crypto::Nonce& nonce, crypto::Signer& signer);

/// Mutual mode's check of the appraiser's counter-quote: it verifies
/// under the appraiser identity key `cert_key` and claims `golden`.
[[nodiscard]] std::function<bool(const Quote&)> counter_quote_check(
    const crypto::Digest& cert_key, const crypto::Digest& golden);

// Blocking drive of a client session over a Link, shared by SwitchClient
// and SocketBackend. False when the connection failed: `error` says why,
// or the session's own error_text when it failed.

/// Connect `link` to `port` and run `session`'s handshake in `timeout_ms`.
bool connect_session(Link& link, ClientSession& session, std::uint16_t port,
                     int timeout_ms, std::string& error);

/// Write everything the session queued, waiting until `deadline_ns`.
bool flush_session(Link& link, ClientSession& session,
                   std::int64_t deadline_ns, std::string& error);

/// Flush, wait for input until `deadline_ns`, feed what arrived to the
/// session and flush any reply. True when nothing arrived in time.
bool pump_session(Link& link, ClientSession& session,
                  std::int64_t deadline_ns, std::string& error);

/// One blocking switch connection.
class SwitchClient {
 public:
  explicit SwitchClient(ClientIdentity identity);
  ~SwitchClient();

  SwitchClient(const SwitchClient&) = delete;
  SwitchClient& operator=(const SwitchClient&) = delete;

  /// Connect and run the RA handshake. False on connect failure,
  /// rejection, or timeout; see reject_reason()/error_text().
  bool connect(std::uint16_t port, int timeout_ms);

  /// One evidence round: fresh nonce, signed evidence, wait for the
  /// matching certificate.
  std::optional<ra::Certificate> round(int timeout_ms);

  /// Serve relayed challenges (and collect stray results) until
  /// `deadline_ms` elapses or `stop` goes true. Each relayed challenge
  /// is answered with evidence bound to the challenge nonce. Returns
  /// challenges answered.
  std::size_t serve(int deadline_ms, const std::atomic<bool>* stop = nullptr);

  /// Graceful bye + close.
  void close();

  [[nodiscard]] bool established() const {
    return session_ && session_->established();
  }
  [[nodiscard]] RejectReason reject_reason() const {
    return session_ ? session_->reject_reason() : RejectReason::kNone;
  }
  [[nodiscard]] const std::string& error_text() const;
  [[nodiscard]] ClientSession* session() { return session_.get(); }

 private:
  ClientIdentity identity_;
  std::unique_ptr<crypto::Signer> quote_signer_;
  std::unique_ptr<crypto::Signer> device_signer_;
  crypto::NonceRegistry nonces_;
  Link link_;
  std::unique_ptr<ClientSession> session_;
  std::string error_;
};

/// Connection-scaling load generator: N sessions, one epoll, one thread.
class SwitchFleet {
 public:
  struct Config {
    std::uint16_t port = 0;
    std::size_t connections = 64;
    /// Evidence rounds in flight per connection during run_rounds.
    std::size_t depth = 1;
    /// Places are "<place_prefix><i>"; device keys cycle through
    /// `device_keys` (derived shard keys, shared with the server).
    std::string place_prefix = "sw";
    std::vector<crypto::Digest> device_keys;
    crypto::Digest quote_root_key{};
    crypto::Digest measurement{};
    bool mutual = false;
    crypto::Digest cert_key{};
    crypto::Digest appraiser_golden{};
  };

  struct RunStats {
    std::size_t established = 0;
    std::uint64_t rounds_completed = 0;
    std::uint64_t verdict_failures = 0;
    std::uint64_t session_failures = 0;
    std::int64_t wall_ns = 0;
    /// Per-round latency samples, microseconds (all rounds).
    std::vector<float> latency_us;
  };

  explicit SwitchFleet(Config config);
  ~SwitchFleet();

  SwitchFleet(const SwitchFleet&) = delete;
  SwitchFleet& operator=(const SwitchFleet&) = delete;

  /// Connect + handshake every session. Returns sessions established.
  std::size_t establish(int timeout_ms);

  /// Closed-loop evidence rounds across all established sessions until
  /// `total_rounds` certificates arrive (or the deadline hits).
  RunStats run_rounds(std::uint64_t total_rounds, int timeout_ms);

  /// Sessions currently established.
  [[nodiscard]] std::size_t established_count() const;

  /// Send bye on every session and close.
  void shutdown();

 private:
  struct FleetConn;

  /// Connects outstanding at once during the connect storm.
  static constexpr std::size_t kConnectBurst = 256;

  void flush(FleetConn& c);
  bool receive(FleetConn& c);
  void send_round(FleetConn& c);
  void drop(FleetConn& c);

  Config config_;
  Fd epoll_;
  std::vector<std::unique_ptr<FleetConn>> conns_;
  std::vector<std::unique_ptr<crypto::Signer>> signers_;  // per device key
  std::uint64_t next_nonce_ = 1;
  RunStats run_stats_;
};

}  // namespace pera::net
