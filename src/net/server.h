// Epoll appraiser server: real-socket evidence transport at connection
// scale.
//
// Architecture (one process):
//
//   listen fd ── reactor 0 ──┐  read → frame → appraise → certify → write,
//                reactor 1 ──┤  all on the reactor that owns the connection
//                reactor k ──┘
//                   │  ▲
//                   └──┘ inboxes: adopted connections, relayed challenges,
//                        certificates for a relying party on another session
//
//  * N single-threaded level-triggered epoll reactors, and no other
//    server thread. Reactor 0 owns the listen socket and deals new
//    connections round-robin; handing a connection to another reactor
//    goes through that reactor's mutex-protected inbox plus an eventfd
//    wake. Each connection lives on exactly one reactor for its whole
//    life, so per-conn state is single-threaded.
//  * Per-connection ServerSession (sans-I/O) does the frame decoding and
//    RA handshake. The reactor that read an evidence round appraises it
//    (pipeline::appraise_record against the server's one VerifierSet),
//    signs its certificate with that reactor's certificate signer and
//    queues it on the session. Only a round that answers a relayed
//    challenge leaves the reactor: its finished certificate is posted to
//    the reactor of the relying-party session that asked for it.
//  * Each connection moves its bytes through a `Link` (socket.h), the
//    driver every endpoint shares: session output is queued as chunks
//    and flushed with writev; reads run until the socket drains. A
//    connection owing more than kWriteBufferLimit bytes has EPOLLIN
//    paused until the peer drains it below kWriteBufferResume — slow
//    readers stall themselves, not the server.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "crypto/nonce.h"
#include "crypto/signer.h"
#include "net/session.h"
#include "net/socket.h"
#include "pipeline/reassembler.h"

namespace pera::net {

struct ServerConfig {
  std::uint16_t port = 0;  // 0 = ephemeral; see AppraiserServer::port()
  std::size_t reactors = 1;
  /// Ignored: the reactors appraise. Kept so existing callers compile.
  std::size_t appraiser_workers = 1;
  std::uint64_t nonce_seed = 0xC0C0'0001;

  /// Evidence verification: derived device keys shared with the fleet
  /// (PeraPipeline::shard_keys(evidence_root_key, evidence_key_label, n)).
  crypto::Digest evidence_root_key{};
  std::string evidence_key_label = "pera.net.device";
  std::size_t evidence_max_shards = 16;

  /// Handshake: per-place quote keys derive from quote_root_key
  /// (derive_quote_key); a quote is good when its signature verifies
  /// under its place's derived key AND its measurement equals
  /// golden_measurement AND (when known_places is non-empty) its place is
  /// listed.
  crypto::Digest quote_root_key{};
  crypto::Digest golden_measurement{};
  std::vector<std::string> known_places;

  /// Appraiser identity key: signs result certificates and (mutual mode)
  /// counter-quotes. Shared with clients the same way the sim shares the
  /// appraiser's KeyStore entry.
  crypto::Digest cert_key{};
  /// Measurement the appraiser claims in counter-quotes.
  crypto::Digest appraiser_measurement{};
};

/// Aggregate counters, readable from any thread while the server runs.
struct ServerStats {
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_rejected = 0;
  std::uint64_t sessions_open = 0;
  std::uint64_t rounds_appraised = 0;
  std::uint64_t results_sent = 0;
  std::uint64_t challenges_relayed = 0;
  std::uint64_t challenges_unrouted = 0;
  /// Relayed challenges still awaiting the switch's answer.
  std::uint64_t relay_routes = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t read_pauses = 0;
};

class AppraiserServer {
 public:
  /// Connections accepted beyond this many open sessions are closed at
  /// once, before any hello (net.server.accept_overflow).
  static constexpr std::size_t kMaxSessions = std::size_t{1} << 15;
  /// Pause a connection's reads above this many queued outbound bytes…
  static constexpr std::size_t kWriteBufferLimit = std::size_t{1} << 20;
  /// …and resume them below this.
  static constexpr std::size_t kWriteBufferResume = 256 * 1024;

  explicit AppraiserServer(ServerConfig config);
  ~AppraiserServer();

  AppraiserServer(const AppraiserServer&) = delete;
  AppraiserServer& operator=(const AppraiserServer&) = delete;

  /// Bind, provision the verifiers, spawn the reactors. Throws
  /// std::runtime_error when the listen socket cannot be created.
  void start();

  /// Close everything and join all threads. Idempotent.
  void stop();

  /// Bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] ServerStats stats() const;

  /// Block until `n` total evidence rounds have been appraised, with a
  /// wall-clock timeout. True when reached.
  bool wait_for_rounds(std::uint64_t n, int timeout_ms) const;

 private:
  struct Conn;
  struct Reactor;
  struct Inbound;

  void run_reactor(std::size_t idx);
  void accept_ready(Reactor& r);
  void adopt_conn(Reactor& r, int fd);
  void drain_inbox(Reactor& r);
  void conn_readable(Reactor& r, Conn& c);
  void after_progress(Reactor& r, Conn& c);
  void flush_writes(Reactor& r, Conn& c);
  void update_interest(Reactor& r, Conn& c);
  void close_conn(Reactor& r, std::uint64_t token);
  void post(std::size_t reactor_idx, Inbound&& item);
  [[nodiscard]] RejectReason check_quote(const Quote& q) const;

  static constexpr std::uint64_t kListenToken = ~0ULL;
  static constexpr std::uint64_t kWakeToken = ~0ULL - 1;
  static constexpr unsigned kTokenReactorShift = 48;

  ServerConfig config_;
  ServerSessionConfig session_config_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::unique_ptr<pipeline::VerifierSet> verifiers_;
  Fd listen_fd_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  bool started_ = false;

  // Server-global handshake state (any reactor may touch these).
  mutable std::mutex hello_mu_;
  crypto::NonceRegistry hello_nonces_;
  std::unique_ptr<crypto::Signer> counter_quote_signer_;

  // place -> switch session token, for challenge relay.
  mutable std::mutex place_mu_;
  std::map<std::string, std::uint64_t> place_index_;

  // challenge nonce -> relying-party session token, for result routing.
  mutable std::mutex route_mu_;
  std::map<crypto::Digest, std::uint64_t> relay_routes_;

  std::atomic<std::uint64_t> open_sessions_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> rounds_appraised_{0};
  std::atomic<std::uint64_t> results_sent_{0};
  std::atomic<std::uint64_t> relayed_{0};
  std::atomic<std::uint64_t> unrouted_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> read_pauses_{0};
};

}  // namespace pera::net
