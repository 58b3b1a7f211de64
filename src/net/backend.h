// Socket delivery backend for ctrl::EvidenceTransport.
//
// SocketBackend holds one relying-party session to the appraiser server
// and a loop thread. Challenges become ChallengeFrames the server relays
// to the named switch; the switch's evidence is appraised and the signed
// certificate is routed back down this session, where the loop thread
// hands it to the result sink (normally EvidenceTransport::on_result).
// Retry timers run on the same loop thread against the wall clock, so an
// EvidenceTransport driven through post() is single-threaded end to end —
// the same round logic the simulator runs, over real sockets.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ctrl/transport.h"
#include "net/session.h"
#include "net/socket.h"

namespace pera::net {

class SocketBackend final : public ctrl::TransportBackend {
 public:
  struct Config {
    std::uint16_t port = 0;
    /// The relying party's claimed place (server-side session label).
    std::string place = "relying_party";
    int connect_timeout_ms = 2000;
    /// Mutual mode: demand and verify the appraiser's counter-quote.
    bool mutual = false;
    crypto::Digest cert_key{};
    crypto::Digest appraiser_golden{};
    std::uint64_t nonce_seed = 0xBACC'0001;
  };

  explicit SocketBackend(Config config);
  ~SocketBackend() override;

  SocketBackend(const SocketBackend&) = delete;
  SocketBackend& operator=(const SocketBackend&) = delete;

  /// Certificates arriving on the session are handed to `sink` on the
  /// loop thread. Set before connect().
  void set_result_sink(std::function<void(const ra::Certificate&)> sink);

  /// Connect and run the RP handshake on the calling thread, then start
  /// the loop thread. False on connect failure or rejection.
  bool connect();

  /// Run `fn` on the loop thread. Drive every EvidenceTransport call
  /// (begin_round, stats reads racing timers) through here: timers and
  /// result delivery run on the loop thread, so routing the rest through
  /// post() keeps the transport single-threaded.
  void post(std::function<void()> fn);

  /// Stop the loop thread and close the session. Idempotent.
  void stop();

  [[nodiscard]] bool established() const {
    return established_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const std::string& error_text() const { return error_; }

  // TransportBackend — loop thread only (or pre-loop, via post()).
  void send_challenge(const std::string& place,
                      const core::Challenge& ch) override;
  void schedule_in(netsim::SimTime delay, std::function<void()> fn) override;
  [[nodiscard]] netsim::SimTime now() override;

 private:
  struct Timer {
    std::int64_t at = 0;
    std::uint64_t seq = 0;  // tie-break: FIFO among equal deadlines
    std::function<void()> fn;
  };
  /// Timer heap order: earliest deadline on top.
  static bool fires_later(const Timer& a, const Timer& b);

  void run_loop();
  void try_flush();
  void lose_connection();
  void wake();

  Config config_;
  crypto::NonceRegistry nonces_;
  std::function<void(const ra::Certificate&)> sink_;
  Link link_;
  Fd wake_fd_;
  std::unique_ptr<ClientSession> session_;
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> established_{false};
  std::string error_;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;

  // Loop-thread-only timer min-heap (by at, then seq).
  std::vector<Timer> timers_;
  std::uint64_t next_timer_seq_ = 0;
};

}  // namespace pera::net
