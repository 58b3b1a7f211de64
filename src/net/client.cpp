#include "net/client.h"

#include <sys/epoll.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "copland/evidence.h"
#include "obs/obs.h"

namespace pera::net {

crypto::Bytes make_signed_evidence(const std::string& place,
                                   const crypto::Digest& measurement,
                                   const crypto::Nonce& nonce,
                                   crypto::Signer& signer) {
  const copland::EvidencePtr content = copland::Evidence::seq(
      copland::Evidence::measurement("net_attest", place, "Program",
                                     measurement, "program measurement"),
      copland::Evidence::nonce_ev(nonce));
  const crypto::Signature sig = signer.sign(copland::digest(content));
  return copland::encode(copland::Evidence::signature(place, content, sig));
}

std::function<bool(const Quote&)> counter_quote_check(
    const crypto::Digest& cert_key, const crypto::Digest& golden) {
  return [cert_key, golden](const Quote& q) {
    return q.verify(crypto::HmacVerifier(cert_key)) && q.measurement == golden;
  };
}

// --- blocking session drive -----------------------------------------------

bool flush_session(Link& link, ClientSession& session,
                   std::int64_t deadline_ns, std::string& error) {
  link.queue(session.outbox());
  const IoStatus status = link.flush_until(deadline_ns);
  if (status == IoStatus::kOk) return true;
  error = status == IoStatus::kWouldBlock ? "write timeout" : "write failed";
  return false;
}

bool pump_session(Link& link, ClientSession& session,
                  std::int64_t deadline_ns, std::string& error) {
  if (!flush_session(link, session, deadline_ns, error)) return false;
  if (!link.wait_readable(deadline_ns)) return true;  // caller re-checks
  const IoResult res = link.read([&session](crypto::BytesView chunk) {
    return session.on_bytes(chunk);
  });
  if (res.status == IoStatus::kWouldBlock) {
    return flush_session(link, session, deadline_ns, error);
  }
  if (res.status != IoStatus::kOk) error = "connection closed";
  return false;  // kOk: the session refused the bytes and says why
}

bool connect_session(Link& link, ClientSession& session, std::uint16_t port,
                     int timeout_ms, std::string& error) {
  const std::int64_t deadline_ns = deadline_after_ms(timeout_ms);
  link = Link(connect_loopback_blocking(port, timeout_ms));
  if (!link.valid()) {
    error = "connect failed";
    return false;
  }
  session.start();
  while (!session.established()) {
    if (session.failed()) return false;
    if (remaining_ms(deadline_ns) == 0) {
      error = "handshake timeout";
      return false;
    }
    if (!pump_session(link, session, deadline_ns, error)) return false;
  }
  return true;
}

// --- SwitchClient -----------------------------------------------------------

SwitchClient::SwitchClient(ClientIdentity identity)
    : identity_(std::move(identity)),
      quote_signer_(std::make_unique<crypto::HmacSigner>(
          derive_quote_key(identity_.quote_root_key, identity_.place))),
      device_signer_(
          std::make_unique<crypto::HmacSigner>(identity_.device_key)),
      nonces_(identity_.nonce_seed) {}

SwitchClient::~SwitchClient() { close(); }

const std::string& SwitchClient::error_text() const {
  if (session_ && !session_->error_text().empty()) {
    return session_->error_text();
  }
  return error_;
}

bool SwitchClient::connect(std::uint16_t port, int timeout_ms) {
  ClientSessionConfig config;
  config.place = identity_.place;
  config.role = SessionRole::kSwitch;
  config.want_mutual = identity_.mutual;
  config.make_quote = [this](const crypto::Nonce& nonce) {
    return Quote::make(identity_.place, nonce, identity_.measurement,
                       *quote_signer_);
  };
  config.verify_counter_quote =
      counter_quote_check(identity_.cert_key, identity_.appraiser_golden);
  config.answer_challenge = [this](const core::Challenge& ch) {
    return make_signed_evidence(identity_.place, identity_.measurement,
                                ch.nonce, *device_signer_);
  };
  session_ = std::make_unique<ClientSession>(std::move(config),
                                             nonces_.issue());
  return connect_session(link_, *session_, port, timeout_ms, error_);
}

std::optional<ra::Certificate> SwitchClient::round(int timeout_ms) {
  if (!established()) return std::nullopt;
  const std::int64_t deadline = deadline_after_ms(timeout_ms);
  const crypto::Nonce nonce = nonces_.issue();
  const crypto::Bytes evidence = make_signed_evidence(
      identity_.place, identity_.measurement, nonce, *device_signer_);
  session_->send_evidence(nonce,
                          crypto::BytesView{evidence.data(), evidence.size()});
  if (!flush_session(link_, *session_, deadline, error_)) return std::nullopt;
  for (;;) {
    for (ra::Certificate& cert : session_->take_results()) {
      if (cert.nonce.value == nonce.value) return cert;
    }
    if (remaining_ms(deadline) == 0) return std::nullopt;
    if (!pump_session(link_, *session_, deadline, error_)) return std::nullopt;
  }
}

std::size_t SwitchClient::serve(int deadline_ms,
                                const std::atomic<bool>* stop) {
  if (!established()) return 0;
  const std::int64_t deadline = deadline_after_ms(deadline_ms);
  const std::uint64_t before = session_->challenges_answered();
  while (remaining_ms(deadline) > 0) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    const std::int64_t slice = std::min(deadline, deadline_after_ms(50));
    if (!pump_session(link_, *session_, slice, error_)) break;
    // Results stay queued on the session — relayed rounds' certificates go
    // to the relying party, so anything here is the caller's to collect.
  }
  return session_->challenges_answered() - before;
}

void SwitchClient::close() {
  if (session_ && link_.valid() && session_->established()) {
    session_->send_bye();
    (void)flush_session(link_, *session_, deadline_after_ms(100), error_);
  }
  link_.close();
}

// --- SwitchFleet ------------------------------------------------------------

struct SwitchFleet::FleetConn {
  Link link;
  std::size_t idx = 0;
  std::string place;
  std::unique_ptr<crypto::Signer> quote_signer;
  crypto::Signer* device_signer = nullptr;
  std::unique_ptr<ClientSession> session;
  std::deque<std::int64_t> inflight;  // send timestamps, FIFO per conn
  bool connected = false;

  [[nodiscard]] bool dead() const { return !link.valid(); }
};

SwitchFleet::SwitchFleet(Config config) : config_(std::move(config)) {
  if (config_.depth == 0) config_.depth = 1;
  if (config_.device_keys.empty()) config_.device_keys.push_back({});
  epoll_ = Fd(::epoll_create1(0));
  for (const crypto::Digest& key : config_.device_keys) {
    signers_.push_back(std::make_unique<crypto::HmacSigner>(key));
  }
}

SwitchFleet::~SwitchFleet() { shutdown(); }

std::size_t SwitchFleet::established_count() const {
  std::size_t n = 0;
  for (const auto& c : conns_) {
    if (c && !c->dead() && c->session && c->session->established()) ++n;
  }
  return n;
}

void SwitchFleet::drop(FleetConn& c) {
  if (c.dead()) return;
  c.link.close();  // epoll deregisters on close
  ++run_stats_.session_failures;
}

void SwitchFleet::flush(FleetConn& c) {
  c.link.queue(c.session->outbox());
  if (c.link.flush().status == IoStatus::kError) drop(c);
}

bool SwitchFleet::receive(FleetConn& c) {
  const IoResult res = c.link.read([&c](crypto::BytesView chunk) {
    return c.session->on_bytes(chunk);
  });
  if (res.status == IoStatus::kWouldBlock) return true;
  drop(c);
  return false;
}

std::size_t SwitchFleet::establish(int timeout_ms) {
  const std::int64_t deadline = deadline_after_ms(timeout_ms);
  ensure_fd_limit(config_.connections + 256);

  conns_.reserve(config_.connections);
  std::size_t launched = 0;
  std::size_t established = 0;
  std::size_t failed = 0;

  auto launch_next = [&] {
    if (launched >= config_.connections) return false;
    const std::size_t i = launched++;
    auto conn = std::make_unique<FleetConn>();
    conn->idx = i;
    conn->place = config_.place_prefix + std::to_string(i);
    conn->quote_signer = std::make_unique<crypto::HmacSigner>(
        derive_quote_key(config_.quote_root_key, conn->place));
    conn->device_signer = signers_[i % signers_.size()].get();
    try {
      conn->link = Link(connect_loopback(config_.port));
    } catch (const std::exception&) {
      ++failed;
      return true;
    }
    // Edge-triggered: a flush that leaves bytes queued hit EAGAIN, so the
    // kernel reports the socket again once it drains.
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    ev.data.u64 = i;
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn->link.fd(), &ev);
    if (conns_.size() <= i) conns_.resize(i + 1);
    conns_[i] = std::move(conn);
    return true;
  };

  // A connection that fails before its handshake completes makes room
  // for the next one.
  auto fail = [&](FleetConn& c) {
    drop(c);
    ++failed;
    launch_next();
  };
  for (std::size_t i = 0; i < kConnectBurst; ++i) {
    if (!launch_next()) break;
  }

  constexpr int kMaxEvents = 512;
  epoll_event events[kMaxEvents];
  while (established + failed < config_.connections) {
    const int wait = remaining_ms(deadline);
    if (wait == 0) break;
    const int n = ::epoll_wait(epoll_.get(), events, kMaxEvents,
                               std::min(wait, 100));
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const std::size_t idx = events[i].data.u64;
      if (idx >= conns_.size() || !conns_[idx] || conns_[idx]->dead()) continue;
      FleetConn& c = *conns_[idx];
      const std::uint32_t ev = events[i].events;
      if (!c.connected) {
        if ((ev & (EPOLLHUP | EPOLLERR)) != 0 ||
            ((ev & EPOLLOUT) != 0 && !connect_finished(c.link.fd()))) {
          fail(c);
          continue;
        }
        if ((ev & EPOLLOUT) == 0) continue;
        c.connected = true;
        set_nodelay(c.link.fd());
        ClientSessionConfig sc;
        sc.place = c.place;
        sc.role = SessionRole::kSwitch;
        sc.want_mutual = config_.mutual;
        crypto::Signer* qs = c.quote_signer.get();
        const crypto::Digest meas = config_.measurement;
        const std::string place = c.place;
        sc.make_quote = [qs, meas, place](const crypto::Nonce& nonce) {
          return Quote::make(place, nonce, meas, *qs);
        };
        sc.verify_counter_quote =
            counter_quote_check(config_.cert_key, config_.appraiser_golden);
        crypto::Nonce session_nonce;
        // Unique per (fleet run, conn): low bytes carry the index.
        std::memcpy(session_nonce.value.v.data(), &idx, sizeof(idx));
        session_nonce.value.v[8] = 0x5A;
        const std::uint64_t salt = next_nonce_++;
        std::memcpy(session_nonce.value.v.data() + 9, &salt, sizeof(salt));
        c.session = std::make_unique<ClientSession>(std::move(sc),
                                                    session_nonce);
        c.session->start();
        flush(c);
        if (c.dead()) fail(c);
        continue;
      }
      const bool was_established = c.session->established();
      if ((ev & EPOLLOUT) != 0) flush(c);
      if (!c.dead() && (ev & EPOLLIN) != 0 && receive(c)) flush(c);
      if (c.dead() || c.session->failed()) {
        fail(c);
      } else if (!was_established && c.session->established()) {
        ++established;
        launch_next();
      }
    }
  }
  return established;
}

void SwitchFleet::send_round(FleetConn& c) {
  crypto::Nonce nonce;
  const std::uint64_t seq = next_nonce_++;
  std::memcpy(nonce.value.v.data(), &seq, sizeof(seq));
  nonce.value.v[15] = 0xE1;
  const std::uint64_t idx = c.idx;
  std::memcpy(nonce.value.v.data() + 16, &idx, sizeof(idx));
  c.inflight.push_back(now_ns());
  // Signed over this round's nonce: the appraiser binds every round.
  c.session->send_evidence(
      nonce, make_signed_evidence(c.place, config_.measurement, nonce,
                                  *c.device_signer));
}

SwitchFleet::RunStats SwitchFleet::run_rounds(std::uint64_t total_rounds,
                                              int timeout_ms) {
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = deadline_after_ms(timeout_ms);
  run_stats_ = RunStats{};
  run_stats_.established = established_count();
  run_stats_.latency_us.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(total_rounds, 1 << 22)));

  std::uint64_t sent = 0;
  // Prime every established session up to the pipeline depth.
  for (auto& cp : conns_) {
    if (!cp || cp->dead() || !cp->session || !cp->session->established()) {
      continue;
    }
    for (std::size_t d = 0; d < config_.depth && sent < total_rounds; ++d) {
      send_round(*cp);
      ++sent;
    }
    flush(*cp);
  }

  constexpr int kMaxEvents = 512;
  epoll_event events[kMaxEvents];
  while (run_stats_.rounds_completed < total_rounds) {
    const int wait = remaining_ms(deadline);
    if (wait == 0) break;
    const int n = ::epoll_wait(epoll_.get(), events, kMaxEvents,
                               std::min(wait, 100));
    if (n < 0 && errno != EINTR) break;
    if (n == 0 && established_count() == 0) break;
    for (int i = 0; i < n; ++i) {
      const std::size_t idx = events[i].data.u64;
      if (idx >= conns_.size() || !conns_[idx] || conns_[idx]->dead()) continue;
      FleetConn& c = *conns_[idx];
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        drop(c);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) flush(c);
      if (c.dead()) continue;
      if ((events[i].events & EPOLLIN) != 0) {
        if (!receive(c)) continue;
        const std::int64_t t_now = now_ns();
        for (ra::Certificate& cert : c.session->take_results()) {
          if (!c.inflight.empty()) {
            const std::int64_t sent_at = c.inflight.front();
            c.inflight.pop_front();
            run_stats_.latency_us.push_back(
                static_cast<float>(t_now - sent_at) / 1000.0F);
          }
          ++run_stats_.rounds_completed;
          if (!cert.verdict) ++run_stats_.verdict_failures;
          if (sent < total_rounds) {
            send_round(c);
            ++sent;
          }
        }
        flush(c);
      }
    }
  }
  run_stats_.wall_ns = now_ns() - t0;
  run_stats_.established = established_count();
  return run_stats_;
}

void SwitchFleet::shutdown() {
  for (auto& cp : conns_) {
    if (!cp || cp->dead() || !cp->session) continue;
    if (cp->session->established()) {
      cp->session->send_bye();
      flush(*cp);
    }
  }
  conns_.clear();
}

}  // namespace pera::net
