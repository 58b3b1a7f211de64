#include "net/client.h"

#include <poll.h>
#include <sys/epoll.h>

#include <chrono>
#include <cstring>
#include <utility>

#include "copland/evidence.h"
#include "obs/obs.h"

namespace pera::net {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int remaining_ms(std::int64_t deadline_ns) {
  const std::int64_t left = deadline_ns - now_ns();
  if (left <= 0) return 0;
  return static_cast<int>(left / 1'000'000) + 1;
}

}  // namespace

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
  const std::int64_t deadline = now_ns() + std::int64_t(timeout_ms) * 1'000'000;
  fd_ = connect_loopback_blocking(port, timeout_ms);
  if (!fd_.valid()) {
    error_ = "connect failed";
    return false;
  }

  ClientSessionConfig config;
  config.place = identity_.place;
  config.role = SessionRole::kSwitch;
  config.want_mutual = identity_.mutual;
  config.make_quote = [this](const crypto::Nonce& nonce) {
    return Quote::make(identity_.place, nonce, identity_.measurement,
                       *quote_signer_);
  };
  config.verify_counter_quote = [this](const Quote& q) {
    const crypto::HmacVerifier v(identity_.cert_key);
    return q.verify(v) && q.measurement == identity_.appraiser_golden;
  };
  config.answer_challenge = [this](const core::Challenge& ch) {
    return make_signed_evidence(identity_.place, identity_.measurement,
                                ch.nonce, *device_signer_);
  };
  session_ = std::make_unique<ClientSession>(std::move(config),
                                             nonces_.issue());
  session_->start();
  if (!flush(remaining_ms(deadline))) return false;
  while (!session_->established()) {
    if (session_->failed() || remaining_ms(deadline) == 0) return false;
    if (!pump(remaining_ms(deadline))) return false;
  }
  return true;
}

bool SwitchClient::flush(int timeout_ms) {
  const std::int64_t deadline = now_ns() + std::int64_t(timeout_ms) * 1'000'000;
  crypto::Bytes& out = session_->outbox();
  std::size_t head = 0;
  while (head < out.size()) {
    const IoSlice slice{out.data() + head, out.size() - head};
    const IoResult res = write_vec(fd_.get(), &slice, 1);
    if (res.status == IoStatus::kOk) {
      head += res.bytes;
      continue;
    }
    if (res.status != IoStatus::kWouldBlock) {
      error_ = "write failed";
      return false;
    }
    pollfd p{fd_.get(), POLLOUT, 0};
    const int pr = ::poll(&p, 1, remaining_ms(deadline));
    if (pr <= 0) {
      error_ = "write timeout";
      return false;
    }
  }
  out.clear();
  return true;
}

bool SwitchClient::pump(int timeout_ms) {
  if (!flush(timeout_ms)) return false;
  pollfd p{fd_.get(), POLLIN, 0};
  const int pr = ::poll(&p, 1, timeout_ms);
  if (pr <= 0) return true;  // nothing arrived; caller re-checks deadline
  std::uint8_t buf[16 * 1024];
  const IoResult res = read_some(fd_.get(), buf, sizeof(buf));
  if (res.status == IoStatus::kWouldBlock) return true;
  if (res.status != IoStatus::kOk) {
    error_ = "connection closed";
    return false;
  }
  if (!session_->on_bytes(crypto::BytesView{buf, res.bytes})) return false;
  return flush(timeout_ms);
}

std::optional<ra::Certificate> SwitchClient::round(int timeout_ms) {
  if (!established()) return std::nullopt;
  const std::int64_t deadline = now_ns() + std::int64_t(timeout_ms) * 1'000'000;
  const crypto::Nonce nonce = nonces_.issue();
  const crypto::Bytes evidence = make_signed_evidence(
      identity_.place, identity_.measurement, nonce, *device_signer_);
  session_->send_evidence(nonce,
                          crypto::BytesView{evidence.data(), evidence.size()});
  if (!flush(remaining_ms(deadline))) return std::nullopt;
  for (;;) {
    for (ra::Certificate& cert : session_->take_results()) {
      if (cert.nonce.value == nonce.value) return cert;
    }
    if (remaining_ms(deadline) == 0) return std::nullopt;
    if (!pump(remaining_ms(deadline))) return std::nullopt;
  }
}

std::size_t SwitchClient::serve(int deadline_ms,
                                const std::atomic<bool>* stop) {
  if (!established()) return 0;
  const std::int64_t deadline = now_ns() +
                                std::int64_t(deadline_ms) * 1'000'000;
  const std::uint64_t before = session_->challenges_answered();
  while (remaining_ms(deadline) > 0) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    const int slice = std::min(remaining_ms(deadline), 50);
    if (!pump(slice)) break;
    // Results stay queued on the session — relayed rounds' certificates go
    // to the relying party, so anything here is the caller's to collect.
  }
  return session_->challenges_answered() - before;
}

void SwitchClient::close() {
  if (session_ && fd_.valid() && session_->established()) {
    session_->send_bye();
    (void)flush(100);
  }
  fd_.reset();
}

// --- SwitchFleet ------------------------------------------------------------

struct SwitchFleet::FleetConn {
  Fd fd;
  std::size_t idx = 0;
  std::string place;
  std::unique_ptr<crypto::Signer> quote_signer;
  crypto::Signer* device_signer = nullptr;
  std::unique_ptr<ClientSession> session;
  crypto::Bytes outq;
  std::size_t out_head = 0;
  std::deque<std::int64_t> inflight;  // send timestamps, FIFO per conn
  std::uint32_t interest = 0;
  bool connected = false;
  bool dead = false;
};

SwitchFleet::SwitchFleet(Config config) : config_(std::move(config)) {
  if (config_.depth == 0) config_.depth = 1;
  if (config_.device_keys.empty()) config_.device_keys.push_back({});
  epoll_ = Fd(::epoll_create1(0));
  for (const crypto::Digest& key : config_.device_keys) {
    signers_.push_back(std::make_unique<crypto::HmacSigner>(key));
  }
  read_buf_.resize(64 * 1024);
}

SwitchFleet::~SwitchFleet() { shutdown(); }

std::size_t SwitchFleet::established_count() const {
  std::size_t n = 0;
  for (const auto& c : conns_) {
    if (c && !c->dead && c->session && c->session->established()) ++n;
  }
  return n;
}

void SwitchFleet::update_interest(FleetConn& c) {
  std::uint32_t want = EPOLLIN;
  if (!c.connected || c.out_head < c.outq.size()) want |= EPOLLOUT;
  if (want == c.interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = c.idx;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, c.fd.get(), &ev) == 0) {
    c.interest = want;
  }
}

void SwitchFleet::drop(FleetConn& c) {
  if (c.dead) return;
  c.dead = true;
  c.fd.reset();  // epoll deregisters on close
  ++run_stats_.session_failures;
}

void SwitchFleet::pump_writes(FleetConn& c) {
  // Stage the session's queued frames, then write as much as the socket
  // takes.
  crypto::Bytes& outbox = c.session->outbox();
  if (!outbox.empty()) {
    if (c.out_head == c.outq.size()) {
      c.outq.clear();
      c.out_head = 0;
    }
    c.outq.insert(c.outq.end(), outbox.begin(), outbox.end());
    outbox.clear();
  }
  while (c.out_head < c.outq.size()) {
    const IoSlice slice{c.outq.data() + c.out_head,
                        c.outq.size() - c.out_head};
    const IoResult res = write_vec(c.fd.get(), &slice, 1);
    if (res.status == IoStatus::kWouldBlock) break;
    if (res.status != IoStatus::kOk) {
      drop(c);
      return;
    }
    c.out_head += res.bytes;
  }
  if (c.out_head == c.outq.size()) {
    c.outq.clear();
    c.out_head = 0;
  }
  update_interest(c);
}

bool SwitchFleet::read_into(FleetConn& c) {
  for (;;) {
    const IoResult res =
        read_some(c.fd.get(), read_buf_.data(), read_buf_.size());
    if (res.status == IoStatus::kWouldBlock) return true;
    if (res.status != IoStatus::kOk) {
      drop(c);
      return false;
    }
    if (!c.session->on_bytes(crypto::BytesView{read_buf_.data(), res.bytes})) {
      drop(c);
      return false;
    }
    if (res.bytes < read_buf_.size()) return true;
  }
}

std::size_t SwitchFleet::establish(int timeout_ms) {
  const std::int64_t deadline = now_ns() + std::int64_t(timeout_ms) * 1'000'000;
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
      conn->fd = connect_loopback(config_.port);
    } catch (const std::exception&) {
      ++failed;
      return true;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.u64 = i;
    conn->interest = EPOLLIN | EPOLLOUT;
    ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn->fd.get(), &ev);
    if (conns_.size() <= i) conns_.resize(i + 1);
    conns_[i] = std::move(conn);
    return true;
  };

  for (std::size_t i = 0; i < config_.connect_burst; ++i) {
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
      if (idx >= conns_.size() || !conns_[idx] || conns_[idx]->dead) continue;
      FleetConn& c = *conns_[idx];
      const bool was_established = c.session && c.session->established();
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 && !c.connected) {
        drop(c);
        ++failed;
        launch_next();
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !c.connected) {
        if (!connect_finished(c.fd.get())) {
          drop(c);
          ++failed;
          launch_next();
          continue;
        }
        c.connected = true;
        set_nodelay(c.fd.get());
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
        const crypto::Digest cert_key = config_.cert_key;
        const crypto::Digest golden = config_.appraiser_golden;
        sc.verify_counter_quote = [cert_key, golden](const Quote& q) {
          const crypto::HmacVerifier v(cert_key);
          return q.verify(v) && q.measurement == golden;
        };
        crypto::Nonce session_nonce;
        // Unique per (fleet run, conn): low bytes carry the index.
        std::memcpy(session_nonce.value.v.data(), &idx, sizeof(idx));
        session_nonce.value.v[8] = 0x5A;
        const std::uint64_t salt = next_nonce_++;
        std::memcpy(session_nonce.value.v.data() + 9, &salt, sizeof(salt));
        c.session = std::make_unique<ClientSession>(std::move(sc),
                                                    session_nonce);
        c.session->start();
        pump_writes(c);
        if (c.dead) {
          ++failed;
          launch_next();
        }
        continue;
      }
      if (!c.connected) continue;
      if ((events[i].events & EPOLLOUT) != 0) pump_writes(c);
      if (c.dead || !c.session) continue;
      if ((events[i].events & EPOLLIN) != 0) {
        if (!read_into(c)) {
          ++failed;
          launch_next();
          continue;
        }
        pump_writes(c);
      }
      if (!was_established && c.session->established()) {
        ++established;
        launch_next();
      } else if (c.session->failed()) {
        drop(c);
        ++failed;
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
  const std::int64_t deadline = now_ns() + std::int64_t(timeout_ms) * 1'000'000;
  const std::int64_t t0 = now_ns();
  run_stats_ = RunStats{};
  run_stats_.established = established_count();
  run_stats_.latency_us.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(total_rounds, 1 << 22)));

  std::uint64_t sent = 0;
  // Prime every established session up to the pipeline depth.
  for (auto& cp : conns_) {
    if (!cp || cp->dead || !cp->session || !cp->session->established()) {
      continue;
    }
    for (std::size_t d = 0; d < config_.depth && sent < total_rounds; ++d) {
      send_round(*cp);
      ++sent;
    }
    pump_writes(*cp);
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
      if (idx >= conns_.size() || !conns_[idx] || conns_[idx]->dead) continue;
      FleetConn& c = *conns_[idx];
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        drop(c);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) pump_writes(c);
      if (c.dead) continue;
      if ((events[i].events & EPOLLIN) != 0) {
        if (!read_into(c)) continue;
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
        pump_writes(c);
      }
    }
  }
  run_stats_.wall_ns = now_ns() - t0;
  run_stats_.established = established_count();
  return run_stats_;
}

void SwitchFleet::shutdown() {
  for (auto& cp : conns_) {
    if (!cp || cp->dead || !cp->session) continue;
    if (cp->session->established()) {
      cp->session->send_bye();
      pump_writes(*cp);
    }
    cp->fd.reset();
    cp->dead = true;
  }
  conns_.clear();
}

}  // namespace pera::net
