#include "net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"

namespace pera::net {

/// Names the appraiser in counter-quotes and result certificates.
constexpr const char* kAppraiserName = "appraiser";

/// Work posted across threads into a reactor: adopted connections (from
/// the accepting reactor), relayed challenges (from an RP session's
/// reactor) and the certificates that answer them (from the switch
/// session's reactor).
struct AppraiserServer::Inbound {
  enum class Kind : std::uint8_t { kNewConn, kResult, kChallenge, kStop };
  Kind kind = Kind::kStop;
  int fd = -1;                 // kNewConn
  std::uint64_t token = 0;     // kResult / kChallenge destination
  ra::Certificate cert;        // kResult
  ChallengeFrame challenge;    // kChallenge
};

struct AppraiserServer::Conn {
  explicit Conn(const ServerSessionConfig* config) : session(config) {}

  Link link;
  std::uint64_t token = 0;
  ServerSession session;
  std::uint32_t interest = 0;
  bool reads_paused = false;
  bool closing = false;        // close once the write queue drains
  bool place_registered = false;
  bool reject_counted = false;
  bool relay_target = false;   // has been sent a relayed challenge
};

struct AppraiserServer::Reactor {
  std::size_t idx = 0;
  Fd epoll;
  Fd wake;
  std::thread thread;
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_conn = 0;
  std::uint64_t rr_next = 0;  // reactor 0 only: round-robin dealing
  std::unique_ptr<crypto::Signer> cert_signer;
  std::mutex inbox_mu;
  std::vector<Inbound> inbox;
};

AppraiserServer::AppraiserServer(ServerConfig config)
    : config_(std::move(config)), hello_nonces_(config_.nonce_seed) {
  if (config_.reactors == 0) config_.reactors = 1;
  if (config_.reactors > 255) config_.reactors = 255;
}

AppraiserServer::~AppraiserServer() { stop(); }

RejectReason AppraiserServer::check_quote(const Quote& q) const {
  const std::vector<std::string>& known = config_.known_places;
  if (!known.empty() &&
      std::find(known.begin(), known.end(), q.place) == known.end()) {
    return RejectReason::kUnknownPlace;
  }
  const crypto::HmacVerifier v(derive_quote_key(config_.quote_root_key,
                                                q.place));
  if (!q.verify(v)) return RejectReason::kBadQuote;
  if (q.measurement != config_.golden_measurement) {
    return RejectReason::kBadQuote;
  }
  return RejectReason::kNone;
}

void AppraiserServer::start() {
  if (started_) return;
  started_ = true;

  listen_fd_ = listen_loopback(config_.port);
  port_ = local_port(listen_fd_.get());

  counter_quote_signer_ =
      std::make_unique<crypto::HmacSigner>(config_.cert_key);

  session_config_.check_quote = [this](const Quote& q) {
    return check_quote(q);
  };
  session_config_.admit_nonce = [this](const crypto::Nonce& n) {
    const std::lock_guard<std::mutex> lock(hello_mu_);
    return hello_nonces_.observe(n);
  };
  session_config_.make_server_nonce = [this] {
    const std::lock_guard<std::mutex> lock(hello_mu_);
    return hello_nonces_.issue();
  };
  session_config_.counter_quote = [this](const crypto::Nonce& client_nonce) {
    const std::lock_guard<std::mutex> lock(hello_mu_);
    return Quote::make(kAppraiserName, client_nonce,
                       config_.appraiser_measurement, *counter_quote_signer_);
  };

  verifiers_ = std::make_unique<pipeline::VerifierSet>(
      config_.evidence_root_key, config_.evidence_key_label,
      config_.evidence_max_shards);

  running_.store(true, std::memory_order_release);
  reactors_.reserve(config_.reactors);
  for (std::size_t i = 0; i < config_.reactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->idx = i;
    r->epoll = Fd(::epoll_create1(0));
    if (!r->epoll.valid()) throw std::runtime_error("epoll_create1 failed");
    r->wake = Fd(::eventfd(0, EFD_NONBLOCK));
    if (!r->wake.valid()) throw std::runtime_error("eventfd failed");
    r->cert_signer = std::make_unique<crypto::HmacSigner>(config_.cert_key);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeToken;
    ::epoll_ctl(r->epoll.get(), EPOLL_CTL_ADD, r->wake.get(), &ev);
    if (i == 0) {
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.u64 = kListenToken;
      ::epoll_ctl(r->epoll.get(), EPOLL_CTL_ADD, listen_fd_.get(), &lev);
    }
    reactors_.push_back(std::move(r));
  }
  for (std::size_t i = 0; i < config_.reactors; ++i) {
    reactors_[i]->thread = std::thread([this, i] { run_reactor(i); });
  }
}

void AppraiserServer::stop() {
  if (!started_) return;
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    for (std::size_t i = 0; i < reactors_.size(); ++i) {
      Inbound item;
      item.kind = Inbound::Kind::kStop;
      post(i, std::move(item));
    }
  }
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  reactors_.clear();
  listen_fd_.reset();
  started_ = false;
}

void AppraiserServer::post(std::size_t reactor_idx, Inbound&& item) {
  if (reactor_idx >= reactors_.size()) return;
  Reactor& r = *reactors_[reactor_idx];
  {
    const std::lock_guard<std::mutex> lock(r.inbox_mu);
    r.inbox.push_back(std::move(item));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(r.wake.get(), &one, sizeof(one));
}

void AppraiserServer::run_reactor(std::size_t idx) {
  Reactor& r = *reactors_[idx];
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];

  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(r.epoll.get(), events, kMaxEvents, 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t token = events[i].data.u64;
      if (token == kListenToken) {
        accept_ready(r);
        continue;
      }
      if (token == kWakeToken) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t rd =
            ::read(r.wake.get(), &drained, sizeof(drained));
        drain_inbox(r);
        continue;
      }
      const auto it = r.conns.find(token);
      if (it == r.conns.end()) continue;
      Conn& c = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(r, token);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) flush_writes(r, c);
      // flush_writes can close on write error — re-check liveness.
      if (r.conns.find(token) == r.conns.end()) continue;
      if ((events[i].events & EPOLLIN) != 0) conn_readable(r, c);
    }
  }
  // Orderly teardown of everything this reactor owns, including any
  // connection hand-offs still parked in the inbox.
  {
    const std::lock_guard<std::mutex> lock(r.inbox_mu);
    for (const Inbound& item : r.inbox) {
      if (item.kind == Inbound::Kind::kNewConn && item.fd >= 0) {
        ::close(item.fd);
      }
    }
    r.inbox.clear();
  }
  r.conns.clear();
}

void AppraiserServer::accept_ready(Reactor& r) {
  for (;;) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; epoll will re-arm
    }
    if (open_sessions_.load(std::memory_order_relaxed) >= kMaxSessions) {
      ::close(fd);
      PERA_OBS_COUNT("net.server.accept_overflow");
      continue;
    }
    const std::size_t target = r.rr_next++ % config_.reactors;
    if (target == r.idx) {
      adopt_conn(r, fd);
    } else {
      Inbound item;
      item.kind = Inbound::Kind::kNewConn;
      item.fd = fd;
      post(target, std::move(item));
    }
  }
}

void AppraiserServer::adopt_conn(Reactor& r, int fd) {
  set_nodelay(fd);
  auto conn = std::make_unique<Conn>(&session_config_);
  conn->link = Link(Fd(fd));
  conn->token = (static_cast<std::uint64_t>(r.idx) << kTokenReactorShift) |
                ++r.next_conn;
  conn->interest = EPOLLIN;
  open_sessions_.fetch_add(1, std::memory_order_relaxed);
  PERA_OBS_GAUGE("net.server.open",
                 open_sessions_.load(std::memory_order_relaxed));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conn->token;
  if (::epoll_ctl(r.epoll.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    open_sessions_.fetch_sub(1, std::memory_order_relaxed);
    return;  // conn (and fd) die here
  }
  r.conns.emplace(conn->token, std::move(conn));
}

void AppraiserServer::drain_inbox(Reactor& r) {
  std::vector<Inbound> items;
  {
    const std::lock_guard<std::mutex> lock(r.inbox_mu);
    items.swap(r.inbox);
  }
  for (Inbound& item : items) {
    switch (item.kind) {
      case Inbound::Kind::kStop:
        break;  // running_ already cleared; the loop exits on next poll
      case Inbound::Kind::kNewConn:
        adopt_conn(r, item.fd);
        break;
      case Inbound::Kind::kResult: {
        const auto it = r.conns.find(item.token);
        if (it == r.conns.end()) break;  // the relying party left
        it->second->session.queue_result(item.cert);
        results_sent_.fetch_add(1, std::memory_order_relaxed);
        PERA_OBS_COUNT("net.server.results");
        after_progress(r, *it->second);
        break;
      }
      case Inbound::Kind::kChallenge: {
        const auto it = r.conns.find(item.token);
        if (it == r.conns.end()) break;
        it->second->relay_target = true;
        it->second->session.queue_challenge(item.challenge);
        after_progress(r, *it->second);
        break;
      }
    }
  }
}

void AppraiserServer::conn_readable(Reactor& r, Conn& c) {
  if (c.reads_paused || c.closing) return;
  const IoResult res =
      c.link.read([&c, this](crypto::BytesView chunk) {
        if (!c.session.on_bytes(chunk)) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          c.closing = true;  // flush whatever the session queued (reject ack)
          return false;
        }
        return !c.session.wants_close();
      });
  bytes_in_.fetch_add(res.bytes, std::memory_order_relaxed);
  if (res.status == IoStatus::kClosed || res.status == IoStatus::kError) {
    close_conn(r, c.token);
    return;
  }
  after_progress(r, c);
}

void AppraiserServer::after_progress(Reactor& r, Conn& c) {
  // 1. Session state side effects.
  if (c.session.established() && !c.place_registered) {
    c.place_registered = true;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    // Switches are indexed for challenge relay; relying parties are not.
    if (c.session.role() == SessionRole::kSwitch) {
      const std::lock_guard<std::mutex> lock(place_mu_);
      place_index_[c.session.place()] = c.token;
    }
  }
  if (c.session.state() == ServerSession::State::kRejected &&
      !c.reject_counted) {
    c.reject_counted = true;
    rejected_.fetch_add(1, std::memory_order_relaxed);
    c.closing = true;
  }
  if (c.session.wants_close()) c.closing = true;

  // 2. Appraise and certify each evidence round here. A round born from
  // a relayed challenge goes back to the relying party; everything else
  // answers this session.
  for (EvidenceRound& round : c.session.take_evidence()) {
    pipeline::EvidenceItem item;
    item.nonce = round.nonce;
    item.evidence = std::move(round.evidence);
    const pipeline::AppraisedRecord rec =
        pipeline::appraise_record(item, *verifiers_);
    rounds_appraised_.fetch_add(1, std::memory_order_relaxed);
    PERA_OBS_COUNT("net.server.rounds");
    ra::Certificate cert = ra::Certificate::issue(
        kAppraiserName, item.nonce, item.evidence, rec.sig_ok, now_ns(),
        *r.cert_signer);
    std::uint64_t relying_party = 0;
    if (c.relay_target) {
      const std::lock_guard<std::mutex> lock(route_mu_);
      const auto it = relay_routes_.find(item.nonce.value);
      if (it != relay_routes_.end()) {
        relying_party = it->second;
        relay_routes_.erase(it);
      }
    }
    if (relying_party != 0) {
      Inbound out;
      out.kind = Inbound::Kind::kResult;
      out.token = relying_party;
      out.cert = std::move(cert);
      post(relying_party >> kTokenReactorShift, std::move(out));
      continue;
    }
    c.session.queue_result(cert);
    results_sent_.fetch_add(1, std::memory_order_relaxed);
    PERA_OBS_COUNT("net.server.results");
  }

  // 3. Challenge relays from relying-party sessions.
  for (RelayRequest& relay : c.session.take_relays()) {
    std::uint64_t switch_token = 0;
    {
      const std::lock_guard<std::mutex> lock(place_mu_);
      const auto it = place_index_.find(relay.place);
      if (it != place_index_.end()) switch_token = it->second;
    }
    if (switch_token == 0) {
      unrouted_.fetch_add(1, std::memory_order_relaxed);
      PERA_OBS_COUNT("net.server.challenge_unrouted");
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(route_mu_);
      relay_routes_[relay.challenge.nonce.value] = c.token;
    }
    relayed_.fetch_add(1, std::memory_order_relaxed);
    PERA_OBS_COUNT("net.server.challenge_relayed");
    Inbound item;
    item.kind = Inbound::Kind::kChallenge;
    item.token = switch_token;
    item.challenge.place = relay.place;
    item.challenge.challenge = relay.challenge;
    post(switch_token >> kTokenReactorShift, std::move(item));
  }

  // 4. Move queued frames to the write queue and flush what we can.
  c.link.queue(c.session.outbox());
  flush_writes(r, c);
}

void AppraiserServer::flush_writes(Reactor& r, Conn& c) {
  const IoResult res = c.link.flush();
  bytes_out_.fetch_add(res.bytes, std::memory_order_relaxed);
  const std::size_t owed = c.link.pending_bytes();
  if (res.status == IoStatus::kError || (c.closing && owed == 0)) {
    close_conn(r, c.token);
    return;
  }
  // Backpressure: a peer that stops reading gets its own reads paused
  // until it drains what we already owe it.
  if (!c.reads_paused && owed > kWriteBufferLimit) {
    c.reads_paused = true;
    read_pauses_.fetch_add(1, std::memory_order_relaxed);
    PERA_OBS_COUNT("net.server.read_pause");
  } else if (c.reads_paused && owed < kWriteBufferResume) {
    c.reads_paused = false;
  }
  update_interest(r, c);
}

void AppraiserServer::update_interest(Reactor& r, Conn& c) {
  std::uint32_t want = 0;
  if (!c.reads_paused && !c.closing) want |= EPOLLIN;
  if (c.link.pending_bytes() != 0) want |= EPOLLOUT;
  if (want == c.interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = c.token;
  if (::epoll_ctl(r.epoll.get(), EPOLL_CTL_MOD, c.link.fd(), &ev) == 0) {
    c.interest = want;
  }
}

void AppraiserServer::close_conn(Reactor& r, std::uint64_t token) {
  const auto it = r.conns.find(token);
  if (it == r.conns.end()) return;
  Conn& c = *it->second;
  if (c.place_registered && c.session.role() == SessionRole::kSwitch) {
    const std::lock_guard<std::mutex> lock(place_mu_);
    const auto pit = place_index_.find(c.session.place());
    if (pit != place_index_.end() && pit->second == token) {
      place_index_.erase(pit);
    }
  }
  // A relying party's challenges that no switch answered die with it.
  if (c.place_registered && c.session.role() == SessionRole::kRelyingParty) {
    const std::lock_guard<std::mutex> lock(route_mu_);
    std::erase_if(relay_routes_,
                  [token](const auto& route) { return route.second == token; });
  }
  open_sessions_.fetch_sub(1, std::memory_order_relaxed);
  PERA_OBS_GAUGE("net.server.open",
                 open_sessions_.load(std::memory_order_relaxed));
  r.conns.erase(it);  // closes the fd; epoll deregisters automatically
}

ServerStats AppraiserServer::stats() const {
  ServerStats s;
  s.sessions_accepted = accepted_.load(std::memory_order_relaxed);
  s.sessions_rejected = rejected_.load(std::memory_order_relaxed);
  s.sessions_open = open_sessions_.load(std::memory_order_relaxed);
  s.rounds_appraised = rounds_appraised_.load(std::memory_order_relaxed);
  s.results_sent = results_sent_.load(std::memory_order_relaxed);
  s.challenges_relayed = relayed_.load(std::memory_order_relaxed);
  s.challenges_unrouted = unrouted_.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(route_mu_);
    s.relay_routes = relay_routes_.size();
  }
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.read_pauses = read_pauses_.load(std::memory_order_relaxed);
  return s;
}

bool AppraiserServer::wait_for_rounds(std::uint64_t n, int timeout_ms) const {
  const std::int64_t deadline = deadline_after_ms(timeout_ms);
  while (rounds_appraised_.load(std::memory_order_acquire) < n) {
    if (remaining_ms(deadline) == 0) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

}  // namespace pera::net
