#include "net/backend.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "net/client.h"
#include "obs/obs.h"

namespace pera::net {

SocketBackend::SocketBackend(Config config)
    : config_(std::move(config)), nonces_(config_.nonce_seed) {}

SocketBackend::~SocketBackend() { stop(); }

void SocketBackend::set_result_sink(
    std::function<void(const ra::Certificate&)> sink) {
  sink_ = std::move(sink);
}

bool SocketBackend::connect() {
  wake_fd_ = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) {
    error_ = "eventfd failed";
    return false;
  }

  ClientSessionConfig sc;
  sc.place = config_.place;
  sc.role = SessionRole::kRelyingParty;
  sc.want_mutual = config_.mutual;
  if (config_.mutual) {
    sc.verify_counter_quote =
        counter_quote_check(config_.cert_key, config_.appraiser_golden);
  }
  session_ = std::make_unique<ClientSession>(std::move(sc), nonces_.issue());
  if (!connect_session(link_, *session_, config_.port,
                       config_.connect_timeout_ms, error_)) {
    if (error_.empty()) error_ = session_->error_text();
    return false;
  }
  established_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { run_loop(); });
  PERA_OBS_COUNT("net.backend.connected");
  return true;
}

void SocketBackend::post(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void SocketBackend::wake() {
  if (!wake_fd_.valid()) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

void SocketBackend::stop() {
  if (running_.exchange(false)) wake();
  if (loop_.joinable()) loop_.join();
  if (session_ && link_.valid() && session_->established()) {
    session_->send_bye();
    (void)flush_session(link_, *session_, deadline_after_ms(100), error_);
  }
  established_.store(false, std::memory_order_release);
  link_.close();
}

void SocketBackend::send_challenge(const std::string& place,
                                   const core::Challenge& ch) {
  if (!link_.valid() || !session_->established()) return;
  session_->send_challenge(place, ch);
  try_flush();
  PERA_OBS_COUNT("net.backend.challenges_sent");
}

void SocketBackend::schedule_in(netsim::SimTime delay,
                                std::function<void()> fn) {
  Timer t;
  t.at = now_ns() + std::max<netsim::SimTime>(delay, 0);
  t.seq = next_timer_seq_++;
  t.fn = std::move(fn);
  timers_.push_back(std::move(t));
  std::push_heap(timers_.begin(), timers_.end(), fires_later);
}

bool SocketBackend::fires_later(const Timer& a, const Timer& b) {
  return std::tie(a.at, a.seq) > std::tie(b.at, b.seq);
}

netsim::SimTime SocketBackend::now() { return now_ns(); }

void SocketBackend::try_flush() {
  if (!link_.valid()) return;
  link_.queue(session_->outbox());
  // A socket that would block is retried on the next loop pass.
  if (link_.flush().status == IoStatus::kError) lose_connection();
}

void SocketBackend::lose_connection() {
  link_.close();
  established_.store(false, std::memory_order_release);
  PERA_OBS_COUNT("net.backend.conn_lost");
}

void SocketBackend::run_loop() {
  while (running_.load(std::memory_order_acquire)) {
    // Next timer bounds the poll; cap idle waits so stop() is prompt.
    int timeout_ms = 200;
    if (!timers_.empty()) {
      timeout_ms = std::min(remaining_ms(timers_.front().at), timeout_ms);
    }
    pollfd fds[2];
    fds[0] = {wake_fd_.get(), POLLIN, 0};
    nfds_t n = 1;
    if (link_.valid()) {
      short events = POLLIN;
      if (link_.pending_bytes() != 0) events |= POLLOUT;
      fds[1] = {link_.fd(), events, 0};
      n = 2;
    }
    (void)::poll(fds, n, timeout_ms);

    if ((fds[0].revents & POLLIN) != 0) {
      std::uint64_t drain = 0;
      while (::read(wake_fd_.get(), &drain, sizeof(drain)) > 0) {
      }
    }

    // Posted work first: begin_round calls queue challenges the same
    // pass can flush below.
    std::vector<std::function<void()>> tasks;
    {
      const std::lock_guard<std::mutex> lock(post_mu_);
      tasks.swap(posted_);
    }
    for (auto& t : tasks) t();

    // Due timers (retry/backoff from the transport).
    const std::int64_t now_ts = now_ns();
    while (!timers_.empty() && timers_.front().at <= now_ts) {
      std::pop_heap(timers_.begin(), timers_.end(), fires_later);
      Timer t = std::move(timers_.back());
      timers_.pop_back();
      t.fn();
    }

    if (link_.valid() && n == 2 &&
        (fds[1].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const IoResult res =
          link_.read([this](crypto::BytesView chunk) {
            return session_->on_bytes(chunk);
          });
      if (res.status != IoStatus::kWouldBlock) lose_connection();
      if (sink_) {
        for (ra::Certificate& cert : session_->take_results()) {
          sink_(cert);
          PERA_OBS_COUNT("net.backend.results");
        }
      } else {
        (void)session_->take_results();
      }
    }

    try_flush();
  }
  // Timers die with the loop; in-flight rounds simply never complete,
  // which only happens at shutdown.
  timers_.clear();
}

}  // namespace pera::net
