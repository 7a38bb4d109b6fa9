#include "minimpi/comm.hpp"

#include <algorithm>
#include <thread>
#include <tuple>

#include "core/crc32.hpp"
#include "runtime/env.hpp"
#include "runtime/fault/fault.hpp"

namespace syclport::mpi {

namespace {

namespace fault = rt::fault;

/// Pack a point-to-point channel identity into the 64-bit stream id the
/// fault layer keys its deterministic draws on. Ranks are in-process
/// thread indices (far below 2^16); tags are small positive ints.
[[nodiscard]] std::uint64_t channel_key(int src, int dst, int tag) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(src)) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(dst)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
}

/// Per-attempt receive timeout and retry budget of the armed transport.
/// Read per receive (armed path only), so tests can vary them.
[[nodiscard]] std::chrono::milliseconds recv_timeout() {
  const auto v = rt::env::get_long("SYCLPORT_COMM_TIMEOUT_MS", 1, 600'000);
  return std::chrono::milliseconds(v.value_or(200));
}

[[nodiscard]] int recv_retries() {
  const auto v = rt::env::get_long("SYCLPORT_COMM_RETRIES", 0, 1000);
  return static_cast<int>(v.value_or(4));
}

/// Move every delayed message whose release time has passed into its
/// destination mailbox. Caller holds w.mu; returns true if any message
/// became deliverable.
bool flush_delayed_locked(detail::World& w,
                          std::chrono::steady_clock::time_point now) {
  bool moved = false;
  std::erase_if(w.delayed, [&](detail::DelayedMessage& d) {
    if (d.release > now) return false;
    w.mailboxes[static_cast<std::size_t>(d.dst)].push_back(std::move(d.msg));
    moved = true;
    return true;
  });
  return moved;
}

/// Earliest pending release among delayed messages addressed to `dst`
/// (or time_point::max() when none) - the receive wait must wake then.
[[nodiscard]] std::chrono::steady_clock::time_point next_release_locked(
    const detail::World& w, int dst) {
  auto t = std::chrono::steady_clock::time_point::max();
  for (const auto& d : w.delayed)
    if (d.dst == dst && d.release < t) t = d.release;
  return t;
}

[[nodiscard]] std::string describe(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "(non-standard exception)";
  }
}

}  // namespace

void Comm::send_bytes(int dest, int tag, std::span<const std::byte> data) {
  if (dest < 0 || dest >= size())
    throw std::out_of_range("mini-MPI send: bad destination rank");
  auto& w = *world_;
  {
    std::lock_guard lock(w.mu);
    detail::Message m{rank_, tag, {data.begin(), data.end()}};
    if (!fault::armed()) {
      w.mailboxes[static_cast<std::size_t>(dest)].push_back(std::move(m));
    } else {
      // Armed transport: stamp a per-channel sequence number and a
      // payload CRC, park a pristine copy in the retransmit store, then
      // roll the wire faults. Decisions key on (channel, seq), so a
      // given seed injects the same faults into the same messages
      // regardless of rank interleaving.
      const std::uint64_t key = channel_key(rank_, dest, tag);
      m.seq = w.send_seq[key]++;
      m.crc = crc32(m.payload.data(), m.payload.size());
      m.guarded = true;
      w.limbo[key].push_back(m);
      const auto drop = fault::roll_stream(fault::Site::CommDrop, key, m.seq);
      if (!drop.fire) {
        const auto corrupt =
            fault::roll_stream(fault::Site::CommCorrupt, key, m.seq);
        const auto dup = fault::roll_stream(fault::Site::CommDup, key, m.seq);
        const auto delay =
            fault::roll_stream(fault::Site::CommDelay, key, m.seq);
        auto deliver = [&](detail::Message&& msg) {
          if (delay.fire) {
            const auto hold = std::chrono::microseconds(
                1000 + delay.value % 20'000);
            w.delayed.push_back(
                {std::chrono::steady_clock::now() + hold, dest,
                 std::move(msg)});
          } else {
            w.mailboxes[static_cast<std::size_t>(dest)].push_back(
                std::move(msg));
          }
        };
        detail::Message wire = m;
        if (corrupt.fire && !wire.payload.empty()) {
          const std::size_t at = corrupt.value % wire.payload.size();
          wire.payload[at] ^= static_cast<std::byte>(
              1u << ((corrupt.value >> 8) % 8));
        }
        deliver(std::move(wire));
        if (dup.fire) deliver(detail::Message{m});  // pristine duplicate
      }
      // A dropped message stays in limbo only; the receiver recovers it
      // from there after its first timeout.
    }
  }
  w.cv.notify_all();
}

void Comm::recv_bytes(int src, int tag, std::span<std::byte> out) {
  if (src < 0 || src >= size())
    throw std::out_of_range("mini-MPI recv: bad source rank");
  auto& w = *world_;
  std::unique_lock lock(w.mu);
  auto& box = w.mailboxes[static_cast<std::size_t>(rank_)];

  const auto copy_out = [&](const detail::Message& m) {
    if (m.payload.size() != out.size())
      throw std::length_error("mini-MPI recv: size mismatch");
    std::copy(m.payload.begin(), m.payload.end(), out.begin());
  };

  if (!fault::armed()) {
    for (;;) {
      auto it = std::find_if(box.begin(), box.end(), [&](const auto& m) {
        return m.src == src && m.tag == tag;
      });
      if (it != box.end()) {
        copy_out(*it);
        box.erase(it);
        return;
      }
      if (w.failed > 0 || w.exited[static_cast<std::size_t>(src)])
        throw comm_error(comm_error::Kind::PeerFailed,
                         std::string("mini-MPI recv: ") +
                             (w.failed > 0 ? "a peer rank failed"
                                           : "the source rank returned") +
                             " while rank " + std::to_string(rank_) +
                             " awaited (src=" + std::to_string(src) +
                             ", tag=" + std::to_string(tag) + ")");
      w.cv.wait(lock);
    }
  }

  // Armed transport: deliver channel messages strictly in sequence
  // order, discarding duplicates, recovering corrupted or dropped
  // payloads from the retransmit store, and bounding the total wait.
  const std::uint64_t key = channel_key(src, rank_, tag);

  const auto finish_delivery = [&](std::uint64_t seq) {
    w.recv_seq[key] = seq + 1;
    auto lit = w.limbo.find(key);
    if (lit != w.limbo.end()) {
      auto& q = lit->second;
      while (!q.empty() && q.front().seq <= seq) q.pop_front();
    }
  };

  /// One full mailbox scan; true when the expected message was copied
  /// out (duplicate discard and corrupt-heal included).
  const auto try_deliver = [&]() -> bool {
    const std::uint64_t expected = w.recv_seq[key];
    bool rescan = true;
    while (rescan) {
      rescan = false;
      for (auto it = box.begin(); it != box.end(); ++it) {
        if (it->src != src || it->tag != tag) continue;
        if (!it->guarded) {  // sent before the plan armed: legacy path
          copy_out(*it);
          box.erase(it);
          return true;
        }
        if (it->seq < expected) {  // duplicate of a delivered message
          box.erase(it);
          fault::note_recovered(fault::Site::CommDup);
          rescan = true;
          break;
        }
        if (it->seq != expected) continue;  // future: wait for order
        if (crc32(it->payload.data(), it->payload.size()) != it->crc) {
          // Corrupted in transit: discard and deliver the pristine
          // retransmit copy instead.
          const std::uint64_t seq = it->seq;
          box.erase(it);
          const auto lit = w.limbo.find(key);
          if (lit != w.limbo.end()) {
            const auto& q = lit->second;
            const auto pit =
                std::find_if(q.begin(), q.end(),
                             [&](const auto& p) { return p.seq == seq; });
            if (pit != q.end()) {
              copy_out(*pit);
              finish_delivery(seq);
              fault::note_recovered(fault::Site::CommCorrupt);
              return true;
            }
          }
          rescan = true;  // no pristine copy: treat as dropped
          break;
        }
        copy_out(*it);
        const std::uint64_t seq = it->seq;
        box.erase(it);
        finish_delivery(seq);
        return true;
      }
    }
    return false;
  };

  const auto peer_failed = [&] {
    return comm_error(comm_error::Kind::PeerFailed,
                      "mini-MPI recv: a peer rank failed while rank " +
                          std::to_string(rank_) + " awaited (src=" +
                          std::to_string(src) + ", tag=" +
                          std::to_string(tag) + ")");
  };

  // Fail fast on an already-recorded peer death: one delivery scan,
  // then the failed-peer check, *before* any backoff state (timeout
  // env reads, attempt deadlines) is set up. A recv issued after a
  // PeerFailed barrier wake-up must not wait out the full
  // SYCLPORT_COMM_TIMEOUT_MS budget on a channel no live sender feeds.
  flush_delayed_locked(w, std::chrono::steady_clock::now());
  if (try_deliver()) return;
  if (w.failed > 0) throw peer_failed();

  const auto base_timeout = recv_timeout();
  const int retries = recv_retries();
  auto attempt = base_timeout;
  int attempts_left = retries;
  auto attempt_deadline = std::chrono::steady_clock::now() + attempt;

  for (;;) {
    flush_delayed_locked(w, std::chrono::steady_clock::now());
    if (try_deliver()) return;
    if (w.failed > 0) throw peer_failed();
    auto wake = attempt_deadline;
    if (const auto rel = next_release_locked(w, rank_); rel < wake)
      wake = rel;
    w.cv.wait_until(lock, wake);
    if (std::chrono::steady_clock::now() < attempt_deadline) continue;
    // Attempt expired with nothing deliverable: recover the expected
    // message from the retransmit store (a comm.drop victim), else
    // retry with exponential backoff until the budget is spent.
    const std::uint64_t expect_now = w.recv_seq[key];
    if (const auto lit = w.limbo.find(key); lit != w.limbo.end()) {
      const auto& q = lit->second;
      const auto pit = std::find_if(q.begin(), q.end(), [&](const auto& p) {
        return p.seq == expect_now;
      });
      if (pit != q.end()) {
        copy_out(*pit);
        finish_delivery(expect_now);
        fault::note_recovered(fault::Site::CommDrop);
        return;
      }
    }
    if (--attempts_left < 0)
      throw comm_error(
          comm_error::Kind::Timeout,
          "mini-MPI recv: timed out after " + std::to_string(retries + 1) +
              " attempts (base " + std::to_string(base_timeout.count()) +
              " ms) awaiting src=" + std::to_string(src) + ", tag=" +
              std::to_string(tag) + ", seq=" + std::to_string(expect_now) +
              " at rank " + std::to_string(rank_));
    attempt *= 2;
    attempt_deadline = std::chrono::steady_clock::now() + attempt;
  }
}

void Comm::barrier() {
  auto& w = *world_;
  std::unique_lock lock(w.mu);
  const std::uint64_t gen = w.barrier_generation;
  if (++w.barrier_count == w.size) {
    w.barrier_count = 0;
    ++w.barrier_generation;
    w.cv.notify_all();
  } else {
    // A rank that has exited never arrives: the barrier cannot complete.
    w.cv.wait(lock, [&] {
      return w.barrier_generation != gen || w.failed > 0 || w.nexited > 0;
    });
    if (w.barrier_generation == gen)
      throw comm_error(comm_error::Kind::PeerFailed,
                       std::string("mini-MPI barrier: a peer rank ") +
                           (w.failed > 0 ? "failed" : "returned") +
                           " before reaching the barrier (rank " +
                           std::to_string(rank_) + " waiting)");
  }
}

void Comm::allgather_impl(const void* local, std::size_t bytes, void* out) {
  auto& w = *world_;
  {
    std::lock_guard lock(w.mu);
    if (w.gather_slots.size() != static_cast<std::size_t>(w.size))
      w.gather_slots.resize(static_cast<std::size_t>(w.size));
    const auto* p = static_cast<const std::byte*>(local);
    w.gather_slots[static_cast<std::size_t>(rank_)].assign(p, p + bytes);
  }
  barrier();  // every slot written
  {
    std::lock_guard lock(w.mu);
    auto* o = static_cast<std::byte*>(out);
    for (int r = 0; r < w.size; ++r) {
      const auto& slot = w.gather_slots[static_cast<std::size_t>(r)];
      if (slot.size() != bytes)
        throw std::length_error("mini-MPI allgather: size mismatch");
      std::copy(slot.begin(), slot.end(), o + static_cast<std::size_t>(r) * bytes);
    }
  }
  barrier();  // every slot read; safe to reuse
}

void run(int nranks, const std::function<void(Comm&)>& rank_fn) {
  if (nranks < 1) throw std::invalid_argument("mini-MPI run: nranks < 1");
  auto world = std::make_shared<detail::World>(nranks);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  std::mutex err_mu;
  std::vector<rank_errors::Entry> failures;
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(world, r);
      bool failed = false;
      try {
        rank_fn(comm);
      } catch (...) {
        failed = true;
        std::lock_guard lock(err_mu);
        failures.push_back({r, std::current_exception()});
      }
      {
        // Mark the rank gone so peers blocked on a message or barrier
        // this rank will never complete raise comm_error(PeerFailed)
        // instead of hanging.
        std::lock_guard lock(world->mu);
        world->failed += failed ? 1 : 0;
        world->exited[static_cast<std::size_t>(r)] = 1;
        ++world->nexited;
      }
      world->cv.notify_all();
    });
  }

  for (auto& t : threads) t.join();
  if (failures.empty()) return;
  std::sort(failures.begin(), failures.end(),
            [](const auto& a, const auto& b) { return a.rank < b.rank; });
  // Peer-failure cascades are secondary: a rank that raised
  // comm_error{PeerFailed} only did so because some other rank already
  // failed. Surface the primary causes; fall back to the cascades only
  // when nothing else exists (should not happen, but never swallow).
  std::vector<rank_errors::Entry> primary;
  for (const auto& f : failures) {
    bool cascade = false;
    try {
      std::rethrow_exception(f.error);
    } catch (const comm_error& ce) {
      cascade = ce.kind() == comm_error::Kind::PeerFailed;
    } catch (...) {
    }
    if (!cascade) primary.push_back(f);
  }
  if (primary.empty()) primary = failures;
  if (primary.size() == 1) std::rethrow_exception(primary.front().error);
  std::string msg = "mini-MPI run: " + std::to_string(primary.size()) +
                    " ranks failed:";
  for (const auto& f : primary)
    msg += " [rank " + std::to_string(f.rank) + ": " + describe(f.error) + "]";
  throw rank_errors(msg, std::move(primary));
}

}  // namespace syclport::mpi
