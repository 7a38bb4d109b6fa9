#pragma once
/// \file comm.hpp
/// mini-MPI: an in-process message-passing substrate. The study's DSLs
/// use the MPI and MPI+X execution models; this module provides real
/// message-passing semantics (typed point-to-point sends/receives with
/// tags, barriers, reductions, gathers) between ranks that run as
/// threads of one process. Wire format and transport are irrelevant to
/// the paper's results - ownership, packing and exchange *structure*
/// are what OPS/OP2 exercise, and those are faithfully reproduced.
///
/// Resilience (docs/resilience.md): while the fault layer is armed
/// (SYCLPORT_FAULT), every point-to-point message carries a
/// per-(src,dst,tag) sequence number and a CRC-32 of its payload, and a
/// pristine copy is parked in a retransmit store until the receiver
/// acknowledges delivery. The receiver enforces in-order delivery per
/// channel, discards duplicates, recovers corrupted payloads from the
/// store, re-requests dropped messages after a timeout with exponential
/// backoff (SYCLPORT_COMM_TIMEOUT_MS x SYCLPORT_COMM_RETRIES), and
/// converts both retry exhaustion and peer death into a typed
/// comm_error instead of a hang. Disarmed, the transport is exactly the
/// original copy-into-mailbox path.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace syclport::mpi {

/// Reduction operations supported by allreduce.
enum class Op { Sum, Min, Max };

/// Typed communication failure: the recovery paths above exhausted
/// their options. Timeout = an expected message never became
/// deliverable; PeerFailed = a rank this operation depends on exited by
/// exception, so the wait can never be satisfied.
class comm_error : public std::runtime_error {
 public:
  enum class Kind { Timeout, PeerFailed };
  comm_error(Kind kind, const std::string& what_arg)
      : std::runtime_error(what_arg), kind_(kind) {}
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Aggregate failure of a run(): more than one rank raised a primary
/// error. what() names every failing rank; entries() exposes each
/// rank's exception for programmatic inspection.
class rank_errors : public std::runtime_error {
 public:
  struct Entry {
    int rank;
    std::exception_ptr error;
  };
  rank_errors(const std::string& what_arg, std::vector<Entry> entries)
      : std::runtime_error(what_arg), entries_(std::move(entries)) {}
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }

 private:
  std::vector<Entry> entries_;
};

namespace detail {
struct Message {
  int src;
  int tag;
  std::vector<std::byte> payload;
  // Armed-transport envelope (zero/false on the disarmed path).
  std::uint64_t seq = 0;   ///< per-(src,dst,tag) sequence number
  std::uint32_t crc = 0;   ///< CRC-32 of the payload at send time
  bool guarded = false;    ///< sent while the fault layer was armed
};

/// A message withheld by comm.delay until `release`.
struct DelayedMessage {
  std::chrono::steady_clock::time_point release;
  int dst;
  Message msg;
};

/// Shared state of one communicator world.
struct World {
  explicit World(int n)
      : size(n),
        mailboxes(static_cast<std::size_t>(n)),
        exited(static_cast<std::size_t>(n), 0) {}

  int size;
  std::mutex mu;
  std::condition_variable cv;

  /// mailboxes[dst] holds messages awaiting receipt, FIFO per (src,tag).
  std::vector<std::deque<Message>> mailboxes;

  // Barrier / collective state.
  int barrier_count = 0;
  std::uint64_t barrier_generation = 0;
  std::vector<std::vector<std::byte>> gather_slots;

  /// Ranks that exited their rank_fn by exception. Blocked receives and
  /// barriers check this and raise comm_error(PeerFailed) instead of
  /// waiting for progress a dead peer can never make.
  int failed = 0;
  /// exited[r]: rank r has left its rank_fn, by return or exception, so
  /// it sends nothing more and reaches no further barrier. A receive
  /// from it with nothing queued, or any barrier once a rank exited,
  /// raises comm_error(PeerFailed) too.
  std::vector<char> exited;
  int nexited = 0;

  // Armed-transport state, keyed by the packed (src,dst,tag) channel id
  // (see channel_key in comm.cpp). Guarded by mu; untouched while the
  // fault layer is disarmed.
  std::map<std::uint64_t, std::uint64_t> send_seq;  ///< next seq to send
  std::map<std::uint64_t, std::uint64_t> recv_seq;  ///< next seq expected
  /// Pristine retransmit copies, FIFO per channel; entries are dropped
  /// once the receiver delivers their sequence number.
  std::map<std::uint64_t, std::deque<Message>> limbo;
  std::vector<DelayedMessage> delayed;  ///< comm.delay in-flight store
};
}  // namespace detail

/// A rank's handle to the world: the mini-MPI equivalent of an
/// MPI_Comm + rank id.
class Comm {
 public:
  Comm(std::shared_ptr<detail::World> world, int rank)
      : world_(std::move(world)), rank_(rank) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return world_->size; }

  /// Blocking typed send (buffered: copies payload and returns).
  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    send_bytes(dest, tag, std::as_bytes(data));
  }
  template <typename T>
  void send(int dest, int tag, const T& scalar) {
    send(dest, tag, std::span<const T>(&scalar, 1));
  }

  /// Blocking typed receive; message size must match exactly.
  template <typename T>
  void recv(int src, int tag, std::span<T> out) {
    recv_bytes(src, tag, std::as_writable_bytes(out));
  }
  template <typename T>
  void recv(int src, int tag, T& scalar) {
    recv(src, tag, std::span<T>(&scalar, 1));
  }

  /// Paired exchange with a neighbour (send then receive, deadlock-free
  /// because sends are buffered).
  template <typename T>
  void sendrecv(int peer, int tag, std::span<const T> out, std::span<T> in) {
    send(peer, tag, out);
    recv(peer, tag, in);
  }

  /// Non-blocking operations. Sends are buffered, so isend completes
  /// immediately; irecv defers the matching receive until wait() - the
  /// usual MPI contract (the receive buffer must stay alive and
  /// untouched until the request is waited on) is therefore preserved.
  class Request {
   public:
    Request() = default;
    void wait() {
      if (complete_) complete_();
      complete_ = nullptr;
    }
    [[nodiscard]] bool pending() const { return static_cast<bool>(complete_); }

   private:
    friend class Comm;
    explicit Request(std::function<void()> c) : complete_(std::move(c)) {}
    std::function<void()> complete_;
  };

  template <typename T>
  [[nodiscard]] Request isend(int dest, int tag, std::span<const T> data) {
    send(dest, tag, data);  // buffered: completes eagerly
    return Request{};
  }

  template <typename T>
  [[nodiscard]] Request irecv(int src, int tag, std::span<T> out) {
    return Request([this, src, tag, out] { recv(src, tag, out); });
  }

  static void waitall(std::span<Request> reqs) {
    for (Request& r : reqs) r.wait();
  }

  void barrier();

  /// Allreduce of a scalar (Sum/Min/Max).
  template <typename T>
  [[nodiscard]] T allreduce(T local, Op op) {
    std::vector<T> all(static_cast<std::size_t>(size()));
    allgather_impl(&local, sizeof(T), all.data());
    T acc = all[0];
    for (std::size_t i = 1; i < all.size(); ++i) {
      switch (op) {
        case Op::Sum: acc = acc + all[i]; break;
        case Op::Min: acc = all[i] < acc ? all[i] : acc; break;
        case Op::Max: acc = acc < all[i] ? all[i] : acc; break;
      }
    }
    return acc;
  }

  /// Gather one value per rank to every rank.
  template <typename T>
  [[nodiscard]] std::vector<T> allgather(T local) {
    std::vector<T> all(static_cast<std::size_t>(size()));
    allgather_impl(&local, sizeof(T), all.data());
    return all;
  }

 private:
  void send_bytes(int dest, int tag, std::span<const std::byte> data);
  void recv_bytes(int src, int tag, std::span<std::byte> out);
  void allgather_impl(const void* local, std::size_t bytes, void* out);

  std::shared_ptr<detail::World> world_;
  int rank_;
};

/// Launch `nranks` copies of `rank_fn` as threads sharing one world and
/// join them all. Every rank's exception is collected; peer-failure
/// cascades (comm_error{PeerFailed} raised because *another* rank
/// already failed) are filtered out when a primary cause exists. One
/// primary error is rethrown as-is; several are aggregated into a
/// rank_errors naming each failing rank.
void run(int nranks, const std::function<void(Comm&)>& rank_fn);

}  // namespace syclport::mpi
