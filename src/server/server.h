// Network session front-end: a socket server multiplexing client sessions
// over an embedded GraphDatabase.
//
// Shape: `workers` identical loop threads share ONE epoll set. Each loop
// claims a single ready session per epoll_wait (maxevents = 1, fds armed
// EPOLLONESHOT) and then owns it alone: it reads the frame, executes it
// against the engine, sends the reply and re-arms the fd. No other thread
// touches the request, so a wire op costs no thread hand-off. There is no
// thread-per-connection anywhere: a thousand mostly-idle sessions cost a
// thousand fds, not a thousand stacks.
//
// A request that blocks in the engine (an RC lock wait, an admission delay)
// blocks only the loop that claimed it; the other loops keep serving every
// other session. That is why each wait claims exactly one event: a batch
// would strand the rest of its sessions behind the blocked one.
//
//   kReading    armed EPOLLIN | EPOLLONESHOT, or claimed and being read
//   kExecuting  claimed; its request runs in the engine or its reply is
//               being sent (never idle, whatever last_active says)
//   kWriting    a reply hit a full socket; armed EPOLLOUT | EPOLLONESHOT
//   kClosing    the idle sweep shut the socket down; the next claim tears
//               the session down without executing anything it reads
//
// Only the claiming loop ever frees a session. The idle sweep (one loop at
// a time) never does: it moves kReading to kClosing and shutdown()s the
// socket. An owner enters kExecuting by exchange, so a request the sweep
// raced either runs with its reply delivered or never runs.
//
// A loop parked in the engine reads no EOF. If every loop waits on a lock
// held by a session whose client has gone, that disconnect (or idle reap)
// is seen only once a loop comes free, at the latest after the database's
// lock_timeout_ms.
//
// Admission control gates NEW wire Begins only — established snapshots are
// never aborted by admission (that stays the snapshot-lifecycle policy's
// job). Two signals, each with its own DatabaseStats counter:
//
//   * GC backlog: while engine().gc_list.backlog() sits above the
//     database's snapshot_expire_backlog threshold, a Begin first waits up
//     to admission_delay_ms for the drain (admission_delayed); if the gauge
//     is still over, the Begin is shed with retryable Status::Busy
//     (admission_shed_backlog).
//   * Session cap: with max_sessions wire transactions already open, a
//     Begin is shed immediately (admission_shed_sessions) — open snapshots
//     do not drain on a deadline the way a GC backlog does, so delaying
//     would just burn a loop.
//
// Protocol violations (oversized frame, CRC mismatch, truncated or
// malformed body) and idle timeouts drop the session: the open transaction
// is aborted (locks released, snapshot unregistered) and the fd closed. The
// server never replies to a frame it cannot trust.

#ifndef NEOSI_SERVER_SERVER_H_
#define NEOSI_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/graph_database.h"
#include "server/protocol.h"

namespace neosi {

struct ServerOptions {
  /// Listen address. The default binds loopback only.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Loop threads that each read, execute and reply; 0 = min(4,
  /// hardware_concurrency).
  int workers = 0;
  /// Cap on concurrently OPEN wire transactions (one per session); Begins
  /// beyond it are shed with Status::Busy. 0 = unlimited.
  uint32_t max_sessions = 0;
  /// Sessions idle (no in-flight request) longer than this are dropped and
  /// their transaction aborted. 0 = never.
  uint64_t idle_timeout_ms = 0;
  /// How long a Begin may wait for a GC-backlog drain before being shed.
  uint64_t admission_delay_ms = 5;
  /// Largest accepted frame payload; bigger declared lengths are a
  /// protocol violation (session dropped before buffering anything).
  uint32_t max_frame_bytes = 1 << 20;
};

/// One connected client. Internal, but visible for the session gauge.
class Server {
 public:
  /// Binds, listens, and spins up the loop threads. The database
  /// must outlive the Server; destroy (or Stop) the Server first.
  static Result<std::unique_ptr<Server>> Start(GraphDatabase* db,
                                               const ServerOptions& options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Idempotent; joins all threads and aborts every session's transaction.
  void Stop();

  /// The bound port (resolves port 0).
  uint16_t port() const { return port_; }

  /// Live connected-session gauge.
  uint64_t sessions() const {
    return session_gauge_.load(std::memory_order_relaxed);
  }

  /// Sessions dropped for protocol violations (lifetime counter).
  uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }

  /// Sessions dropped by the idle sweep (lifetime counter).
  uint64_t idle_drops() const {
    return idle_drops_.load(std::memory_order_relaxed);
  }

 private:
  struct Session {
    int fd = -1;
    enum class State { kReading, kExecuting, kWriting, kClosing };
    /// The release store before each re-arm and the acquire load after
    /// each claim hand the session from loop to loop. The idle sweep reads
    /// state and last_active while the owning loop runs.
    std::atomic<State> state{State::kReading};
    std::atomic<std::chrono::steady_clock::time_point> last_active;
    std::string inbuf;          ///< Raw bytes read; frames carved off front.
    std::string outbuf;         ///< Encoded reply frame being written.
    size_t out_off = 0;
    std::unique_ptr<Transaction> txn;
  };

  Server(GraphDatabase* db, const ServerOptions& options);

  Status Listen();
  void Loop();

  // Loop steps; those taking a Session run only on the loop that claimed it.
  void AcceptAll();
  void OnReadable(Session* s);
  /// Executes buffered frames and sends their replies until more input is
  /// needed (re-armed for reads) or the socket is full (armed for writes).
  void Serve(Session* s);
  /// Sends the rest of outbuf. False if the session was armed for writes
  /// or torn down instead.
  bool Flush(Session* s);
  /// Re-arms the claimed fd for `events`; from here on any loop may claim
  /// the session.
  void Arm(Session* s, Session::State state, uint32_t events);
  void Teardown(Session* s);
  void SweepIdle();
  /// Stop()-only (all threads joined): best-effort bounded-blocking flush
  /// of every session's pending reply, so a commit the engine already
  /// acked never loses its reply to shutdown (the client would record an
  /// abort for a transaction whose write is durable).
  void FlushPendingRepliesOnStop();

  std::string ExecutePayload(Session* s, const Slice& payload);
  std::string HandleBegin(Session* s, Slice body);

  GraphDatabase* const db_;
  const ServerOptions options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  /// Level-triggered and never drained: once written, it wakes every loop.
  int stop_fd_ = -1;

  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<uint64_t> session_gauge_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> idle_drops_{0};
  /// Open wire transactions (the max_sessions admission gauge).
  std::atomic<uint64_t> open_txns_{0};

  /// Held across each session re-arm and removal. The kernel already
  /// serializes epoll_ctl calls on one epoll set; this mutex makes that
  /// order visible to the C++ memory model (and ThreadSanitizer): a loop's
  /// last touch of a session, in its re-arm, happens before another
  /// loop's teardown of that session.
  std::mutex epoll_mu_;

  /// All sessions, keyed by fd. Taken only by accept, teardown and the
  /// idle sweep; a request never touches it.
  std::mutex sessions_mu_;
  std::unordered_map<int, std::unique_ptr<Session>> sessions_;
  /// Earliest time of the next idle sweep; guarded by sessions_mu_.
  std::chrono::steady_clock::time_point next_sweep_;

  std::vector<std::thread> loops_;
};

}  // namespace neosi

#endif  // NEOSI_SERVER_SERVER_H_
