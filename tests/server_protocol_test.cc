// Protocol robustness: a hostile or broken client must never crash the
// server or leak a transaction. Malformed frames (bad CRC, oversized
// declared length, truncated bodies, unknown message types), mid-frame and
// mid-transaction disconnects, and a seeded fuzz loop all end the same way:
// the session is dropped, its transaction aborted (locks released, snapshot
// unregistered — verified through DatabaseStats), and the server keeps
// serving everyone else.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "graph/graph_database.h"
#include "server/client.h"
#include "server/server.h"

namespace neosi {
namespace {

/// Raw socket for sending hand-crafted (and deliberately broken) bytes.
class RawConn {
 public:
  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    return true;
  }
  ~RawConn() { Close(); }
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  bool Send(const std::string& bytes) {
    return fd_ >= 0 &&
           ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(bytes.size());
  }
  /// Reads one reply frame (waiting up to ~5 s) and decodes its status
  /// into *status. False on timeout, EOF or a malformed reply.
  bool RecvReply(Status* status) {
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    while (true) {
      Slice payload;
      size_t consumed = 0;
      const FrameParse parsed = ParseFrame(in_, 1 << 20, &payload, &consumed);
      if (parsed == FrameParse::kMalformed) return false;
      if (parsed == FrameParse::kOk) {
        Slice body;
        const bool ok = DecodeReply(payload, status, &body).ok();
        in_.erase(0, consumed);
        return ok;
      }
      char buf[256];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      in_.append(buf, static_cast<size_t>(n));
    }
  }
  /// One request, one reply: the reply's status (IOError if none came).
  Status Call(const std::string& payload) {
    Status status = Status::IOError("no reply");
    if (Send(EncodeFrame(payload))) RecvReply(&status);
    return status;
  }
  /// True if the server closed the connection (EOF) within ~2s.
  bool WaitForEof() {
    timeval tv{2, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char buf[256];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;    // EOF: session dropped.
      if (n < 0) return false;    // Timeout: server still talking to us.
    }
  }

 private:
  int fd_ = -1;
  std::string in_;  ///< Received bytes not yet carved into replies.
};

/// Polls `done` every 5 ms for up to ~2 s.
template <typename Pred>
bool Eventually(Pred done) {
  for (int i = 0; i < 400; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

class ServerProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;  // In-memory: protocol behavior only.
    options.background_gc_interval_ms = 0;
    db_ = std::move(*GraphDatabase::Open(options));
    ServerOptions server_options;
    server_options.workers = 2;
    server_options.max_frame_bytes = 64 * 1024;
    server_ = std::move(*Server::Start(db_.get(), server_options));
  }
  void TearDown() override {
    server_->Stop();
    server_.reset();
    db_.reset();
  }

  uint16_t port() const { return server_->port(); }

  /// Spin-waits for the session gauge to drain to `expected` (teardown is
  /// asynchronous: a server loop processes the violation).
  bool WaitForSessions(uint64_t expected) {
    for (int i = 0; i < 400; ++i) {
      if (server_->sessions() == expected) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  bool WaitForLockWaiters(uint64_t expected) {
    for (int i = 0; i < 400; ++i) {
      if (db_->Stats().locks.waiting == expected) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  bool WaitForActiveTxns(uint64_t expected) {
    for (int i = 0; i < 400; ++i) {
      if (db_->Stats().active_txns == expected) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  std::unique_ptr<GraphDatabase> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerProtocolTest, BadCrcDropsSessionWithoutReply) {
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  std::string frame = EncodeFrame(EncodePing());
  frame[4] ^= 0x5A;  // Corrupt the CRC field.
  ASSERT_TRUE(conn.Send(frame));
  EXPECT_TRUE(conn.WaitForEof());
  EXPECT_TRUE(WaitForSessions(0));
  EXPECT_GE(server_->protocol_errors(), 1u);
}

TEST_F(ServerProtocolTest, CorruptedPayloadDropsSession) {
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  std::string frame = EncodeFrame(EncodePing());
  frame.back() ^= 0x5A;  // Flip payload bits; CRC now mismatches.
  ASSERT_TRUE(conn.Send(frame));
  EXPECT_TRUE(conn.WaitForEof());
  EXPECT_TRUE(WaitForSessions(0));
}

TEST_F(ServerProtocolTest, OversizedFrameDroppedBeforeBuffering) {
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  // Declares 16 MiB (over the 64 KiB cap) — the server must reject on the
  // HEADER, not wait for 16 MiB that will never come.
  std::string header;
  PutFixed32(&header, 16u << 20);
  PutFixed32(&header, 0xDEADBEEF);
  ASSERT_TRUE(conn.Send(header));
  EXPECT_TRUE(conn.WaitForEof());
  EXPECT_TRUE(WaitForSessions(0));
}

TEST_F(ServerProtocolTest, TruncatedBodyInsideValidFrameDropsSession) {
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  // Valid frame (good CRC) whose payload claims kBegin but carries no
  // isolation/read-only bytes: only executing the request detects it.
  std::string payload;
  payload.push_back(static_cast<char>(MsgType::kBegin));
  ASSERT_TRUE(conn.Send(EncodeFrame(payload)));
  EXPECT_TRUE(conn.WaitForEof());
  EXPECT_TRUE(WaitForSessions(0));
  EXPECT_GE(server_->protocol_errors(), 1u);
}

TEST_F(ServerProtocolTest, UnknownMessageTypeDropsSession) {
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  std::string payload;
  payload.push_back(static_cast<char>(0x7F));
  ASSERT_TRUE(conn.Send(EncodeFrame(payload)));
  EXPECT_TRUE(conn.WaitForEof());
  EXPECT_TRUE(WaitForSessions(0));
}

// The core leak check: a client begins a transaction, takes a write lock,
// then vanishes mid-frame. The server must abort the orphaned transaction —
// active_txns back to zero AND the lock actually released, proven by a
// second client writing the same node without conflict.
TEST_F(ServerProtocolTest, MidTxnDisconnectAbortsTxnAndReleasesLocks) {
  NodeId contested;
  {
    Client setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", port()).ok());
    ASSERT_TRUE(setup.Begin().ok());
    auto id = setup.CreateNode({"Hot"}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(id.ok());
    contested = *id;
    ASSERT_TRUE(setup.Commit().ok());
  }
  ASSERT_TRUE(WaitForActiveTxns(0));

  Client holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", port()).ok());
  ASSERT_TRUE(holder.Begin().ok());
  ASSERT_TRUE(
      holder.SetNodeProperty(contested, "v", PropertyValue(int64_t{1})).ok());
  EXPECT_EQ(db_->Stats().active_txns, 1u);

  // Vanish without commit or rollback.
  holder.Close();

  ASSERT_TRUE(WaitForActiveTxns(0)) << "orphaned transaction never aborted";
  ASSERT_TRUE(WaitForSessions(0));

  // The write lock is gone: a new transaction updates the same node.
  Client prober;
  ASSERT_TRUE(prober.Connect("127.0.0.1", port()).ok());
  ASSERT_TRUE(prober.Begin().ok());
  EXPECT_TRUE(
      prober.SetNodeProperty(contested, "v", PropertyValue(int64_t{2})).ok());
  EXPECT_TRUE(prober.Commit().ok());
}

TEST_F(ServerProtocolTest, MidFrameDisconnectWithPartialHeaderIsClean) {
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  ASSERT_TRUE(conn.Send(std::string("\x08\x00", 2)));  // Half a length field.
  conn.Close();
  EXPECT_TRUE(WaitForSessions(0));
  // Server still serves.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  EXPECT_TRUE(client.Ping().ok());
}

// Seeded fuzz loop: random garbage, randomly truncated real frames, and
// random bit-flips in real frames — interleaved with genuine traffic. The
// server must end every one of them with a clean drop and ZERO leaked
// transactions.
TEST_F(ServerProtocolTest, SeededFuzzLoopNeverLeaksTransactions) {
  Random rng(20260808);  // Fixed seed: failures reproduce.
  const std::vector<std::string> real_payloads = {
      EncodePing(),
      EncodeBegin(IsolationLevel::kSnapshotIsolation, false),
      EncodeCommit(),
      EncodeRollback(),
      EncodeGetNodesByLabel("Person"),
      EncodeCreateNode({"A", "B"}, {{"k", PropertyValue(int64_t{7})}}),
  };
  for (int round = 0; round < 60; ++round) {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(port()));
    const uint32_t mode = rng.Uniform(4);
    std::string bytes;
    if (mode == 0) {
      // Pure garbage.
      const size_t n = 1 + rng.Uniform(200);
      for (size_t i = 0; i < n; ++i) {
        bytes.push_back(static_cast<char>(rng.Uniform(256)));
      }
    } else {
      std::string frame =
          EncodeFrame(real_payloads[rng.Uniform(real_payloads.size())]);
      if (mode == 1) {
        // Truncate.
        frame.resize(rng.Uniform(frame.size()));
      } else if (mode == 2 && !frame.empty()) {
        // Bit-flip somewhere.
        frame[rng.Uniform(frame.size())] ^=
            static_cast<char>(1u << rng.Uniform(8));
      }  // mode == 3: send the valid frame as-is.
      bytes = frame;
    }
    (void)conn.Send(bytes);
    if (rng.Uniform(2) == 0) {
      conn.Close();  // Disconnect, possibly mid-frame.
    } else {
      (void)conn.WaitForEof();
    }
  }
  EXPECT_TRUE(WaitForSessions(0));
  EXPECT_TRUE(WaitForActiveTxns(0)) << "fuzz leaked a transaction";
  // Real traffic still flows afterwards.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port()).ok());
  ASSERT_TRUE(client.Begin().ok());
  EXPECT_TRUE(client.CreateNode({"Survivor"}).ok());
  EXPECT_TRUE(client.Commit().ok());
}

TEST_F(ServerProtocolTest, PipelinedFramesAllAnswered) {
  // Two pings in one write: the loop that claims them executes the first,
  // sends its reply, then parses the second from the same buffer.
  RawConn conn;
  ASSERT_TRUE(conn.Connect(port()));
  ASSERT_TRUE(conn.Send(EncodeFrame(EncodePing()) +
                        EncodeFrame(EncodePing())));
  for (int i = 0; i < 2; ++i) {
    Status status = Status::IOError("no reply");
    ASSERT_TRUE(conn.RecvReply(&status)) << "reply " << i << " missing";
    EXPECT_TRUE(status.ok()) << "reply " << i << ": " << status;
  }
  // The session is still open and serving.
  EXPECT_TRUE(conn.Call(EncodePing()).ok());
}

// A request blocked in a Read Committed lock wait holds only the loop that
// claimed it. Both loops are first parked in lock waits behind an embedded
// transaction, so B's write and C's ping are both ready by the time the
// loops come back. A loop that claimed both at once, or a server with a
// single loop, would leave the ping behind B's wait for A's lock.
TEST_F(ServerProtocolTest, LockWaitDoesNotStallOtherSessions) {
  NodeId x = 0, y1 = 0, y2 = 0;
  {
    auto setup = db_->Begin(IsolationLevel::kReadCommitted);
    x = *setup->CreateNode({"X"});
    y1 = *setup->CreateNode({"Y"});
    y2 = *setup->CreateNode({"Y"});
    ASSERT_TRUE(setup->Commit().ok());
  }
  const std::string begin_rc =
      EncodeBegin(IsolationLevel::kReadCommitted, false);
  const PropertyValue one(int64_t{1});

  // Wait-die lets only an older transaction wait, so begin in age order:
  // D and E (the parkers), then B, then A, then the embedded holder.
  Client d, e;
  ASSERT_TRUE(d.Connect("127.0.0.1", port()).ok());
  ASSERT_TRUE(e.Connect("127.0.0.1", port()).ok());
  ASSERT_TRUE(d.Begin(IsolationLevel::kReadCommitted).ok());
  ASSERT_TRUE(e.Begin(IsolationLevel::kReadCommitted).ok());
  RawConn b, a, c;
  ASSERT_TRUE(b.Connect(port()));
  ASSERT_TRUE(a.Connect(port()));
  ASSERT_TRUE(c.Connect(port()));
  ASSERT_TRUE(b.Call(begin_rc).ok());
  ASSERT_TRUE(a.Call(begin_rc).ok());
  ASSERT_TRUE(a.Call(EncodeSetNodeProperty(x, "v", one)).ok());
  auto holder = db_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(holder->SetNodeProperty(y1, "v", one).ok());
  ASSERT_TRUE(holder->SetNodeProperty(y2, "v", one).ok());

  // Park both loops: D and E wait for the holder's locks.
  auto d_write = std::async(std::launch::async,
                            [&] { return d.SetNodeProperty(y1, "v", one); });
  auto e_write = std::async(std::launch::async,
                            [&] { return e.SetNodeProperty(y2, "v", one); });
  ASSERT_TRUE(WaitForLockWaiters(2));

  // Queue B's write and C's ping while no loop is free.
  ASSERT_TRUE(b.Send(EncodeFrame(EncodeSetNodeProperty(x, "v", one))));
  ASSERT_TRUE(c.Send(EncodeFrame(EncodePing())));
  ASSERT_TRUE(holder->Abort().ok());
  EXPECT_TRUE(d_write.get().ok());
  EXPECT_TRUE(e_write.get().ok());

  // B's write waits for A's lock; the other loop answers C, then A.
  ASSERT_TRUE(WaitForLockWaiters(1));
  Status ping = Status::IOError("no reply");
  ASSERT_TRUE(c.RecvReply(&ping)) << "ping stalled behind a lock wait";
  EXPECT_TRUE(ping.ok()) << ping;
  EXPECT_EQ(db_->Stats().locks.waiting, 1u);
  EXPECT_TRUE(a.Call(EncodeCommit()).ok());

  // A's commit released X: B's write goes through.
  Status write = Status::IOError("no reply");
  ASSERT_TRUE(b.RecvReply(&write));
  EXPECT_TRUE(write.ok()) << write;
  EXPECT_TRUE(b.Call(EncodeCommit()).ok());
}

TEST(ServerIdleTimeout, IdleSessionDroppedAndTxnAborted) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 0;
  auto db = std::move(*GraphDatabase::Open(options));
  ServerOptions server_options;
  server_options.workers = 4;  // The sweep runs on whichever loop wins it.
  server_options.idle_timeout_ms = 100;
  auto server = std::move(*Server::Start(db.get(), server_options));

  // An ACTIVE session is never swept: it pings every 30 ms, well inside the
  // window, the whole time the idle one below is being reaped.
  Client busy;
  ASSERT_TRUE(busy.Connect("127.0.0.1", server->port()).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(client.Begin().ok());
  EXPECT_EQ(db->Stats().active_txns, 1u);
  std::atomic<bool> stop_pinging{false};
  std::atomic<int> ping_failures{0};
  std::thread pinger([&] {
    while (!stop_pinging.load()) {
      if (!busy.Ping().ok()) ping_failures.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });

  // Go silent past the timeout: the sweep must reap us and abort the txn.
  bool dropped = false;
  for (int i = 0; i < 100 && !dropped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    dropped = server->sessions() == 1 && db->Stats().active_txns == 0;
  }
  EXPECT_TRUE(dropped);
  EXPECT_EQ(server->idle_drops(), 1u);
  EXPECT_EQ(db->Stats().active_txns, 0u);
  EXPECT_FALSE(client.Ping().ok());  // Our session is gone.

  // Keep pinging a few more windows; the busy session survives them all.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop_pinging.store(true);
  pinger.join();
  EXPECT_EQ(ping_failures.load(), 0);
  EXPECT_EQ(server->idle_drops(), 1u);
  EXPECT_TRUE(busy.Ping().ok());
  server->Stop();
}

// A request parked in a lock wait longer than the idle timeout is busy,
// not idle: the sweep must leave its session alone.
TEST(ServerIdleTimeout, RequestWaitingOnALockIsNotSwept) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 0;
  auto db = std::move(*GraphDatabase::Open(options));
  ServerOptions server_options;
  server_options.workers = 2;
  server_options.idle_timeout_ms = 50;
  auto server = std::move(*Server::Start(db.get(), server_options));

  NodeId x = 0;
  {
    auto setup = db->Begin(IsolationLevel::kReadCommitted);
    x = *setup->CreateNode({"X"});
    ASSERT_TRUE(setup->Commit().ok());
  }
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(client.Begin(IsolationLevel::kReadCommitted).ok());
  auto holder = db->Begin(IsolationLevel::kReadCommitted);  // Younger.
  ASSERT_TRUE(holder->SetNodeProperty(x, "v", int64_t{1}).ok());

  auto write = std::async(std::launch::async, [&] {
    return client.SetNodeProperty(x, "v", int64_t{2});
  });
  // Several idle windows pass while the write waits for the lock.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(holder->Abort().ok());
  EXPECT_TRUE(write.get().ok());
  EXPECT_TRUE(client.Commit().ok());
  EXPECT_EQ(server->idle_drops(), 0u);
  server->Stop();
}

// The sweep's shutdown() does not discard bytes already queued on the
// socket, so a swept session's owner can still read a request. Both loops
// are parked in lock waits while S, holding an open write, idles past the
// timeout and then sends its Commit; when the loops come back, one sweeps S
// before either claims it. The Commit must be answered OK or not applied —
// never applied with its reply lost, which a client retrying on IOError
// would apply twice.
TEST(ServerIdleTimeout, SweptRequestRunsWithItsReplyOrNotAtAll) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 0;
  auto db = std::move(*GraphDatabase::Open(options));
  ServerOptions server_options;
  server_options.workers = 2;
  server_options.idle_timeout_ms = 50;
  auto server = std::move(*Server::Start(db.get(), server_options));

  NodeId x = 0, y1 = 0, y2 = 0;
  {
    auto setup = db->Begin(IsolationLevel::kReadCommitted);
    x = *setup->CreateNode({"X"}, {{"v", PropertyValue(int64_t{0})}});
    y1 = *setup->CreateNode({"Y"});
    y2 = *setup->CreateNode({"Y"});
    ASSERT_TRUE(setup->Commit().ok());
  }
  const PropertyValue one(int64_t{1});
  // D and E (the parkers) begin before the embedded holder so wait-die
  // lets them wait.
  Client d, e, s;
  ASSERT_TRUE(d.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(e.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(s.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(d.Begin(IsolationLevel::kReadCommitted).ok());
  ASSERT_TRUE(e.Begin(IsolationLevel::kReadCommitted).ok());
  ASSERT_TRUE(s.Begin(IsolationLevel::kReadCommitted).ok());
  ASSERT_TRUE(s.SetNodeProperty(x, "v", PropertyValue(int64_t{7})).ok());
  auto holder = db->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(holder->SetNodeProperty(y1, "v", one).ok());
  ASSERT_TRUE(holder->SetNodeProperty(y2, "v", one).ok());

  auto d_write = std::async(std::launch::async,
                            [&] { return d.SetNodeProperty(y1, "v", one); });
  auto e_write = std::async(std::launch::async,
                            [&] { return e.SetNodeProperty(y2, "v", one); });
  ASSERT_TRUE(Eventually([&] { return db->Stats().locks.waiting == 2; }));

  // S idles past the timeout, then commits while no loop is free.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  auto commit = std::async(std::launch::async, [&] { return s.Commit(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(holder->Abort().ok());
  EXPECT_TRUE(d_write.get().ok());
  EXPECT_TRUE(e_write.get().ok());

  const Result<Timestamp> committed = commit.get();
  if (!committed.ok()) {
    // The client sees EOF at the sweep's shutdown(); read only once S's
    // owner has finished with its transaction and torn it down.
    ASSERT_TRUE(Eventually([&] { return server->sessions() == 2; }));
  }
  auto reader = db->Begin(IsolationLevel::kReadCommitted);
  auto v = reader->GetNodeProperty(x, "v");
  ASSERT_TRUE(v.ok()) << v.status();
  if (committed.ok()) {
    EXPECT_EQ(v->AsInt(), 7);
  } else {
    EXPECT_EQ(v->AsInt(), 0) << "Commit applied but its reply was lost ("
                             << committed.status() << ")";
  }
  ASSERT_TRUE(reader->Commit().ok());
  server->Stop();
}

// A loop parked in a lock wait reads no one's EOF. When every loop waits on
// a lock held by a wire session whose client then vanishes, the holder's
// disconnect is noticed only once a loop comes free, so the stall lasts up
// to the database's lock_timeout_ms. After it the holder is aborted and the
// server serves again.
TEST(ServerLoops, VanishedLockHolderStallsLoopsOnlyUntilLockTimeout) {
  DatabaseOptions options;
  options.background_gc_interval_ms = 0;
  options.lock_timeout_ms = 300;
  auto db = std::move(*GraphDatabase::Open(options));
  ServerOptions server_options;
  server_options.workers = 2;
  auto server = std::move(*Server::Start(db.get(), server_options));

  NodeId x = 0;
  {
    auto setup = db->Begin(IsolationLevel::kReadCommitted);
    x = *setup->CreateNode({"X"}, {{"v", PropertyValue(int64_t{0})}});
    ASSERT_TRUE(setup->Commit().ok());
  }
  // The waiters begin before the holder so wait-die lets them wait.
  Client w1, w2, h;
  ASSERT_TRUE(w1.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(w2.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(h.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(w1.Begin(IsolationLevel::kReadCommitted).ok());
  ASSERT_TRUE(w2.Begin(IsolationLevel::kReadCommitted).ok());
  ASSERT_TRUE(h.Begin(IsolationLevel::kReadCommitted).ok());
  ASSERT_TRUE(h.SetNodeProperty(x, "v", PropertyValue(int64_t{1})).ok());

  auto w1_write = std::async(std::launch::async, [&] {
    return w1.SetNodeProperty(x, "v", PropertyValue(int64_t{2}));
  });
  auto w2_write = std::async(std::launch::async, [&] {
    return w2.SetNodeProperty(x, "v", PropertyValue(int64_t{3}));
  });
  ASSERT_TRUE(Eventually([&] { return db->Stats().locks.waiting == 2; }));

  const auto vanished = std::chrono::steady_clock::now();
  h.Close();
  // Each waiter times out (retryable), or gets the lock once the other's
  // timeout freed a loop that reaped the holder.
  const Status r1 = w1_write.get();
  const Status r2 = w2_write.get();
  EXPECT_LT(std::chrono::steady_clock::now() - vanished,
            std::chrono::seconds(5));
  EXPECT_TRUE(r1.ok() || r1.IsRetryable()) << r1;
  EXPECT_TRUE(r2.ok() || r2.IsRetryable()) << r2;
  ASSERT_TRUE(Eventually([&] { return server->sessions() == 2; }))
      << "vanished holder never reaped";

  // The holder's write was aborted, and a new connection is served.
  EXPECT_TRUE(w1.Rollback().ok());
  EXPECT_TRUE(w2.Rollback().ok());
  auto reader = db->Begin(IsolationLevel::kReadCommitted);
  auto v = reader->GetNodeProperty(x, "v");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->AsInt(), 0);
  ASSERT_TRUE(reader->Commit().ok());
  Client late;
  ASSERT_TRUE(late.Connect("127.0.0.1", server->port()).ok());
  EXPECT_TRUE(late.Ping().ok());
  server->Stop();
}

}  // namespace
}  // namespace neosi
