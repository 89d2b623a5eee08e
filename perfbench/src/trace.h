// In-memory spans around the benchmark's calls into each engine layer.
//
// One Tracer per client thread. A traced transaction opens a root `txn`
// span; every timed call inside it records a child span (layer, start,
// duration, parent index, transaction id). Spans stay in memory until the
// run ends, when the harness derives per-layer numbers and writes them out.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t {
  kTxn = 0,     ///< Root: Begin .. Commit return of one attempt.
  kBegin,       ///< GraphDatabase::Begin
  kWrite,       ///< Transaction::Set* / Create*
  kCommit,      ///< Transaction::Commit
  kExpand,      ///< Transaction::GetRelationships
  kRead,        ///< Transaction::GetNodeProperty / GetRelationship
  kIndex,       ///< Transaction::GetNodesByProperty
  kWireBegin,   ///< Client::Begin round trip
  kWireRead,    ///< Client::GetNodeProperty / GetNodesByProperty
  kWireWrite,   ///< Client::SetNodeProperty
  kWireCommit,  ///< Client::Commit round trip
  kCount,
};

const char* LayerName(Layer layer);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  uint64_t start_ns = 0;
  uint64_t txn = 0;
  uint32_t dur_ns = 0;
  uint32_t parent = kNoParent;
  Layer layer = Layer::kTxn;

  static constexpr uint32_t kNoParent = UINT32_MAX;
};

class Tracer {
 public:
  /// Starts one transaction attempt; records spans for it only if `traced`.
  void StartTxn(bool traced) {
    on_ = traced;
    if (!on_) return;
    root_ = static_cast<uint32_t>(spans_.size());
    spans_.push_back(Span{NowNs(), 0, 0, Span::kNoParent, Layer::kTxn});
  }

  /// Tags the open transaction (called once Begin has returned its id).
  void SetTxn(uint64_t id) {
    if (on_) spans_[root_].txn = id;
  }

  void EndTxn() {
    if (!on_) return;
    Span& root = spans_[root_];
    root.dur_ns = static_cast<uint32_t>(NowNs() - root.start_ns);
    for (size_t i = root_ + 1; i < spans_.size(); ++i) spans_[i].txn = root.txn;
    on_ = false;
  }

  /// Runs `f`, recording a `layer` span around it when tracing.
  template <class F>
  auto Time(Layer layer, F&& f) -> decltype(f()) {
    if (!on_) return f();
    const uint64_t start = NowNs();
    auto result = f();
    spans_.push_back(Span{start, 0, static_cast<uint32_t>(NowNs() - start),
                          root_, layer});
    return result;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  uint32_t root_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
