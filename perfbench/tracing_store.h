// Span recording for the traced run: a per-thread in-memory span log
// and a timing decorator around a HyperStore. The decorator forwards
// every call unchanged and, where the wrapped store implements
// TraversalCapable or PipelinedCommitCapable, implements the same
// interface, so `ops::`'s dynamic_cast discovery (pushdown closures,
// bulk attribute reads) takes the same path through the decorator as
// it does on the bare store.
#ifndef HM_PERFBENCH_TRACING_STORE_H_
#define HM_PERFBENCH_TRACING_STORE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hypermodel/store.h"
#include "hypermodel/traversal.h"

namespace perfbench {

/// Span layers, outermost first. kPhase spans are the benchmark's own
/// timed regions (a protocol phase, a mix loop); kOp spans are one
/// `hm::ops::` call (module hypermodel); kStore spans are one call
/// into the HyperStore surface (module backends and everything below
/// it, including the wire for remote stores).
enum class Layer : uint8_t { kPhase, kOp, kStore };

/// HyperStore methods as the per-layer metrics name them. kTraversal
/// covers every TraversalCapable call (pushdown closures and
/// BulkGetAttr); kOther everything the workloads do not time.
enum class Method : uint16_t {
  kGetAttr,
  kSetAttr,
  kChildren,
  kParent,
  kParts,
  kPartOf,
  kRefsTo,
  kRefsFrom,
  kLookupUnique,
  kRange,
  kGetText,
  kSetText,
  kGetForm,
  kSetForm,
  kBegin,
  kCommit,
  kCloseReopen,
  kTraversal,
  kOther,
};
inline constexpr int kMethods = static_cast<int>(Method::kOther) + 1;
const char* MethodName(Method method);

/// Phase span names.
enum class PhaseName : uint16_t { kCold, kWarm, kMix };

struct Span {
  uint64_t start_ns = 0;  // since the tracer's epoch
  uint64_t dur_ns = 0;
  uint32_t parent = 0;    // index + 1 of the enclosing span, 0 = root
  uint16_t name = 0;      // PhaseName, hm::OpId or Method by layer
  Layer layer = Layer::kPhase;
  uint8_t thread = 0;
};

/// One thread's span log. Not thread-safe: each client thread owns
/// its own Tracer (and its own decorator).
class Tracer {
 public:
  explicit Tracer(uint8_t thread) : thread_(thread) {}

  uint32_t Open(Layer layer, uint16_t name) {
    Span span;
    span.start_ns = Now();
    span.parent = stack_.empty() ? 0 : stack_.back() + 1;
    span.name = name;
    span.layer = layer;
    span.thread = thread_;
    spans_.push_back(span);
    stack_.push_back(static_cast<uint32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void Close(uint32_t index) {
    spans_[index].dur_ns = Now() - spans_[index].start_ns;
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  static uint64_t Now() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  uint8_t thread_;
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, uint16_t name) : tracer_(tracer) {
    if (tracer_ != nullptr) index_ = tracer_->Open(layer, name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t index_ = 0;
};

/// Wraps `inner` (not owned) in a timing decorator that records one
/// kStore span per call into `tracer`. The result implements
/// TraversalCapable / PipelinedCommitCapable exactly when `inner`
/// does. Fails for a store implementing both, which no backend does.
std::unique_ptr<hm::HyperStore> TraceStore(hm::HyperStore* inner,
                                           Tracer* tracer);

}  // namespace perfbench

#endif  // HM_PERFBENCH_TRACING_STORE_H_
