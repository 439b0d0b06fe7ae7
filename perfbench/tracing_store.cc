#include "perfbench/tracing_store.h"

namespace perfbench {

namespace hu = hm::util;
using hm::Attr;
using hm::NodeRef;

const char* MethodName(Method method) {
  switch (method) {
    case Method::kGetAttr: return "get_attr";
    case Method::kSetAttr: return "set_attr";
    case Method::kChildren: return "children";
    case Method::kParent: return "parent";
    case Method::kParts: return "parts";
    case Method::kPartOf: return "part_of";
    case Method::kRefsTo: return "refs_to";
    case Method::kRefsFrom: return "refs_from";
    case Method::kLookupUnique: return "lookup_unique";
    case Method::kRange: return "range";
    case Method::kGetText: return "get_text";
    case Method::kSetText: return "set_text";
    case Method::kGetForm: return "get_form";
    case Method::kSetForm: return "set_form";
    case Method::kBegin: return "begin";
    case Method::kCommit: return "commit";
    case Method::kCloseReopen: return "close_reopen";
    case Method::kTraversal: return "traversal";
    case Method::kOther: return "other";
  }
  return "other";
}

namespace {

#define PB_SPAN(method) \
  ScopedSpan span_(tracer_, Layer::kStore, static_cast<uint16_t>(method))

/// The decorator proper: every HyperStore method, forwarded.
class TracingStore : public hm::HyperStore {
 public:
  TracingStore(hm::HyperStore* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  bool SupportsConcurrentReads() const override {
    return inner_->SupportsConcurrentReads();
  }

  hu::Status Begin() override {
    PB_SPAN(Method::kBegin);
    return inner_->Begin();
  }
  hu::Status Commit() override {
    PB_SPAN(Method::kCommit);
    return inner_->Commit();
  }
  hu::Status Abort() override {
    PB_SPAN(Method::kOther);
    return inner_->Abort();
  }
  hu::Status CloseReopen() override {
    PB_SPAN(Method::kCloseReopen);
    return inner_->CloseReopen();
  }

  hu::Result<NodeRef> CreateNode(const hm::NodeAttrs& attrs,
                                 NodeRef near) override {
    PB_SPAN(Method::kOther);
    return inner_->CreateNode(attrs, near);
  }
  hu::Status SetText(NodeRef node, std::string_view text) override {
    PB_SPAN(Method::kSetText);
    return inner_->SetText(node, text);
  }
  hu::Status SetForm(NodeRef node, const hu::Bitmap& form) override {
    PB_SPAN(Method::kSetForm);
    return inner_->SetForm(node, form);
  }
  hu::Status AddChild(NodeRef parent, NodeRef child) override {
    PB_SPAN(Method::kOther);
    return inner_->AddChild(parent, child);
  }
  hu::Status AddPart(NodeRef owner, NodeRef part) override {
    PB_SPAN(Method::kOther);
    return inner_->AddPart(owner, part);
  }
  hu::Status AddRef(NodeRef from, NodeRef to, int64_t offset_from,
                    int64_t offset_to) override {
    PB_SPAN(Method::kOther);
    return inner_->AddRef(from, to, offset_from, offset_to);
  }

  hu::Result<int64_t> GetAttr(NodeRef node, Attr attr) override {
    PB_SPAN(Method::kGetAttr);
    return inner_->GetAttr(node, attr);
  }
  hu::Status SetAttr(NodeRef node, Attr attr, int64_t value) override {
    PB_SPAN(Method::kSetAttr);
    return inner_->SetAttr(node, attr, value);
  }
  hu::Result<hm::NodeKind> GetKind(NodeRef node) override {
    PB_SPAN(Method::kOther);
    return inner_->GetKind(node);
  }
  hu::Result<std::string> GetText(NodeRef node) override {
    PB_SPAN(Method::kGetText);
    return inner_->GetText(node);
  }
  hu::Result<hu::Bitmap> GetForm(NodeRef node) override {
    PB_SPAN(Method::kGetForm);
    return inner_->GetForm(node);
  }
  hu::Status SetContents(NodeRef node, std::string_view data) override {
    PB_SPAN(Method::kOther);
    return inner_->SetContents(node, data);
  }
  hu::Result<std::string> GetContents(NodeRef node) override {
    PB_SPAN(Method::kOther);
    return inner_->GetContents(node);
  }

  hu::Result<NodeRef> LookupUnique(int64_t unique_id) override {
    PB_SPAN(Method::kLookupUnique);
    return inner_->LookupUnique(unique_id);
  }
  hu::Status RangeHundred(int64_t lo, int64_t hi,
                          std::vector<NodeRef>* out) override {
    PB_SPAN(Method::kRange);
    return inner_->RangeHundred(lo, hi, out);
  }
  hu::Status RangeMillion(int64_t lo, int64_t hi,
                          std::vector<NodeRef>* out) override {
    PB_SPAN(Method::kRange);
    return inner_->RangeMillion(lo, hi, out);
  }

  hu::Status Children(NodeRef node, std::vector<NodeRef>* out) override {
    PB_SPAN(Method::kChildren);
    return inner_->Children(node, out);
  }
  hu::Result<NodeRef> Parent(NodeRef node) override {
    PB_SPAN(Method::kParent);
    return inner_->Parent(node);
  }
  hu::Status Parts(NodeRef node, std::vector<NodeRef>* out) override {
    PB_SPAN(Method::kParts);
    return inner_->Parts(node, out);
  }
  hu::Status PartOf(NodeRef node, std::vector<NodeRef>* out) override {
    PB_SPAN(Method::kPartOf);
    return inner_->PartOf(node, out);
  }
  hu::Status RefsTo(NodeRef node, std::vector<hm::RefEdge>* out) override {
    PB_SPAN(Method::kRefsTo);
    return inner_->RefsTo(node, out);
  }
  hu::Status RefsFrom(NodeRef node, std::vector<hm::RefEdge>* out) override {
    PB_SPAN(Method::kRefsFrom);
    return inner_->RefsFrom(node, out);
  }

  hu::Result<uint64_t> StorageBytes() override {
    PB_SPAN(Method::kOther);
    return inner_->StorageBytes();
  }

 protected:
  hm::HyperStore* inner_;
  Tracer* tracer_;
};

class TracingTraversalStore final : public TracingStore,
                                    public hm::TraversalCapable {
 public:
  TracingTraversalStore(hm::HyperStore* inner, hm::TraversalCapable* trav,
                        Tracer* tracer)
      : TracingStore(inner, tracer), trav_(trav) {}

  hu::Status BulkGetAttr(std::span<const NodeRef> nodes, Attr attr,
                         std::vector<int64_t>* values) override {
    PB_SPAN(Method::kTraversal);
    return trav_->BulkGetAttr(nodes, attr, values);
  }
  hu::Status TravClosure1N(NodeRef start,
                           std::vector<NodeRef>* out) override {
    PB_SPAN(Method::kTraversal);
    return trav_->TravClosure1N(start, out);
  }
  hu::Result<int64_t> TravClosure1NAttSum(NodeRef start,
                                          uint64_t* visited) override {
    PB_SPAN(Method::kTraversal);
    return trav_->TravClosure1NAttSum(start, visited);
  }
  hu::Result<uint64_t> TravClosure1NAttSet(NodeRef start) override {
    PB_SPAN(Method::kTraversal);
    return trav_->TravClosure1NAttSet(start);
  }
  hu::Status TravClosure1NPred(NodeRef start, int64_t lo, int64_t hi,
                               std::vector<NodeRef>* out) override {
    PB_SPAN(Method::kTraversal);
    return trav_->TravClosure1NPred(start, lo, hi, out);
  }
  hu::Status TravClosureMN(NodeRef start,
                           std::vector<NodeRef>* out) override {
    PB_SPAN(Method::kTraversal);
    return trav_->TravClosureMN(start, out);
  }
  hu::Status TravClosureMNAtt(NodeRef start, int depth,
                              std::vector<NodeRef>* out) override {
    PB_SPAN(Method::kTraversal);
    return trav_->TravClosureMNAtt(start, depth, out);
  }
  hu::Status TravClosureMNAttLinkSum(
      NodeRef start, int depth, std::vector<hm::NodeDistance>* out) override {
    PB_SPAN(Method::kTraversal);
    return trav_->TravClosureMNAttLinkSum(start, depth, out);
  }

 private:
  hm::TraversalCapable* trav_;
};

class TracingPipelinedStore final : public TracingStore,
                                    public hm::PipelinedCommitCapable {
 public:
  TracingPipelinedStore(hm::HyperStore* inner,
                        hm::PipelinedCommitCapable* pipelined, Tracer* tracer)
      : TracingStore(inner, tracer), pipelined_(pipelined) {}

  hu::Result<uint64_t> CommitBegin() override {
    PB_SPAN(Method::kCommit);
    return pipelined_->CommitBegin();
  }
  hu::Status CommitWait(uint64_t ticket) override {
    PB_SPAN(Method::kCommit);
    return pipelined_->CommitWait(ticket);
  }

 private:
  hm::PipelinedCommitCapable* pipelined_;
};

#undef PB_SPAN

}  // namespace

std::unique_ptr<hm::HyperStore> TraceStore(hm::HyperStore* inner,
                                           Tracer* tracer) {
  auto* trav = dynamic_cast<hm::TraversalCapable*>(inner);
  auto* pipelined = dynamic_cast<hm::PipelinedCommitCapable*>(inner);
  if (trav != nullptr && pipelined != nullptr) return nullptr;
  if (trav != nullptr) {
    return std::make_unique<TracingTraversalStore>(inner, trav, tracer);
  }
  if (pipelined != nullptr) {
    return std::make_unique<TracingPipelinedStore>(inner, pipelined, tracer);
  }
  return std::make_unique<TracingStore>(inner, tracer);
}

}  // namespace perfbench
