#ifndef HM_HYPERMODEL_TYPES_H_
#define HM_HYPERMODEL_TYPES_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace hm {

/// A reference to a node, as returned by every operation ("a reference
/// to a node and not a copy of the node itself", §6). The encoding is
/// backend-specific: the OODB backend hands out object ids, the
/// relational backend key values (uniqueId), the in-memory backend
/// array indices. 0 is never a valid reference.
using NodeRef = uint64_t;

inline constexpr NodeRef kInvalidNode = 0;

/// Generalization hierarchy of Figure 1: `Node` is the (abstract)
/// base; leaves carry text or a bitmap form. `kDraw` is the DrawNode
/// type added dynamically by the schema-evolution extension (R4).
enum class NodeKind : uint8_t {
  kInternal = 0,
  kText = 1,
  kForm = 2,
  kDraw = 3,
};

/// The five integer attributes every node carries (Figure 1). The
/// paper's intervals: ten in [1,10], hundred in [1,100], thousand in
/// [1,1000], million in [1,1000000]; uniqueId numbers the nodes.
enum class Attr : uint8_t {
  kUniqueId = 0,
  kTen = 1,
  kHundred = 2,
  kThousand = 3,
  kMillion = 4,
};

/// Attribute values at node-creation time.
struct NodeAttrs {
  int64_t unique_id = 0;
  int64_t ten = 0;
  int64_t hundred = 0;
  int64_t thousand = 0;
  int64_t million = 0;
  NodeKind kind = NodeKind::kInternal;
};

/// One refTo/refFrom edge with its offset attributes (Figure 4): the
/// M-N association relationship forms a directed weighted graph with
/// per-direction weights.
struct RefEdge {
  NodeRef node = kInvalidNode;
  int64_t offset_from = 0;
  int64_t offset_to = 0;
};

/// Node-and-distance pair returned by closureMNAttLinkSum (op /*18*/).
struct NodeDistance {
  NodeRef node = kInvalidNode;
  int64_t distance = 0;
};

/// One index-scan hit with its sort keys: the indexed attribute's value
/// and the node's uniqueId. A fleet's range lookups answer in the
/// canonical order `KeyedRefLess` defines — each shard sorts its own
/// hits, the routing client merges the shards' runs.
struct KeyedRef {
  NodeRef node = kInvalidNode;
  int64_t value = 0;
  int64_t unique_id = 0;
};

/// Canonical cluster scan order: by value, ties broken by uniqueId.
inline bool KeyedRefLess(const KeyedRef& a, const KeyedRef& b) {
  return a.value != b.value ? a.value < b.value : a.unique_id < b.unique_id;
}

inline std::string_view NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kInternal:
      return "Node";
    case NodeKind::kText:
      return "TextNode";
    case NodeKind::kForm:
      return "FormNode";
    case NodeKind::kDraw:
      return "DrawNode";
  }
  return "?";
}

}  // namespace hm

#endif  // HM_HYPERMODEL_TYPES_H_
