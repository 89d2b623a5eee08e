// Cached node / relationship objects.
//
// Paper §4: "Versions are kept in the Object Cache of Neo4j. In particular,
// each object representing a node or relationship stores a list of
// versions." These are those objects. Relationship topology (src/dst/type)
// is immutable for the life of the relationship and lives directly on the
// cached object; the mutable state (labels, properties, existence) lives in
// the version chain.

#ifndef NEOSI_CACHE_CACHED_ENTITY_H_
#define NEOSI_CACHE_CACHED_ENTITY_H_

#include <memory>

#include "common/types.h"
#include "mvcc/version_chain.h"

namespace neosi {

/// A node resident in the object cache. `epochs` is the engine's manager,
/// handed through by the ObjectCache (see VersionChain).
struct CachedNode {
  CachedNode(NodeId id, EpochManager& epochs) : id(id), chain(epochs) {}

  const NodeId id;
  VersionChain chain;
};

/// A relationship resident in the object cache.
struct CachedRel {
  CachedRel(RelId id, NodeId src, NodeId dst, RelTypeId type,
            EpochManager& epochs)
      : id(id), src(src), dst(dst), type(type), chain(epochs) {}

  const RelId id;
  const NodeId src;
  const NodeId dst;
  const RelTypeId type;
  VersionChain chain;
};

}  // namespace neosi

#endif  // NEOSI_CACHE_CACHED_ENTITY_H_
