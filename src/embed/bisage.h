#ifndef GEM_EMBED_BISAGE_H_
#define GEM_EMBED_BISAGE_H_

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "base/thread_pool.h"
#include "embed/embedder.h"
#include "graph/bipartite_graph.h"
#include "graph/graph_delta.h"
#include "math/autograd.h"
#include "math/kernels.h"
#include "math/optimizer.h"
#include "math/rng.h"

namespace gem::math {
class FlatTape;
}  // namespace gem::math

namespace gem::embed {

/// Hyperparameters of BiSAGE (Section IV-B). Defaults follow the
/// paper's tuned values (d = 32, lr = 0.003, K_N = 4) with sampling
/// and epoch sizes chosen so a full training run takes a couple of
/// seconds on one core.
struct BiSageConfig {
  int dimension = 32;
  /// K: number of aggregation layers.
  int num_layers = 2;
  /// Per-layer neighborhood sample sizes, outermost layer first
  /// (fanouts[0] neighbors of the target, fanouts[1] of each of those).
  std::vector<int> fanouts = {6, 4};
  int walks_per_node = 2;
  int walk_length = 5;
  int epochs = 4;
  /// K_N in Equation (8).
  int num_negatives = 4;
  double learning_rate = 0.003;
  /// Training pairs accumulated per optimizer step.
  int batch_pairs = 16;
  /// Per-layer sample sizes used at inference time. A value <= 0
  /// aggregates the FULL neighborhood with exact normalized weights —
  /// deterministic, variance-free embeddings (the default). Empty
  /// means "same as fanouts".
  std::vector<int> inference_fanouts = {0, 0};
  /// Ablation switch: false replaces the weight-proportional neighbor
  /// sampling, weighted aggregation coefficients, and weighted random
  /// walks with uniform ones (the bi-level aggregation is kept). Used
  /// by the ablation bench to isolate the value of Section IV-B's
  /// non-uniform sampling.
  bool use_edge_weights = true;
  /// Inference-time aggregation skips MAC nodes with degree below
  /// this. A MAC seen in a single record ever (e.g., a passer-by's
  /// phone) has no relational information — its fixed random feature
  /// is pure noise — so it is excluded until it recurs. Set to 1 to
  /// disable the filter.
  int min_mac_degree = 2;
  uint64_t seed = 13;
  /// Worker threads used by Train() and batched inference. Runtime
  /// knob only: it does not change the model and is not persisted in
  /// snapshots.
  int num_threads = 1;
  /// When true, training draws every random walk from a per-node RNG
  /// stream and reduces gradients one training pair at a time on the
  /// calling thread, so the learned weights are bit-identical at ANY
  /// thread count (including 1). When false (the default), gradient
  /// shards of batch_pairs pairs each run as one coarse pool task per
  /// shard, with up to num_threads shards folded tree-wise into a
  /// single optimizer step per wave (the effective optimizer batch is
  /// num_threads * batch_pairs at full occupancy): still fully
  /// deterministic for a fixed num_threads, and near-linearly faster
  /// with threads. Runtime knob only, not persisted.
  bool deterministic = false;

  /// kInvalidArgument describing the first offending field, Ok
  /// otherwise. Checked by BiSage at construction (softly: Train()
  /// reports it) and by Gem/serve at their entry points.
  Status Validate() const;
};

/// Per-overlay extension of BiSage's fixed initial-embedding tables:
/// rows for nodes appended after the base froze, drawn from a
/// continuation of the base's init stream — so every row matches, bit
/// for bit, what a mutable base's lazy EnsureCapacity would have
/// drawn. Caller-owned (one per overlay/fence); bound to a specific
/// BiSage base on first use, after which that base's tables must not
/// grow.
class NodeTableDelta {
 public:
  NodeTableDelta() = default;

  bool empty() const { return h_rows_.rows() == 0; }
  /// Base table row count this delta was bound to (-1 until bound).
  int base_rows() const { return base_rows_; }
  const math::Matrix& h_rows() const { return h_rows_; }
  const math::Matrix& l_rows() const { return l_rows_; }

 private:
  friend class BiSage;
  int base_rows_ = -1;
  math::Matrix h_rows_;
  math::Matrix l_rows_;
  // Continuation of the base init stream, seeded from its saved state
  // at bind time.
  math::Rng rng_{0};
};

/// BiSAGE: inductive bipartite network embedding with bi-level
/// aggregation (paired primary/auxiliary embeddings per node),
/// weight-proportional neighborhood sampling, weighted random walks,
/// and the negative-sampling loss of Equation (8).
///
/// Following the paper, the learnable parameters are the per-layer
/// weight matrices {W_h^k}, {W_l^k}; the initial embeddings (h^0, l^0)
/// are fixed at creation ("chosen randomly"). MAC nodes carry fixed
/// random feature vectors (their identity); record nodes start at zero
/// so that a record's embedding is a pure function of its weighted MAC
/// membership — which is what makes the inductive embedding of brand-
/// new records (Section V-A) consistent with training.
class BiSage {
 public:
  /// An invalid config is held rather than CHECKed: Train() returns
  /// config_status() so callers (CLI flags, service config) surface it
  /// as kInvalidArgument instead of crashing.
  explicit BiSage(BiSageConfig config);

  /// Trains the weight matrices on the graph; the graph must contain
  /// at least one edge. Can be called again after the graph grows to
  /// fine-tune (not required for inference). Runs on
  /// config().num_threads workers; see BiSageConfig::deterministic for
  /// the reproducibility contract.
  Status Train(const graph::BipartiteGraph& graph);

  /// Primary embedding h^K of a node via K rounds of bi-level
  /// aggregation with the learned weights. Nodes unseen at Train()
  /// time are initialized on first touch. Deterministic given the
  /// node's sampled neighborhoods (internally seeded per node).
  /// Convenience wrapper over EmbedForward with a per-thread scratch.
  math::Vec PrimaryEmbedding(const graph::BipartiteGraph& graph,
                             graph::NodeId node) const;

  /// Overlay counterpart of PrimaryEmbedding: reads the frozen base
  /// (graph + tables, possibly mmap-backed) through `view` and lands
  /// every table-row append in `tables`. Bit-identical to the mutable
  /// path for the same sequence of appended records.
  math::Vec PrimaryEmbedding(const graph::OverlayGraphView& view,
                             NodeTableDelta& tables,
                             graph::NodeId node) const;

  /// Auxiliary embedding l^K (used by tests and diagnostics).
  math::Vec AuxiliaryEmbedding(const graph::BipartiteGraph& graph,
                               graph::NodeId node) const;

  /// Reusable workspace for the tape-free forward pass (EmbedForward).
  /// Holds a 32-byte-aligned value arena addressed by (node, layer)
  /// offsets, per-layer aggregation/concat temporaries, and neighbor
  /// buffers. One instance per thread; after the first call on a graph
  /// neighborhood of typical size, subsequent calls are allocation-free
  /// (buffers are reset, not released).
  class InferScratch {
   public:
    InferScratch() = default;

    /// Neighbour rows aggregated (Equations (3)/(5) terms summed) by
    /// the last EmbedForward through this scratch. Bounded by the
    /// query's own two-hop fan-in, not by the graph's history: a MAC's
    /// record neighbours contribute nothing (see ForwardNode).
    long aggregated_rows() const { return aggregated_rows_; }

   private:
    friend class BiSage;
    void Reset(int num_layers, int dimension);

    /// Computed (h, l) values, one 2*d slab per memoized (node, layer);
    /// memo_ maps MemoKey(node, layer) to the slab's h offset (l at +d).
    math::kernels::AlignedVec arena_;
    std::unordered_map<long, size_t> memo_;
    /// Per layer: [h_agg d | l_agg d | concat 2d]. Stable storage, so
    /// aggregation can accumulate while child recursion grows arena_.
    math::kernels::AlignedVec temps_;
    /// Per-layer sampled-neighbor and coefficient buffers.
    std::vector<std::vector<graph::Neighbor>> sampled_;
    std::vector<math::Vec> coeffs_;
    long aggregated_rows_ = 0;
  };

  /// Tape-free forward-only inference: evaluates Equations (3)-(7) for
  /// `node` directly into caller-provided buffers — no Tape node
  /// allocation, no per-node Vec copies. h_out / l_out must each hold
  /// dimension() doubles (either may be null to skip that side; no
  /// alignment required). Numerically identical to the removed
  /// tape-style inference path: same per-node RNG stream, same
  /// aggregation order, same MAC filtering. This is the hot path under
  /// EmbedNew/EmbedNewBatch and the serving engine's Infer*.
  void EmbedForward(const graph::BipartiteGraph& graph, graph::NodeId node,
                    InferScratch& scratch, double* h_out,
                    double* l_out = nullptr) const;

  /// Overlay counterpart of EmbedForward: the base graph/tables are
  /// only read (safe over an mmap-backed base shared across fences);
  /// lazily-initialized rows for post-base nodes grow `tables`.
  void EmbedForward(const graph::OverlayGraphView& view,
                    NodeTableDelta& tables, graph::NodeId node,
                    InferScratch& scratch, double* h_out,
                    double* l_out = nullptr) const;

  /// Makes concurrent PrimaryEmbedding/AuxiliaryEmbedding calls over
  /// `graph` safe: grows the node tables to cover the whole graph and,
  /// when some inference fanout samples (> 0), warms the graph's
  /// sampling caches, so the parallel reads that follow touch no
  /// lazily-built state. Must be re-run after the graph grows. Called
  /// by EmbedNewBatch; callers doing their own fan-out call it once
  /// before spawning.
  void PrepareInference(const graph::BipartiteGraph& graph) const;

  /// Overlay counterpart of PrepareInference: grows the delta tables
  /// to cover the merged graph and, when inference samples, warms
  /// base + delta sampling caches. Must be re-run after the delta
  /// grows.
  void PrepareInference(const graph::OverlayGraphView& view,
                        NodeTableDelta& tables) const;

  /// Mean training loss of the last epoch (diagnostic).
  double last_epoch_loss() const { return last_epoch_loss_; }
  const BiSageConfig& config() const { return config_; }
  /// Result of config().Validate() at construction.
  const Status& config_status() const { return config_status_; }
  bool trained() const { return trained_; }

  /// The worker pool backing Train() and batched inference
  /// (config().num_threads threads), created on first use and reused
  /// across epochs and batches.
  ThreadPool& thread_pool() const;

  /// Snapshot support (store/snapshot_v2.cc): everything Train() learned
  /// plus the lazily-grown node tables and their init stream, so a
  /// restored model embeds future nodes bit-identically to the
  /// original process. Optimizer moments are NOT persisted: a
  /// fine-tuning Train() after restore starts Adam fresh.
  struct TrainedState {
    math::Matrix h_table;
    math::Matrix l_table;
    std::vector<math::Matrix> w_h;
    std::vector<math::Matrix> w_l;
    math::Rng::State init_rng;
    int trained_nodes = 0;
    double last_epoch_loss = 0.0;
  };
  TrainedState ExportTrained() const;
  /// Merged trained state for overlay compaction: base tables with the
  /// delta rows appended and the init stream advanced past the delta's
  /// draws. Every matrix in the result owns its bytes (safe to keep
  /// after the base's backing storage unmaps).
  TrainedState ExportTrained(const NodeTableDelta& tables) const;
  /// Overwrites the learned state; shapes must match this model's
  /// config (dimension d, per-layer d x 2d weights).
  Status RestoreTrained(TrainedState state);

 private:
  struct NodeVars {
    math::VarId h;
    math::VarId l;
  };

  /// One gradient shard's reusable engine state (tape + private sink +
  /// memo), allocated once per Train() and reused across every wave of
  /// every epoch so the steady-state gradient stage is allocation-free.
  /// Defined in bisage.cc.
  struct GradShard;

  using TrainPair = std::pair<graph::NodeId, graph::NodeId>;

  /// Grows the fixed initial-embedding tables to cover node ids
  /// < count (random rows for MAC nodes, zero rows for record nodes).
  void EnsureCapacity(const graph::BipartiteGraph& graph, int count) const;

  /// Overlay analogue of EnsureCapacity: binds `tables` to this base
  /// on first call (freezing the base tables), then grows the DELTA
  /// rows to cover node ids < count with the same draw order and
  /// MAC/record rule as EnsureCapacity.
  void EnsureOverlayCapacity(const graph::OverlayGraphView& view,
                             NodeTableDelta& tables, int count) const;

  /// Builds the (h^k, l^k) computation for `node` on the tape,
  /// memoized per (node, layer) within the current gradient shard.
  NodeVars BuildNodeVars(math::FlatTape& tape,
                         const graph::BipartiteGraph& graph,
                         graph::NodeId node, int layer, math::Rng& rng,
                         std::unordered_map<long, NodeVars>& memo) const;

  /// Adds the Equation (8) loss terms of pairs[begin, end) to the tape
  /// (positives plus num_negatives sampled negatives per pair), sharing
  /// `memo` across the range. Accumulates the loss value and term count.
  void AccumulateShardLoss(math::FlatTape& tape,
                           const graph::BipartiteGraph& graph,
                           const std::vector<TrainPair>& pairs, size_t begin,
                           size_t end, math::Rng& rng,
                           std::unordered_map<long, NodeVars>& memo,
                           double& loss, long& terms) const;

  /// One staged-pipeline gradient task: resets the shard's engine
  /// state, seeds its RNG from `stream`, builds and backpropagates the
  /// loss of pairs[begin, end) into the shard's private sink. Runs on a
  /// pool worker (or inline); touches no shared mutable state.
  void RunGradShard(GradShard& shard, const graph::BipartiteGraph& graph,
                    const std::vector<TrainPair>& pairs, size_t begin,
                    size_t end, uint64_t stream) const;

  /// Forward-pass contexts: one reads the base graph/tables directly,
  /// the other reads base + overlay through OverlayGraphView /
  /// NodeTableDelta. Both expose the same surface, so ForwardNode is
  /// written once (defined in bisage.cc; all instantiations live
  /// there).
  struct BaseCtx;
  struct OverlayCtx;

  /// Shared body of both EmbedForward overloads: seeds the node's
  /// stream, runs ForwardNode and copies the top-layer slab out.
  template <typename Ctx>
  void EmbedWith(const Ctx& ctx, graph::NodeId node, InferScratch& scratch,
                 double* h_out, double* l_out) const;

  /// Recursive worker of EmbedForward: returns the arena offset of the
  /// memoized (h^layer, l^layer) slab for `node`.
  template <typename Ctx>
  size_t ForwardNode(const Ctx& ctx, graph::NodeId node, int layer,
                     math::Rng& rng, InferScratch& scratch) const;

  /// True when some inference fanout is > 0, i.e. inference draws
  /// neighbour samples and needs warm sampling caches.
  bool SamplesAtInference() const;

  BiSageConfig config_;
  Status config_status_;
  // Fixed initial embeddings; mutable so inference can lazily append
  // rows for nodes that joined the graph after training.
  mutable math::Matrix h_table_;
  mutable math::Matrix l_table_;
  mutable math::Rng init_rng_;
  /// Node count when Train() last ran: MAC nodes added later carry
  /// features the weight matrices never saw, so inference aggregation
  /// skips them (they still count toward graph connectivity).
  int trained_nodes_ = 0;
  std::vector<std::unique_ptr<math::Parameter>> w_h_;
  std::vector<std::unique_ptr<math::Parameter>> w_l_;
  std::unique_ptr<math::Adam> adam_;
  mutable std::unique_ptr<ThreadPool> pool_;
  double last_epoch_loss_ = 0.0;
  bool trained_ = false;
};

/// Mutable per-fence state for the read-only embedding path: graph
/// appends (new records/MACs, touched base rows) and lazily-drawn
/// node-table rows land here while the base embedder stays frozen.
/// One instance per overlay (core::GemOverlay owns one per fence).
struct EmbedderOverlay {
  graph::GraphDelta graph;
  NodeTableDelta tables;

  bool empty() const { return graph.empty() && tables.empty(); }
};

/// RecordEmbedder adapter: owns a BipartiteGraph + BiSage, maps
/// records to graph nodes, and adds new records to the graph at
/// EmbedNew time.
class BiSageEmbedder : public RecordEmbedder {
 public:
  explicit BiSageEmbedder(BiSageConfig config = {},
                          graph::EdgeWeightConfig weight_config = {});

  Status Fit(const std::vector<rf::ScanRecord>& train) override;
  math::Vec TrainEmbedding(int i) const override;
  int num_train() const override { return num_train_; }
  StatusOr<math::Vec> EmbedNew(const rf::ScanRecord& record) override;
  int dimension() const override { return model_.config().dimension; }

  /// Batched EmbedNew on the model's thread pool. All records are
  /// appended to the graph first, in input order (so each record's
  /// connectivity check sees every earlier record of the batch, same
  /// as sequential EmbedNew calls), then embedded in parallel against
  /// the batch-complete graph. Per-node RNG streams make the result
  /// bit-identical at any thread count. Slot i carries record i's
  /// embedding, kNotFound (no shared MAC), or kFailedPrecondition
  /// (model not trained).
  std::vector<StatusOr<math::Vec>> EmbedNewBatch(
      const std::vector<rf::ScanRecord>& records);

  /// Read-side EmbedNew: the base graph/model are only read, all
  /// appends land in `overlay`. Same semantics as EmbedNew (the record
  /// is always appended — to the delta — and kNotFound signals no
  /// shared MAC), bit-identical embeddings for the same append
  /// sequence.
  StatusOr<math::Vec> EmbedNew(const rf::ScanRecord& record,
                               EmbedderOverlay& overlay) const;

  /// Read-side EmbedNewBatch (see EmbedNewBatch for ordering and
  /// determinism contracts; appends land in `overlay`).
  std::vector<StatusOr<math::Vec>> EmbedNewBatch(
      const std::vector<rf::ScanRecord>& records,
      EmbedderOverlay& overlay) const;

  /// Merged-graph view over the frozen base plus `overlay`'s delta.
  graph::OverlayGraphView OverlayView(const EmbedderOverlay& overlay) const {
    return graph::OverlayGraphView(graph_, overlay.graph);
  }

  const graph::BipartiteGraph& graph() const { return graph_; }
  BiSage& model() { return model_; }
  const BiSage& model() const { return model_; }
  const std::vector<graph::NodeId>& train_nodes() const {
    return train_nodes_;
  }

  /// Snapshot support (store/snapshot_v2.cc): swaps in a persisted graph,
  /// training-node list, and trained model state.
  Status RestoreFitted(graph::BipartiteGraph graph,
                       std::vector<graph::NodeId> train_nodes,
                       BiSage::TrainedState model_state);

 private:
  graph::BipartiteGraph graph_;
  BiSage model_;
  std::vector<graph::NodeId> train_nodes_;
  int num_train_ = 0;
};

}  // namespace gem::embed

#endif  // GEM_EMBED_BISAGE_H_
