#include "embed/bisage.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "base/check.h"
#include "base/logging.h"
#include "math/flat_tape.h"
#include "math/vec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gem::embed {
namespace {

// Salts separating the independent RNG stream families Train() draws
// from (walks, epoch shuffles, per-group sampling) so no two families
// ever share a stream for any (seed, id) combination.
constexpr uint64_t kWalkStreamSalt = 0x9E2AB15A6E000001ULL;
constexpr uint64_t kShuffleStreamSalt = 0x9E2AB15A6E000002ULL;
constexpr uint64_t kGroupStreamSalt = 0x9E2AB15A6E000003ULL;

/// Memoization key for (node, layer) pairs.
long MemoKey(graph::NodeId node, int layer, int num_layers) {
  return static_cast<long>(node) * (num_layers + 1) + layer;
}

/// Normalized aggregation coefficients of a sampled neighbor multiset
/// (the paper's weighted aggregator; uniform under the ablation),
/// written into a caller-owned buffer so the inference hot path can
/// reuse its capacity.
void AggregationCoeffsInto(const std::vector<graph::Neighbor>& sampled,
                           bool use_edge_weights, math::Vec& coeffs) {
  coeffs.assign(sampled.size(), 0.0);
  if (!use_edge_weights) {
    std::fill(coeffs.begin(), coeffs.end(),
              1.0 / static_cast<double>(sampled.size()));
    return;
  }
  double total = 0.0;
  for (size_t i = 0; i < sampled.size(); ++i) {
    coeffs[i] = sampled[i].weight;
    total += sampled[i].weight;
  }
  if (total <= 0.0) {
    std::fill(coeffs.begin(), coeffs.end(),
              1.0 / static_cast<double>(sampled.size()));
  } else {
    for (double& c : coeffs) c /= total;
  }
}

math::Vec AggregationCoeffs(const std::vector<graph::Neighbor>& sampled,
                            bool use_edge_weights) {
  math::Vec coeffs;
  AggregationCoeffsInto(sampled, use_edge_weights, coeffs);
  return coeffs;
}

/// In-place l2 normalization matching math::NormalizeL2's contract
/// (zero vectors pass through) on a raw kernel buffer.
void NormalizeInPlace(const math::kernels::Ops& ops, double* x, int n) {
  const double norm = std::sqrt(ops.dot(x, x, n));
  if (norm > 0.0) ops.scale(x, 1.0 / norm, n);
}

/// Uniform with-replacement neighbor draw (ablation of the
/// weight-proportional sampling). Templated over the graph surface so
/// the base and overlay forward paths share it.
template <typename GraphLike>
std::vector<graph::Neighbor> SampleUniform(const GraphLike& graph,
                                           graph::NodeId node, int count,
                                           math::Rng& rng) {
  std::vector<graph::Neighbor> sampled;
  const auto& adj = graph.neighbors(node);
  if (adj.empty()) return sampled;
  sampled.reserve(count);
  for (int i = 0; i < count; ++i) {
    sampled.push_back(adj[rng.UniformInt(static_cast<int>(adj.size()))]);
  }
  return sampled;
}

}  // namespace

/// Base forward context: reads the owning model's graph and node
/// tables directly (the pre-overlay mutable path).
struct BiSage::BaseCtx {
  const graph::BipartiteGraph& graph;
  const math::Matrix& h_table;
  const math::Matrix& l_table;

  int num_nodes() const { return graph.num_nodes(); }
  graph::NodeType type(graph::NodeId n) const { return graph.type(n); }
  int degree(graph::NodeId n) const { return graph.degree(n); }
  const std::vector<graph::Neighbor>& neighbors(graph::NodeId n) const {
    return graph.neighbors(n);
  }
  std::vector<graph::Neighbor> SampleNeighbors(graph::NodeId n, int count,
                                               math::Rng& rng) const {
    return graph.SampleNeighbors(n, count, rng);
  }
  const double* h_row(graph::NodeId n) const { return h_table.RowPtr(n); }
  const double* l_row(graph::NodeId n) const { return l_table.RowPtr(n); }
};

/// Overlay forward context: graph reads go through the merged view,
/// layer-0 rows come from the frozen base tables for pre-overlay
/// nodes and from the delta for appended ones.
struct BiSage::OverlayCtx {
  const graph::OverlayGraphView& view;
  const math::Matrix& base_h;
  const math::Matrix& base_l;
  const NodeTableDelta& tables;

  int num_nodes() const { return view.num_nodes(); }
  graph::NodeType type(graph::NodeId n) const { return view.type(n); }
  int degree(graph::NodeId n) const { return view.degree(n); }
  const std::vector<graph::Neighbor>& neighbors(graph::NodeId n) const {
    return view.neighbors(n);
  }
  std::vector<graph::Neighbor> SampleNeighbors(graph::NodeId n, int count,
                                               math::Rng& rng) const {
    return view.SampleNeighbors(n, count, rng);
  }
  const double* h_row(graph::NodeId n) const {
    return n < tables.base_rows_
               ? base_h.RowPtr(n)
               : tables.h_rows_.RowPtr(n - tables.base_rows_);
  }
  const double* l_row(graph::NodeId n) const {
    return n < tables.base_rows_
               ? base_l.RowPtr(n)
               : tables.l_rows_.RowPtr(n - tables.base_rows_);
  }
};

Status BiSageConfig::Validate() const {
  if (dimension < 1) {
    return Status::InvalidArgument("bisage: dimension must be >= 1, got " +
                                   std::to_string(dimension));
  }
  if (num_layers < 1) {
    return Status::InvalidArgument("bisage: num_layers must be >= 1, got " +
                                   std::to_string(num_layers));
  }
  if (static_cast<int>(fanouts.size()) != num_layers) {
    return Status::InvalidArgument(
        "bisage: fanouts must have one entry per layer (" +
        std::to_string(num_layers) + "), got " +
        std::to_string(fanouts.size()));
  }
  for (const int fanout : fanouts) {
    if (fanout < 1) {
      return Status::InvalidArgument(
          "bisage: training fanouts must be >= 1, got " +
          std::to_string(fanout));
    }
  }
  // inference_fanouts entries <= 0 mean "full neighborhood"; only the
  // shape is constrained. Empty means "same as fanouts".
  if (!inference_fanouts.empty() &&
      static_cast<int>(inference_fanouts.size()) != num_layers) {
    return Status::InvalidArgument(
        "bisage: inference_fanouts must be empty or have one entry per "
        "layer (" +
        std::to_string(num_layers) + "), got " +
        std::to_string(inference_fanouts.size()));
  }
  if (walks_per_node < 1) {
    return Status::InvalidArgument("bisage: walks_per_node must be >= 1");
  }
  if (walk_length < 1) {
    return Status::InvalidArgument("bisage: walk_length must be >= 1");
  }
  if (epochs < 1) {
    return Status::InvalidArgument("bisage: epochs must be >= 1");
  }
  if (num_negatives < 0) {
    return Status::InvalidArgument("bisage: num_negatives must be >= 0");
  }
  if (!(learning_rate > 0.0) || !std::isfinite(learning_rate)) {
    return Status::InvalidArgument(
        "bisage: learning_rate must be positive and finite");
  }
  if (batch_pairs < 1) {
    return Status::InvalidArgument("bisage: batch_pairs must be >= 1");
  }
  if (min_mac_degree < 1) {
    return Status::InvalidArgument("bisage: min_mac_degree must be >= 1");
  }
  return ThreadPoolOptions{num_threads}.Validate();
}

BiSage::BiSage(BiSageConfig config)
    : config_(std::move(config)), init_rng_(config_.seed ^ 0xB15A6EULL) {
  if (config_.inference_fanouts.empty()) {
    config_.inference_fanouts = config_.fanouts;
  }
  config_status_ = config_.Validate();
  if (!config_status_.ok()) return;

  const int d = config_.dimension;
  h_table_ = math::Matrix(0, d);
  l_table_ = math::Matrix(0, d);
  math::AdamOptions adam_options;
  adam_options.learning_rate = config_.learning_rate;
  adam_ = std::make_unique<math::Adam>(adam_options);

  math::Rng weight_rng(config_.seed);
  for (int k = 0; k < config_.num_layers; ++k) {
    w_h_.push_back(std::make_unique<math::Parameter>(d, 2 * d));
    w_l_.push_back(std::make_unique<math::Parameter>(d, 2 * d));
    w_h_.back()->value.FillGlorot(weight_rng);
    w_l_.back()->value.FillGlorot(weight_rng);
    adam_->Register(w_h_.back().get());
    adam_->Register(w_l_.back().get());
  }
}

ThreadPool& BiSage::thread_pool() const {
  GEM_CHECK(config_status_.ok());
  if (!pool_) pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  return *pool_;
}

void BiSage::EnsureCapacity(const graph::BipartiteGraph& graph,
                            int count) const {
  const int d = config_.dimension;
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  while (h_table_.rows() < count) {
    const graph::NodeId node = h_table_.rows();
    math::Vec h_row(d, 0.0);
    math::Vec l_row(d, 0.0);
    // MAC nodes carry fixed random features — their identity in the
    // embedding space. Record nodes start at zero: a record's identity
    // is entirely its (weighted) MAC membership, so training and the
    // inductive embedding of future records see exactly the same input
    // distribution. (A per-record random h^0 would be pure noise in
    // the self half of the CONCAT of Equations (4)/(6).)
    if (node >= graph.num_nodes() ||
        graph.type(node) == graph::NodeType::kMac) {
      for (int i = 0; i < d; ++i) {
        h_row[i] = init_rng_.Uniform(-scale, scale);
        l_row[i] = init_rng_.Uniform(-scale, scale);
      }
    }
    h_table_.AppendRow(h_row);
    l_table_.AppendRow(l_row);
  }
}

bool BiSage::SamplesAtInference() const {
  return std::any_of(config_.inference_fanouts.begin(),
                     config_.inference_fanouts.end(),
                     [](int fanout) { return fanout > 0; });
}

void BiSage::PrepareInference(const graph::BipartiteGraph& graph) const {
  EnsureCapacity(graph, graph.num_nodes());
  if (SamplesAtInference()) graph.WarmCaches();
}

/// One gradient shard's reusable engine state.
struct BiSage::GradShard {
  math::FlatTape tape;
  math::ParamGradSink sink;
  std::unordered_map<long, NodeVars> memo;
  double loss = 0.0;
  long terms = 0;
};

BiSage::NodeVars BiSage::BuildNodeVars(
    math::FlatTape& tape, const graph::BipartiteGraph& graph,
    graph::NodeId node, int layer, math::Rng& rng,
    std::unordered_map<long, NodeVars>& memo) const {
  const long key = MemoKey(node, layer, config_.num_layers);
  const auto it = memo.find(key);
  if (it != memo.end()) return it->second;

  NodeVars vars;
  if (layer == 0) {
    const size_t d = static_cast<size_t>(config_.dimension);
    vars.h = tape.Leaf(h_table_.RowPtr(node), d);
    vars.l = tape.Leaf(l_table_.RowPtr(node), d);
  } else {
    const NodeVars self = BuildNodeVars(tape, graph, node, layer - 1, rng,
                                        memo);
    const int fanout = config_.fanouts[config_.num_layers - layer];
    const std::vector<graph::Neighbor> sampled =
        config_.use_edge_weights ? graph.SampleNeighbors(node, fanout, rng)
                                 : SampleUniform(graph, node, fanout, rng);

    math::VarId h_agg;
    math::VarId l_agg;
    if (sampled.empty()) {
      // Isolated node: aggregate nothing; the update still mixes the
      // node's own lower-layer embedding through the weight matrix.
      const math::Vec zeros(config_.dimension, 0.0);
      h_agg = tape.Leaf(zeros);
      l_agg = tape.Leaf(zeros);
    } else {
      const math::Vec coeffs =
          AggregationCoeffs(sampled, config_.use_edge_weights);
      std::vector<math::VarId> neighbor_l;
      std::vector<math::VarId> neighbor_h;
      neighbor_l.reserve(sampled.size());
      neighbor_h.reserve(sampled.size());
      for (const graph::Neighbor& nb : sampled) {
        const NodeVars child = BuildNodeVars(tape, graph, nb.node, layer - 1,
                                             rng, memo);
        neighbor_l.push_back(child.l);
        neighbor_h.push_back(child.h);
      }
      // Equation (3): primary aggregates neighbors' auxiliaries.
      h_agg = tape.WeightedSum(neighbor_l, coeffs);
      // Equation (5): auxiliary aggregates neighbors' primaries.
      l_agg = tape.WeightedSum(neighbor_h, coeffs);
    }
    // Equations (4), (6), (7). The top layer is linear (no ReLU):
    // a ReLU there would confine embeddings to the positive orthant,
    // making the negative terms of Equation (8) unsatisfiable.
    const math::VarId h_lin =
        tape.MatVec(w_h_[layer - 1].get(), tape.Concat(self.h, h_agg));
    const math::VarId l_lin =
        tape.MatVec(w_l_[layer - 1].get(), tape.Concat(self.l, l_agg));
    if (layer == config_.num_layers) {
      vars.h = tape.L2Normalize(h_lin);
      vars.l = tape.L2Normalize(l_lin);
    } else {
      vars.h = tape.L2Normalize(tape.Relu(h_lin));
      vars.l = tape.L2Normalize(tape.Relu(l_lin));
    }
  }
  memo.emplace(key, vars);
  return vars;
}

void BiSage::AccumulateShardLoss(math::FlatTape& tape,
                                 const graph::BipartiteGraph& graph,
                                 const std::vector<TrainPair>& pairs,
                                 size_t begin, size_t end, math::Rng& rng,
                                 std::unordered_map<long, NodeVars>& memo,
                                 double& loss, long& terms) const {
  for (size_t p = begin; p < end; ++p) {
    const auto [x, y] = pairs[p];
    const NodeVars vx =
        BuildNodeVars(tape, graph, x, config_.num_layers, rng, memo);
    const NodeVars vy =
        BuildNodeVars(tape, graph, y, config_.num_layers, rng, memo);
    // Positive part of Equation (8).
    loss += tape.AddLogSigmoidLoss(tape.Dot(vx.h, vy.l), +1.0);
    loss += tape.AddLogSigmoidLoss(tape.Dot(vx.l, vy.h), +1.0);
    terms += 2;
    // Negative part: K_N nodes drawn ~ deg^{3/4}.
    for (int n = 0; n < config_.num_negatives; ++n) {
      const graph::NodeId z = graph.SampleNegative(rng);
      const NodeVars vz =
          BuildNodeVars(tape, graph, z, config_.num_layers, rng, memo);
      loss += tape.AddLogSigmoidLoss(tape.Dot(vx.h, vz.l), -1.0);
      loss += tape.AddLogSigmoidLoss(tape.Dot(vx.l, vz.h), -1.0);
      terms += 2;
    }
  }
}

void BiSage::RunGradShard(GradShard& shard, const graph::BipartiteGraph& graph,
                          const std::vector<TrainPair>& pairs, size_t begin,
                          size_t end, uint64_t stream) const {
  GEM_TRACE_SPAN("bisage.gradient");
  shard.sink.ZeroAll();
  shard.memo.clear();
  shard.loss = 0.0;
  shard.terms = 0;
  math::Rng rng(
      math::Rng::StreamSeed(config_.seed ^ kGroupStreamSalt, stream));
  shard.tape.Clear();
  AccumulateShardLoss(shard.tape, graph, pairs, begin, end, rng, shard.memo,
                      shard.loss, shard.terms);
  shard.tape.Backward(&shard.sink);
}

Status BiSage::Train(const graph::BipartiteGraph& graph) {
  GEM_TRACE_SPAN("bisage.train");
  static obs::Counter& walk_count =
      obs::MetricsRegistry::Get().GetCounter("gem_bisage_walks_total");
  static obs::Counter& pair_count =
      obs::MetricsRegistry::Get().GetCounter("gem_bisage_pairs_total");
  static obs::Gauge& loss_gauge =
      obs::MetricsRegistry::Get().GetGauge("gem_bisage_epoch_loss");
  static obs::Histogram& epoch_seconds =
      obs::MetricsRegistry::Get().GetHistogram("gem_bisage_epoch_seconds",
                                               obs::LatencyBuckets());

  if (!config_status_.ok()) return config_status_;
  if (graph.num_nodes() == 0) {
    return Status::FailedPrecondition("graph is empty");
  }
  // Everything lazily built that the parallel sections read must exist
  // before the first worker touches it: node tables (EnsureCapacity),
  // per-node alias samplers and the negative-sampling table
  // (WarmCaches). After this, workers only read the graph.
  EnsureCapacity(graph, graph.num_nodes());
  graph.WarmCaches();
  ThreadPool& pool = thread_pool();

  // Walks start from record nodes only — the loss of Equation (8) is
  // symmetric in (x, y) and walks alternate sides, so every MAC node
  // on a walk still contributes pairs, at half the walk budget.
  std::vector<graph::NodeId> starts;
  for (graph::NodeId node = 0; node < graph.num_nodes(); ++node) {
    if (graph.type(node) != graph::NodeType::kRecord) continue;
    if (graph.degree(node) == 0) continue;
    starts.push_back(node);
  }
  if (starts.empty()) {
    return Status::FailedPrecondition("graph has no edges to walk");
  }

  // Generate the training pairs from weighted random walks: every
  // consecutive (x, y) in a walk is a positive pair. Each chunk writes
  // its own buffer; concatenating the buffers in chunk-index order
  // yields the same pair list run-to-run. In deterministic mode each
  // START NODE additionally draws from its own RNG stream, so the list
  // is invariant to the chunking itself (= to the thread count).
  std::vector<std::vector<std::pair<graph::NodeId, graph::NodeId>>>
      chunk_pairs(pool.num_threads());
  {
  GEM_TRACE_SPAN("bisage.walks");
  pool.ParallelFor(
      static_cast<long>(starts.size()),
      [&](int chunk, long begin, long end) {
        GEM_TRACE_SPAN("bisage.walk_chunk");
        auto& out = chunk_pairs[chunk];
        math::Rng chunk_rng(
            math::Rng::StreamSeed(config_.seed ^ kWalkStreamSalt,
                                  static_cast<uint64_t>(chunk)));
        for (long i = begin; i < end; ++i) {
          const graph::NodeId node = starts[i];
          math::Rng node_rng(
              math::Rng::StreamSeed(config_.seed ^ kWalkStreamSalt,
                                    static_cast<uint64_t>(node)));
          math::Rng& rng = config_.deterministic ? node_rng : chunk_rng;
          for (int w = 0; w < config_.walks_per_node; ++w) {
            std::vector<graph::NodeId> walk;
            if (config_.use_edge_weights) {
              walk = graph.RandomWalk(node, config_.walk_length, rng);
            } else {
              walk.push_back(node);
              graph::NodeId current = node;
              for (int step = 0; step < config_.walk_length; ++step) {
                const auto& adj = graph.neighbors(current);
                if (adj.empty()) break;
                current =
                    adj[rng.UniformInt(static_cast<int>(adj.size()))].node;
                walk.push_back(current);
              }
            }
            for (size_t j = 0; j + 1 < walk.size(); ++j) {
              out.emplace_back(walk[j], walk[j + 1]);
            }
          }
        }
      });
  }
  walk_count.Increment(starts.size() *
                       static_cast<size_t>(config_.walks_per_node));

  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  {
    GEM_TRACE_SPAN("bisage.concat_pairs");
    size_t total_pairs = 0;
    for (const auto& chunk : chunk_pairs) total_pairs += chunk.size();
    pairs.reserve(total_pairs);
    for (const auto& chunk : chunk_pairs) {
      pairs.insert(pairs.end(), chunk.begin(), chunk.end());
    }
  }
  if (pairs.empty()) {
    return Status::FailedPrecondition("graph has no edges to walk");
  }
  pair_count.Increment(pairs.size());

  // Gradient stage, staged-pipeline form. A SHARD is one optimizer
  // batch of up to batch_pairs pairs: it builds its own tape (with its
  // own neighborhood samples and negatives from its own RNG stream)
  // and collects parameter gradients in a private sink. Shard engine
  // state (tape arenas, sink buffers, memo tables) is allocated once
  // here and reused across every wave of every epoch.
  //
  // Deterministic mode runs one pair per sink, sequentially on the
  // calling thread (no pool dispatch at all): the flush order is the
  // shuffled pair order, independent of the thread count, so the
  // learned weights are bit-identical at ANY num_threads.
  //
  // Default mode runs a WAVE of up to num_threads shards as one coarse
  // pool task each (batch-submitted, counted down on a per-wave latch
  // — no per-batch latch, no per-pair tasks), folds the shard sinks
  // tree-wise (fixed shape for a fixed shard count), flushes once, and
  // takes ONE Adam step per wave: a synchronous data-parallel step
  // whose effective batch is num_shards * batch_pairs. At num_threads
  // = 1 the wave degenerates to exactly one shard per batch — the same
  // schedule, stream ids, and reduction as the sequential loop — so
  // single-thread default numerics are unchanged; for a fixed
  // num_threads > 1 the result is still run-to-run deterministic.
  const int num_workers = pool.num_threads();
  std::vector<std::unique_ptr<GradShard>> shards;
  const int shard_slots = config_.deterministic ? 1 : num_workers;
  shards.reserve(shard_slots);
  for (int i = 0; i < shard_slots; ++i) {
    shards.push_back(std::make_unique<GradShard>());
  }

  uint64_t group_stream = 0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const auto epoch_start = std::chrono::steady_clock::now();
    {
      GEM_TRACE_SPAN("bisage.shuffle");
      math::Rng shuffle_rng(math::Rng::StreamSeed(
          config_.seed ^ kShuffleStreamSalt, static_cast<uint64_t>(epoch)));
      shuffle_rng.Shuffle(pairs);
    }
    double epoch_loss = 0.0;
    long loss_terms = 0;

    if (config_.deterministic) {
      size_t batch_start = 0;
      while (batch_start < pairs.size()) {
        const size_t batch_size =
            std::min(pairs.size() - batch_start,
                     static_cast<size_t>(config_.batch_pairs));
        {
          GEM_TRACE_SPAN("bisage.gradient");
          for (size_t p = 0; p < batch_size; ++p) {
            GradShard& shard = *shards[0];
            RunGradShard(shard, graph, pairs, batch_start + p,
                         batch_start + p + 1, group_stream + p);
            shard.sink.FlushToParams();
            epoch_loss += shard.loss;
            loss_terms += shard.terms;
          }
        }
        {
          GEM_TRACE_SPAN("bisage.reduce");
          adam_->Step();
        }
        group_stream += static_cast<uint64_t>(batch_size);
        batch_start += batch_size;
      }
    } else {
      size_t wave_start = 0;
      while (wave_start < pairs.size()) {
        const size_t remaining = pairs.size() - wave_start;
        const size_t full = static_cast<size_t>(config_.batch_pairs);
        const long num_shards = std::min<long>(
            num_workers, static_cast<long>((remaining + full - 1) / full));
        const size_t wave_pairs = std::min(remaining, num_shards * full);
        // Shard s covers pairs [wave_start + s*full, ...) — fixed-size
        // slabs, so shard boundaries equal batch boundaries and the
        // last shard of the last wave may run short.
        const auto shard_range = [&](long s) {
          const size_t begin = wave_start + static_cast<size_t>(s) * full;
          return std::pair<size_t, size_t>(
              begin, std::min(begin + full, pairs.size()));
        };
        if (num_shards == 1) {
          const auto [begin, end] = shard_range(0);
          RunGradShard(*shards[0], graph, pairs, begin, end, group_stream);
        } else {
          CountLatch latch(num_shards - 1);
          std::vector<std::function<void()>> tasks;
          tasks.reserve(static_cast<size_t>(num_shards) - 1);
          for (long s = 1; s < num_shards; ++s) {
            tasks.push_back([&, s] {
              const auto [begin, end] = shard_range(s);
              RunGradShard(*shards[s], graph, pairs, begin, end,
                           group_stream + static_cast<uint64_t>(s));
              latch.CountDown();
            });
          }
          pool.SubmitBatch(std::move(tasks));
          const auto [begin, end] = shard_range(0);
          RunGradShard(*shards[0], graph, pairs, begin, end, group_stream);
          latch.Wait();
        }
        {
          // Tree-wise fold of the shard sinks (fixed shape for a fixed
          // shard count), one flush, one Adam step per wave.
          GEM_TRACE_SPAN("bisage.reduce");
          for (long stride = 1; stride < num_shards; stride *= 2) {
            for (long i = 0; i + stride < num_shards; i += 2 * stride) {
              shards[i]->sink.MergeFrom(shards[i + stride]->sink);
              shards[i]->loss += shards[i + stride]->loss;
              shards[i]->terms += shards[i + stride]->terms;
            }
          }
          shards[0]->sink.FlushToParams();
          epoch_loss += shards[0]->loss;
          loss_terms += shards[0]->terms;
          adam_->Step();
        }
        group_stream += static_cast<uint64_t>(num_shards);
        wave_start += wave_pairs;
      }
    }
    last_epoch_loss_ = epoch_loss / static_cast<double>(loss_terms);
    loss_gauge.Set(last_epoch_loss_);
    epoch_seconds.Observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - epoch_start)
                              .count());
    GEM_LOG(Debug) << "bisage epoch " << epoch + 1 << "/" << config_.epochs
                   << " loss=" << last_epoch_loss_;
  }
  trained_ = true;
  trained_nodes_ = graph.num_nodes();
  return Status::Ok();
}

void BiSage::InferScratch::Reset(int num_layers, int dimension) {
  arena_.clear();
  memo_.clear();
  temps_.assign(static_cast<size_t>(num_layers) * 4 * dimension, 0.0);
  sampled_.resize(num_layers);
  coeffs_.resize(num_layers);
  aggregated_rows_ = 0;
}

template <typename Ctx>
size_t BiSage::ForwardNode(const Ctx& ctx, graph::NodeId node, int layer,
                           math::Rng& rng, InferScratch& scratch) const {
  const long key = MemoKey(node, layer, config_.num_layers);
  const auto it = scratch.memo_.find(key);
  if (it != scratch.memo_.end()) return it->second;

  const int d = config_.dimension;
  const math::kernels::Ops& ops = math::kernels::Active();
  size_t off;
  if (layer == 0) {
    off = scratch.arena_.size();
    scratch.arena_.resize(off + 2 * d);
    if (ctx.type(node) == graph::NodeType::kRecord) {
      // A record's layer-0 features are zero by the model, not by the
      // table's contents (its row is never read): its embedding is a
      // pure function of its weighted MAC membership.
      std::fill_n(scratch.arena_.data() + off, 2 * d, 0.0);
    } else {
      std::copy_n(ctx.h_row(node), d, scratch.arena_.data() + off);
      std::copy_n(ctx.l_row(node), d, scratch.arena_.data() + off + d);
    }
  } else {
    const size_t self_off = ForwardNode(ctx, node, layer - 1, rng, scratch);
    const int fanout = config_.inference_fanouts[config_.num_layers - layer];
    // fanout <= 0 selects the full neighborhood with exact weights:
    // a deterministic, variance-free aggregation for inference (and the
    // allocation-free path — the adjacency is copied into the reused
    // per-layer buffer, never freshly allocated).
    std::vector<graph::Neighbor>& sampled = scratch.sampled_[layer - 1];
    if (layer == 1 && ctx.type(node) == graph::NodeType::kMac) {
      // A MAC's layer-1 neighbours are records at layer 0, whose
      // features are zero: Equations (3)/(5) sum to exactly +0 however
      // many records the MAC has seen, so nothing is aggregated and the
      // cost stays independent of the fence's history. Sampled mode
      // still advances the stream by the draws the skipped sample
      // would have made (2 per alias draw, 1 per uniform draw, none
      // for an empty row), so every later draw is unchanged.
      sampled.clear();
      if (fanout > 0 && ctx.degree(node) > 0) {
        const int draws = config_.use_edge_weights ? 2 * fanout : fanout;
        for (int i = 0; i < draws; ++i) rng.Next();
      }
    } else if (fanout <= 0) {
      const auto& adj = ctx.neighbors(node);
      sampled.assign(adj.begin(), adj.end());
    } else if (config_.use_edge_weights) {
      sampled = ctx.SampleNeighbors(node, fanout, rng);
    } else {
      sampled = SampleUniform(ctx, node, fanout, rng);
    }
    // Drop MAC neighbors the model cannot interpret: singletons
    // (degree < min_mac_degree, e.g. a passer-by's phone — no
    // relational information) and MACs first seen after training
    // (their random features never passed through the learned weight
    // matrices, so they would only inject noise into embeddings the
    // detector was calibrated on).
    sampled.erase(
        std::remove_if(sampled.begin(), sampled.end(),
                       [&](const graph::Neighbor& nb) {
                         if (ctx.type(nb.node) !=
                             graph::NodeType::kMac) {
                           return false;
                         }
                         if (nb.node >= trained_nodes_) return true;
                         return config_.min_mac_degree > 1 &&
                                ctx.degree(nb.node) <
                                    config_.min_mac_degree;
                       }),
        sampled.end());

    // Stable per-layer temporaries: child recursion below may grow the
    // arena (invalidating arena pointers), so aggregation accumulates
    // here and arena pointers are re-derived from offsets after every
    // recursive call.
    double* temp = scratch.temps_.data() + static_cast<size_t>(layer - 1) * 4 * d;
    double* h_agg = temp;
    double* l_agg = temp + d;
    double* cat = temp + 2 * d;
    std::fill_n(h_agg, 2 * d, 0.0);
    if (!sampled.empty()) {
      math::Vec& coeffs = scratch.coeffs_[layer - 1];
      AggregationCoeffsInto(sampled, config_.use_edge_weights, coeffs);
      for (size_t i = 0; i < sampled.size(); ++i) {
        const size_t child_off =
            ForwardNode(ctx, sampled[i].node, layer - 1, rng, scratch);
        const double* child = scratch.arena_.data() + child_off;
        // Equation (3): primary aggregates neighbors' auxiliaries;
        // Equation (5): auxiliary aggregates neighbors' primaries.
        ops.add_scaled(h_agg, child + d, coeffs[i], d);
        ops.add_scaled(l_agg, child, coeffs[i], d);
      }
      scratch.aggregated_rows_ += static_cast<long>(sampled.size());
    }
    off = scratch.arena_.size();
    scratch.arena_.resize(off + 2 * d);
    // Equations (4), (6): y = W [self ; agg], straight into the arena.
    const double* self = scratch.arena_.data() + self_off;
    std::copy_n(self, d, cat);
    std::copy_n(h_agg, d, cat + d);
    ops.matvec(w_h_[layer - 1]->value.ptr(), d, 2 * d, cat,
               scratch.arena_.data() + off);
    std::copy_n(self + d, d, cat);
    std::copy_n(l_agg, d, cat + d);
    ops.matvec(w_l_[layer - 1]->value.ptr(), d, 2 * d, cat,
               scratch.arena_.data() + off + d);
    double* h = scratch.arena_.data() + off;
    double* l = h + d;
    if (layer != config_.num_layers) {  // linear top layer (see training)
      for (int i = 0; i < d; ++i) h[i] = h[i] > 0.0 ? h[i] : 0.0;
      for (int i = 0; i < d; ++i) l[i] = l[i] > 0.0 ? l[i] : 0.0;
    }
    // Equation (7).
    NormalizeInPlace(ops, h, d);
    NormalizeInPlace(ops, l, d);
  }
  scratch.memo_.emplace(key, off);
  return off;
}

template <typename Ctx>
void BiSage::EmbedWith(const Ctx& ctx, graph::NodeId node,
                       InferScratch& scratch, double* h_out,
                       double* l_out) const {
  static obs::Counter& aggregated_rows = obs::MetricsRegistry::Get().GetCounter(
      "gem_bisage_aggregated_rows_total");
  scratch.Reset(config_.num_layers, config_.dimension);
  // Per-node deterministic sampling stream so repeated queries agree
  // (and so a batch of nodes embeds identically at any thread count).
  // Node ids, and so seeds, match between the mutable and overlay
  // paths because GraphDelta assigns ids in the same order AddRecord
  // on a mutable graph would.
  math::Rng rng(config_.seed ^ (0x9E3779B97F4A7C15ULL *
                                (static_cast<uint64_t>(node) + 1)));
  const size_t off = ForwardNode(ctx, node, config_.num_layers, rng,
                                 scratch);
  aggregated_rows.Increment(static_cast<uint64_t>(scratch.aggregated_rows_));
  const int d = config_.dimension;
  if (h_out != nullptr) {
    std::copy_n(scratch.arena_.data() + off, d, h_out);
  }
  if (l_out != nullptr) {
    std::copy_n(scratch.arena_.data() + off + d, d, l_out);
  }
}

void BiSage::EmbedForward(const graph::BipartiteGraph& graph,
                          graph::NodeId node, InferScratch& scratch,
                          double* h_out, double* l_out) const {
  GEM_CHECK(config_status_.ok());
  GEM_CHECK(node >= 0 && node < graph.num_nodes());
  EnsureCapacity(graph, graph.num_nodes());
  EmbedWith(BaseCtx{graph, h_table_, l_table_}, node, scratch, h_out, l_out);
}

void BiSage::EnsureOverlayCapacity(const graph::OverlayGraphView& view,
                                   NodeTableDelta& tables, int count) const {
  if (tables.base_rows_ < 0) {
    tables.base_rows_ = h_table_.rows();
    tables.h_rows_ = math::Matrix(0, config_.dimension);
    tables.l_rows_ = math::Matrix(0, config_.dimension);
    tables.rng_.RestoreState(init_rng_.SaveState());
  }
  // The overlay contract: once a delta binds, the base tables are
  // frozen (a grown base would desync the delta's row offsets AND its
  // init-stream continuation).
  GEM_CHECK(h_table_.rows() == tables.base_rows_);
  const int d = config_.dimension;
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  while (tables.base_rows_ + tables.h_rows_.rows() < count) {
    const graph::NodeId node = tables.base_rows_ + tables.h_rows_.rows();
    math::Vec h_row(d, 0.0);
    math::Vec l_row(d, 0.0);
    // Same rule and draw order as EnsureCapacity: random rows for MAC
    // nodes, zero rows for records — so the delta rows are bit-
    // identical to what the mutable path would have appended.
    if (node >= view.num_nodes() ||
        view.type(node) == graph::NodeType::kMac) {
      for (int i = 0; i < d; ++i) {
        h_row[i] = tables.rng_.Uniform(-scale, scale);
        l_row[i] = tables.rng_.Uniform(-scale, scale);
      }
    }
    tables.h_rows_.AppendRow(h_row);
    tables.l_rows_.AppendRow(l_row);
  }
}

void BiSage::PrepareInference(const graph::OverlayGraphView& view,
                              NodeTableDelta& tables) const {
  EnsureOverlayCapacity(view, tables, view.num_nodes());
  // Full-neighbourhood inference never samples, and warming builds an
  // alias table per touched and new delta row: O(delta) per batch.
  if (SamplesAtInference()) view.WarmCaches();
}

void BiSage::EmbedForward(const graph::OverlayGraphView& view,
                          NodeTableDelta& tables, graph::NodeId node,
                          InferScratch& scratch, double* h_out,
                          double* l_out) const {
  GEM_CHECK(config_status_.ok());
  GEM_CHECK(node >= 0 && node < view.num_nodes());
  EnsureOverlayCapacity(view, tables, view.num_nodes());
  EmbedWith(OverlayCtx{view, h_table_, l_table_, tables}, node, scratch,
            h_out, l_out);
}

math::Vec BiSage::PrimaryEmbedding(const graph::BipartiteGraph& graph,
                                   graph::NodeId node) const {
  static thread_local InferScratch scratch;
  math::Vec h(config_.dimension);
  EmbedForward(graph, node, scratch, h.data(), nullptr);
  return h;
}

math::Vec BiSage::PrimaryEmbedding(const graph::OverlayGraphView& view,
                                   NodeTableDelta& tables,
                                   graph::NodeId node) const {
  static thread_local InferScratch scratch;
  math::Vec h(config_.dimension);
  EmbedForward(view, tables, node, scratch, h.data(), nullptr);
  return h;
}

math::Vec BiSage::AuxiliaryEmbedding(const graph::BipartiteGraph& graph,
                                     graph::NodeId node) const {
  static thread_local InferScratch scratch;
  math::Vec l(config_.dimension);
  EmbedForward(graph, node, scratch, nullptr, l.data());
  return l;
}

BiSage::TrainedState BiSage::ExportTrained() const {
  TrainedState state;
  state.h_table = h_table_;
  state.l_table = l_table_;
  state.w_h.reserve(w_h_.size());
  state.w_l.reserve(w_l_.size());
  for (const auto& p : w_h_) state.w_h.push_back(p->value);
  for (const auto& p : w_l_) state.w_l.push_back(p->value);
  state.init_rng = init_rng_.SaveState();
  state.trained_nodes = trained_nodes_;
  state.last_epoch_loss = last_epoch_loss_;
  return state;
}

BiSage::TrainedState BiSage::ExportTrained(const NodeTableDelta& tables) const {
  TrainedState state = ExportTrained();
  // The compacted state must own its bytes: the caller typically
  // unmaps the base's backing right after flushing.
  state.h_table.Materialize();
  state.l_table.Materialize();
  for (math::Matrix& w : state.w_h) w.Materialize();
  for (math::Matrix& w : state.w_l) w.Materialize();
  if (tables.base_rows_ >= 0) {
    GEM_CHECK(tables.base_rows_ == state.h_table.rows());
    for (int r = 0; r < tables.h_rows_.rows(); ++r) {
      state.h_table.AppendRow(tables.h_rows_.Row(r));
      state.l_table.AppendRow(tables.l_rows_.Row(r));
    }
    state.init_rng = tables.rng_.SaveState();
  }
  return state;
}

Status BiSage::RestoreTrained(TrainedState state) {
  if (!config_status_.ok()) return config_status_;
  const int d = config_.dimension;
  if (state.w_h.size() != w_h_.size() || state.w_l.size() != w_l_.size()) {
    return Status::InvalidArgument("bisage state: layer count mismatch");
  }
  for (const math::Matrix& w : state.w_h) {
    if (w.rows() != d || w.cols() != 2 * d) {
      return Status::InvalidArgument("bisage state: weight shape mismatch");
    }
  }
  for (const math::Matrix& w : state.w_l) {
    if (w.rows() != d || w.cols() != 2 * d) {
      return Status::InvalidArgument("bisage state: weight shape mismatch");
    }
  }
  if (state.h_table.cols() != d || state.l_table.cols() != d ||
      state.h_table.rows() != state.l_table.rows()) {
    return Status::InvalidArgument("bisage state: node table shape mismatch");
  }
  if (state.trained_nodes < 0 ||
      state.trained_nodes > state.h_table.rows()) {
    return Status::InvalidArgument("bisage state: trained_nodes out of range");
  }
  h_table_ = std::move(state.h_table);
  l_table_ = std::move(state.l_table);
  for (size_t k = 0; k < w_h_.size(); ++k) {
    w_h_[k]->value = std::move(state.w_h[k]);
    w_h_[k]->ZeroGrad();
    w_l_[k]->value = std::move(state.w_l[k]);
    w_l_[k]->ZeroGrad();
  }
  init_rng_.RestoreState(state.init_rng);
  trained_nodes_ = state.trained_nodes;
  last_epoch_loss_ = state.last_epoch_loss;
  trained_ = true;
  return Status::Ok();
}

BiSageEmbedder::BiSageEmbedder(BiSageConfig config,
                               graph::EdgeWeightConfig weight_config)
    : graph_(weight_config), model_(std::move(config)) {}

Status BiSageEmbedder::Fit(const std::vector<rf::ScanRecord>& train) {
  if (train.empty()) {
    return Status::InvalidArgument("no training records");
  }
  train_nodes_.clear();
  train_nodes_.reserve(train.size());
  for (const rf::ScanRecord& record : train) {
    train_nodes_.push_back(graph_.AddRecord(record));
  }
  num_train_ = static_cast<int>(train.size());
  return model_.Train(graph_);
}

math::Vec BiSageEmbedder::TrainEmbedding(int i) const {
  GEM_CHECK(i >= 0 && i < num_train_);
  return model_.PrimaryEmbedding(graph_, train_nodes_[i]);
}

Status BiSageEmbedder::RestoreFitted(graph::BipartiteGraph graph,
                                     std::vector<graph::NodeId> train_nodes,
                                     BiSage::TrainedState model_state) {
  if (train_nodes.empty()) {
    return Status::InvalidArgument("embedder state: no training nodes");
  }
  for (const graph::NodeId node : train_nodes) {
    if (node < 0 || node >= graph.num_nodes() ||
        graph.type(node) != graph::NodeType::kRecord) {
      return Status::InvalidArgument("embedder state: bad training node id");
    }
  }
  const Status status = model_.RestoreTrained(std::move(model_state));
  if (!status.ok()) return status;
  graph_ = std::move(graph);
  num_train_ = static_cast<int>(train_nodes.size());
  train_nodes_ = std::move(train_nodes);
  return Status::Ok();
}

StatusOr<math::Vec> BiSageEmbedder::EmbedNew(const rf::ScanRecord& record) {
  if (!model_.trained()) {
    return Status::FailedPrecondition("embedder is not trained");
  }
  // Paper footnote 3: a record sharing no MAC with the graph is an
  // outlier outright (and per Section V-A the record is still added,
  // so its MACs become known for later arrivals).
  const bool connected = graph_.CountKnownMacs(record) > 0;
  const graph::NodeId node = graph_.AddRecord(record);
  if (!connected) {
    return Status::NotFound("record shares no MAC with the graph");
  }
  return model_.PrimaryEmbedding(graph_, node);
}

std::vector<StatusOr<math::Vec>> BiSageEmbedder::EmbedNewBatch(
    const std::vector<rf::ScanRecord>& records) {
  std::vector<StatusOr<math::Vec>> out;
  out.reserve(records.size());
  if (!model_.trained()) {
    for (size_t i = 0; i < records.size(); ++i) {
      out.push_back(Status::FailedPrecondition("embedder is not trained"));
    }
    return out;
  }
  // Graph appends are serial and ordered (see header): each record's
  // connectivity check sees every earlier record of the batch.
  std::vector<graph::NodeId> nodes(records.size(), -1);
  std::vector<char> connected(records.size(), 0);
  for (size_t i = 0; i < records.size(); ++i) {
    connected[i] = graph_.CountKnownMacs(records[i]) > 0 ? 1 : 0;
    nodes[i] = graph_.AddRecord(records[i]);
  }
  // Grow node tables + warm sampling caches before the read-only
  // parallel section.
  model_.PrepareInference(graph_);
  std::vector<math::Vec> embeddings(records.size());
  // One tape-free forward scratch per worker, reused across the chunk's
  // records — the batch does no per-record allocation beyond the output
  // vectors themselves.
  std::vector<BiSage::InferScratch> scratches(
      model_.thread_pool().num_threads());
  const int dimension = model_.config().dimension;
  model_.thread_pool().ParallelFor(
      static_cast<long>(records.size()),
      [&](int chunk, long begin, long end) {
        GEM_TRACE_SPAN("bisage.embed_chunk");
        BiSage::InferScratch& scratch = scratches[chunk];
        for (long i = begin; i < end; ++i) {
          if (connected[i]) {
            embeddings[i].resize(dimension);
            model_.EmbedForward(graph_, nodes[i], scratch,
                                embeddings[i].data());
          }
        }
      });
  for (size_t i = 0; i < records.size(); ++i) {
    if (connected[i]) {
      out.push_back(std::move(embeddings[i]));
    } else {
      out.push_back(Status::NotFound("record shares no MAC with the graph"));
    }
  }
  return out;
}

StatusOr<math::Vec> BiSageEmbedder::EmbedNew(const rf::ScanRecord& record,
                                             EmbedderOverlay& overlay) const {
  if (!model_.trained()) {
    return Status::FailedPrecondition("embedder is not trained");
  }
  const graph::OverlayGraphView view = OverlayView(overlay);
  // Same contract as the mutable path (paper footnote 3 / Section
  // V-A): the record is always appended — here to the delta — and a
  // record sharing no MAC with base + delta is an outlier outright.
  const bool connected = view.CountKnownMacs(record) > 0;
  const graph::NodeId node = overlay.graph.AddRecord(graph_, record);
  if (!connected) {
    return Status::NotFound("record shares no MAC with the graph");
  }
  return model_.PrimaryEmbedding(view, overlay.tables, node);
}

std::vector<StatusOr<math::Vec>> BiSageEmbedder::EmbedNewBatch(
    const std::vector<rf::ScanRecord>& records,
    EmbedderOverlay& overlay) const {
  std::vector<StatusOr<math::Vec>> out;
  out.reserve(records.size());
  if (!model_.trained()) {
    for (size_t i = 0; i < records.size(); ++i) {
      out.push_back(Status::FailedPrecondition("embedder is not trained"));
    }
    return out;
  }
  const graph::OverlayGraphView view = OverlayView(overlay);
  // Delta appends are serial and ordered, exactly like the mutable
  // batch path: each record's connectivity check sees every earlier
  // record of the batch.
  std::vector<graph::NodeId> nodes(records.size(), -1);
  std::vector<char> connected(records.size(), 0);
  for (size_t i = 0; i < records.size(); ++i) {
    connected[i] = view.CountKnownMacs(records[i]) > 0 ? 1 : 0;
    nodes[i] = overlay.graph.AddRecord(graph_, records[i]);
  }
  // Grow the delta tables + warm base/delta sampling caches before the
  // read-only parallel section (after this, workers touch no lazily-
  // built state).
  model_.PrepareInference(view, overlay.tables);
  std::vector<math::Vec> embeddings(records.size());
  std::vector<BiSage::InferScratch> scratches(
      model_.thread_pool().num_threads());
  const int dimension = model_.config().dimension;
  model_.thread_pool().ParallelFor(
      static_cast<long>(records.size()),
      [&](int chunk, long begin, long end) {
        GEM_TRACE_SPAN("bisage.embed_chunk");
        BiSage::InferScratch& scratch = scratches[chunk];
        for (long i = begin; i < end; ++i) {
          if (connected[i]) {
            embeddings[i].resize(dimension);
            model_.EmbedForward(view, overlay.tables, nodes[i], scratch,
                                embeddings[i].data());
          }
        }
      });
  for (size_t i = 0; i < records.size(); ++i) {
    if (connected[i]) {
      out.push_back(std::move(embeddings[i]));
    } else {
      out.push_back(Status::NotFound("record shares no MAC with the graph"));
    }
  }
  return out;
}

}  // namespace gem::embed
