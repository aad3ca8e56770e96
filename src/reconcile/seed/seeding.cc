#include "reconcile/seed/seeding.h"

#include <algorithm>

#include "reconcile/util/logging.h"
#include "reconcile/util/parallel_for.h"
#include "reconcile/util/rng.h"
#include "reconcile/util/thread_pool.h"

namespace reconcile {

namespace {

// Below this many underlying nodes the serial sweep wins over task setup.
constexpr size_t kParallelSeedThreshold = 1u << 14;

// Pure per-node uniform draw in [0, 1): a deterministic function of
// (seed, salt, node) with no sequential generator state, so the decision
// for a node is independent of evaluation order — the parallel and serial
// sweeps produce identical seed sets for any thread count, grain or steal
// schedule.
double NodeUniform(uint64_t seed, uint64_t salt, NodeId u) {
  uint64_t x =
      HashMix64(seed + 0x9e3779b97f4a7c15ULL * (salt + 1) + 0x2545f491ULL);
  x = HashMix64(x ^ (static_cast<uint64_t>(u) + 0x9e3779b97f4a7c15ULL));
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// Bernoulli(p) on the per-node stream, with Rng::Bernoulli's clamping.
bool NodeBernoulli(double p, uint64_t seed, uint64_t salt, NodeId u) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NodeUniform(seed, salt, u) < p;
}

ThreadPool* SeedPool(size_t num_nodes) {
  return num_nodes >= kParallelSeedThreshold && ThreadPool::DefaultThreads() > 1
             ? &ThreadPool::Shared()
             : nullptr;
}

// Ordered collect of the marked nodes into (node, map[node]) pairs, in
// node-id order. Parallel yet bit-identical for any thread count, grain or
// steal schedule: fixed blocks count their marks, a serial exclusive prefix
// sum over the (few) block counts fixes every block's output offset, and
// the blocks then fill disjoint slices of the pre-sized output — each
// pair's position depends only on the mark vector, never on the schedule.
std::vector<std::pair<NodeId, NodeId>> CollectMarked(
    ThreadPool* pool, size_t grain, const std::vector<char>& mark,
    const std::vector<NodeId>& map_1to2) {
  const size_t n = mark.size();
  const size_t num_blocks = n == 0 ? 0 : (n + grain - 1) / grain;
  std::vector<size_t> offset(num_blocks, 0);
  ParallelForWorkStealing(
      pool, num_blocks, 1, [&mark, &offset, n, grain](size_t blo, size_t bhi) {
        for (size_t b = blo; b < bhi; ++b) {
          const size_t lo = b * grain;
          const size_t hi = std::min(n, lo + grain);
          size_t count = 0;
          for (size_t u = lo; u < hi; ++u) count += mark[u] != 0;
          offset[b] = count;
        }
      });
  size_t total = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t count = offset[b];
    offset[b] = total;
    total += count;
  }
  std::vector<std::pair<NodeId, NodeId>> out(total);
  ParallelForWorkStealing(
      pool, num_blocks, 1,
      [&mark, &map_1to2, &offset, &out, n, grain](size_t blo, size_t bhi) {
        for (size_t b = blo; b < bhi; ++b) {
          const size_t lo = b * grain;
          const size_t hi = std::min(n, lo + grain);
          size_t cursor = offset[b];
          for (size_t u = lo; u < hi; ++u) {
            if (mark[u]) {
              const NodeId node = static_cast<NodeId>(u);
              out[cursor++] = {node, map_1to2[node]};
            }
          }
        }
      });
  return out;
}

}  // namespace

std::vector<std::pair<NodeId, NodeId>> GenerateSeeds(
    const RealizationPair& pair, const SeedOptions& options, uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> seeds;
  const size_t n = pair.map_1to2.size();
  // Per-node decisions and the ordered collect both run on the shared pool
  // (this was the last serial pipeline stage before the matcher); the
  // collect goes through `CollectMarked`'s count/prefix-sum/fill shape, so
  // the output is the same for every thread count.
  ThreadPool* pool = SeedPool(n);
  const size_t grain = ThreadPool::GrainSize(n, ParallelSlots(pool), 1024);

  // Corrupts a fraction of seeds after generation; defined here so every
  // bias mode shares it. Operates on the (small) seed list, serially — its
  // retry loop is inherently sequential.
  auto corrupt = [&options, seed](std::vector<std::pair<NodeId, NodeId>>* out,
                                  const RealizationPair& p) {
    if (options.wrong_fraction <= 0.0 || p.g2.num_nodes() == 0) return;
    Rng rng(HashMix64(seed + 0xC0881735u));
    std::vector<char> used2(p.g2.num_nodes(), 0);
    for (const auto& [u, v] : *out) {
      (void)u;
      used2[v] = 1;
    }
    for (auto& [u, v] : *out) {
      (void)u;
      if (!rng.Bernoulli(options.wrong_fraction)) continue;
      // Pick a fresh wrong endpoint; bounded retries keep this total.
      for (int attempt = 0; attempt < 64; ++attempt) {
        NodeId w = static_cast<NodeId>(rng.UniformInt(p.g2.num_nodes()));
        if (w != v && !used2[w]) {
          used2[v] = 0;
          used2[w] = 1;
          v = w;
          break;
        }
      }
    }
  };

  switch (options.bias) {
    case SeedBias::kUniform: {
      std::vector<char> take(n, 0);
      ParallelForWorkStealing(
          pool, n, grain,
          [&pair, &take, &options, seed](size_t lo, size_t hi) {
            for (size_t u = lo; u < hi; ++u) {
              const NodeId node = static_cast<NodeId>(u);
              if (pair.map_1to2[node] == kInvalidNode) continue;
              take[u] =
                  NodeBernoulli(options.fraction, seed, /*salt=*/0, node);
            }
          });
      seeds = CollectMarked(pool, grain, take, pair.map_1to2);
      break;
    }
    case SeedBias::kDegreeProportional: {
      // Scale so that the *average* linking probability equals `fraction`
      // while individual probabilities stay proportional to min-degree.
      // Degrees are integers, so the totals accumulate exactly in uint64 —
      // fixed blocks summed in block order keep the result thread-count
      // independent.
      const size_t num_blocks = n == 0 ? 0 : (n + grain - 1) / grain;
      std::vector<uint64_t> block_total(num_blocks, 0);
      std::vector<uint64_t> block_mapped(num_blocks, 0);
      ParallelForWorkStealing(
          pool, num_blocks, 1,
          [&pair, &block_total, &block_mapped, n, grain](size_t blo,
                                                         size_t bhi) {
            for (size_t b = blo; b < bhi; ++b) {
              const size_t lo = b * grain, hi = std::min(n, lo + grain);
              uint64_t total = 0, mapped = 0;
              for (size_t u = lo; u < hi; ++u) {
                const NodeId node = static_cast<NodeId>(u);
                const NodeId v = pair.map_1to2[node];
                if (v == kInvalidNode) continue;
                total += std::min(pair.g1.degree(node), pair.g2.degree(v));
                ++mapped;
              }
              block_total[b] = total;
              block_mapped[b] = mapped;
            }
          });
      uint64_t total = 0, mapped = 0;
      for (size_t b = 0; b < num_blocks; ++b) {
        total += block_total[b];
        mapped += block_mapped[b];
      }
      if (total == 0) break;
      const double scale = options.fraction * static_cast<double>(mapped) /
                           static_cast<double>(total);
      std::vector<char> take(n, 0);
      ParallelForWorkStealing(
          pool, n, grain, [&pair, &take, scale, seed](size_t lo, size_t hi) {
            for (size_t u = lo; u < hi; ++u) {
              const NodeId node = static_cast<NodeId>(u);
              const NodeId v = pair.map_1to2[node];
              if (v == kInvalidNode) continue;
              const double p = scale * std::min(pair.g1.degree(node),
                                                pair.g2.degree(v));
              take[u] = NodeBernoulli(p, seed, /*salt=*/1, node);
            }
          });
      seeds = CollectMarked(pool, grain, take, pair.map_1to2);
      break;
    }
    case SeedBias::kTopDegree: {
      RECONCILE_CHECK_GT(options.fixed_count, 0u);
      std::vector<char> valid(n, 0);
      ParallelForWorkStealing(
          pool, n, grain, [&pair, &valid](size_t lo, size_t hi) {
            for (size_t u = lo; u < hi; ++u) {
              const NodeId node = static_cast<NodeId>(u);
              const NodeId v = pair.map_1to2[node];
              if (v == kInvalidNode) continue;
              valid[u] = pair.g1.degree(node) > 0 && pair.g2.degree(v) > 0;
            }
          });
      std::vector<std::pair<NodeId, NodeId>> candidates =
          CollectMarked(pool, grain, valid, pair.map_1to2);
      std::sort(candidates.begin(), candidates.end(),
                [&pair](const auto& a, const auto& b) {
                  NodeId da = std::min(pair.g1.degree(a.first),
                                       pair.g2.degree(a.second));
                  NodeId db = std::min(pair.g1.degree(b.first),
                                       pair.g2.degree(b.second));
                  if (da != db) return da > db;
                  return a.first < b.first;
                });
      size_t take = std::min(options.fixed_count, candidates.size());
      seeds.assign(candidates.begin(),
                   candidates.begin() + static_cast<ptrdiff_t>(take));
      break;
    }
  }
  corrupt(&seeds, pair);
  return seeds;
}

}  // namespace reconcile
