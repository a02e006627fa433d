#include "core/compression_chain.hpp"

namespace sops::core {

namespace {
bool propertyPasses(const MoveEvaluation& eval,
                    const ChainOptions& options) noexcept {
  if (!options.enforceProperties) return true;
  return eval.property1 || (options.allowProperty2 && eval.property2);
}
}  // namespace

std::array<MoveDecision, 256> buildDecisionTable(const ChainOptions& options) {
  // Fold the static move table, the ablation switches, and λ into one
  // 256-entry decision table: Algorithm M's whole per-proposal branch
  // ladder becomes a single indexed load.
  std::array<MoveDecision, 256> decisions;
  const auto& table = moveTable();
  for (int m = 0; m < 256; ++m) {
    const MoveTableEntry& entry = table[static_cast<std::size_t>(m)];
    MoveDecision& decision = decisions[static_cast<std::size_t>(m)];
    decision.delta = entry.delta;
    decision.threshold = lambdaPower(options.lambda, entry.delta);
    // The structural stage comes from the constexpr fold proven in the
    // header; only the λ-dependent threshold is computed here.
    decision.stage =
        decisionStage(entry, options.enforceGapCondition,
                      options.enforceProperties, options.allowProperty2);
    decision.acceptNoDraw =
        options.greedy ? entry.delta >= 0 : decision.threshold >= 1.0;
  }
  return decisions;
}

double acceptanceProbability(const MoveEvaluation& eval,
                             const ChainOptions& options) noexcept {
  if (eval.targetOccupied) return 0.0;
  if (options.enforceGapCondition && !eval.gapOk) return 0.0;
  if (!propertyPasses(eval, options)) return 0.0;
  if (options.greedy) return eval.eAfter >= eval.eBefore ? 1.0 : 0.0;
  // lambdaPower is the single λ^δ implementation shared with the
  // decision table, so this function and the engine's step agree exactly.
  const double ratio = lambdaPower(options.lambda, eval.eAfter - eval.eBefore);
  return ratio >= 1.0 ? 1.0 : ratio;
}

}  // namespace sops::core
