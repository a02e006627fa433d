#include "amoebot/local_compression.hpp"

#include "core/move_table.hpp"

namespace sops::amoebot {

LocalCompressionAlgorithm::LocalCompressionAlgorithm(LocalOptions options)
    : options_(options) {
  SOPS_REQUIRE(options_.lambda > 0.0, "lambda must be positive");
  // Fold the static move table and λ into per-mask decisions.  kMoveStructOk
  // is exactly conditions (1)+(2) of step 11; lambdaPower is the shared λ^δ
  // implementation, so the Metropolis threshold cannot drift from the chain
  // kernel or the exact transition-matrix builder.
  const auto& table = core::moveTable();
  for (int m = 0; m < 256; ++m) {
    const core::MoveTableEntry& entry = table[static_cast<std::size_t>(m)];
    decisions_[m].threshold = core::lambdaPower(options_.lambda, entry.delta);
    decisions_[m].structOk = (entry.flags & core::kMoveStructOk) != 0;
  }
}

ActivationResult LocalCompressionAlgorithm::activate(AmoebotSystem& sys,
                                                     std::size_t id,
                                                     rng::Random& rng) const {
  const Particle& p = sys.particle(id);
  // Step 2: a uniformly random *private* port, drawn by every live
  // contracted particle (Byzantine ones included) and by nobody else; the
  // particle has no global compass, but uniform over its own labels is
  // uniform over directions.
  const int port =
      p.crashed || p.expanded ? 0 : static_cast<int>(rng.below(6));
  return activate(sys, id, port, rng);
}

template <typename Uniform>
ActivationResult LocalCompressionAlgorithm::activate(AmoebotSystem& sys,
                                                     std::size_t id, int port,
                                                     Uniform& uniform) const {
  const Particle& p = sys.particle(id);
  if (p.crashed) return ActivationResult::Idle;
  if (p.byzantine) return activateByzantine(sys, id, port);
  return p.expanded ? activateExpanded(sys, id, uniform)
                    : activateContracted(sys, id, port);
}

ActivationResult LocalCompressionAlgorithm::activateContracted(
    AmoebotSystem& sys, std::size_t id, int port) const {
  const Particle& p = sys.particle(id);
  const Direction d = sys.globalDirection(id, port);
  const TriPoint l = p.tail;
  const TriPoint target = lattice::neighbor(l, d);

  // Step 3: ℓ' must be empty and P must have no expanded neighbor.  Both
  // probes are within distance 1 of the tail, so the unchecked plane loads
  // apply.
  if (sys.occupiedNear(target)) return ActivationResult::Idle;
  if (sys.expandedParticleAdjacent(l, id)) return ActivationResult::Idle;

  // Step 4: expand.
  sys.expand(id, d);

  // Steps 5–7: flag records whether the expansion happened in a
  // neighborhood free of other expanded particles.
  sys.setFlag(id, !sys.expandedAdjacentToMovePair(id));
  return ActivationResult::Expanded;
}

template <typename Uniform>
ActivationResult LocalCompressionAlgorithm::activateExpanded(
    AmoebotSystem& sys, std::size_t id, Uniform& uniform) const {
  const Particle& p = sys.particle(id);

  // Steps 9–11: the whole structural evaluation is one N* ring gather and
  // one decision-table load.  The uniform is drawn exactly when the
  // structural conditions hold — identical draw order to the reference
  // kernel's short-circuit chain (condition (4), the flag, tests last).
  const Decision& decision = decisions_[sys.nStarRingMask(id)];
  if (decision.structOk && uniform.uniform() < decision.threshold && p.flag) {
    sys.contractToHead(id);
    return ActivationResult::MovedToHead;
  }
  sys.contractBack(id);
  return ActivationResult::ContractedBack;
}

ActivationResult LocalCompressionAlgorithm::activateByzantine(
    AmoebotSystem& sys, std::size_t id, int firstPort) const {
  const Particle& p = sys.particle(id);
  if (p.expanded) return ActivationResult::Idle;  // refuses to contract
  // Expands away whenever physically possible, ignoring the protocol.
  for (int probe = 0; probe < 6; ++probe) {
    const Direction d = sys.globalDirection(id, (firstPort + probe) % 6);
    if (!sys.occupiedNear(lattice::neighbor(p.tail, d))) {
      sys.expand(id, d);
      sys.setFlag(id, false);
      return ActivationResult::Expanded;
    }
  }
  return ActivationResult::Idle;
}

template ActivationResult LocalCompressionAlgorithm::activate(
    AmoebotSystem&, std::size_t, int, rng::Random&) const;
template ActivationResult LocalCompressionAlgorithm::activate(
    AmoebotSystem&, std::size_t, int, rng::CounterStream&) const;

}  // namespace sops::amoebot
