// Compile-fail probe for the ChainWeightModel contract
// (core/model_contract.hpp).
//
// Built three ways by tests/compile_fail/run_case.cmake via try_compile:
//
//   (no macro)                   control: a conforming model — must
//                                compile, proving the probe fails only
//                                for the injected violation.
//   SOPS_PROBE_WRONG_SERIALIZE   serialize() loses its const: checkpoints
//                                serialize a const engine, so this must
//                                be rejected.
//   SOPS_PROBE_DROP_RADIUS       kInteractionRadius missing: the sharded
//                                runner's boundary rule depends on it, so
//                                "forgot to declare it" must not compile.
//
// The harness additionally requires the rejection diagnostic to name the
// concept (ChainWeightModel) — the whole point of the concepts layer is
// that drift reads as a one-line contract violation, not template soup.

#include "core/model_contract.hpp"

namespace {

class ProbeModel {
 public:
  static constexpr bool kUniformWeight = true;
  static constexpr bool kHasAuxMove = false;
#if !defined(SOPS_PROBE_DROP_RADIUS)
  static constexpr int kInteractionRadius = 2;
#endif

  explicit ProbeModel(sops::core::ChainOptions options) : options_(options) {}

  [[nodiscard]] const sops::core::ChainOptions& chainOptions() const noexcept {
    return options_;
  }
  void attach(const sops::system::ParticleSystem&) {}
  double movementFactor(const sops::system::ParticleSystem&, std::size_t,
                        sops::core::TriPoint, sops::core::Direction,
                        std::uint8_t) {
    return 1.0;
  }
  void onMoved(const sops::system::ParticleSystem&, std::size_t,
               sops::core::TriPoint, sops::core::TriPoint) {}

#if defined(SOPS_PROBE_WRONG_SERIALIZE)
  void serialize(sops::system::SnapshotWriter&) {}
#else
  void serialize(sops::system::SnapshotWriter&) const {}
#endif
  void deserialize(sops::system::SnapshotReader&) {}

 private:
  sops::core::ChainOptions options_;
};

static_assert(sops::core::ChainWeightModel<ProbeModel>,
              "ProbeModel violates the ChainWeightModel contract");

}  // namespace
