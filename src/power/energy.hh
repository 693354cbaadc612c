/**
 * @file
 * McPAT-style energy model @32nm (paper §V, §VI-A).
 *
 * Per-unit dynamic energy per micro-op, per-cycle static leakage for
 * the core and the vector processing unit, the Hu et al. power-gating
 * overhead model (Equation 1), and the header-transistor leakage while
 * gated. Absolute joules are representative McPAT-derived constants;
 * every paper result uses energy *ratios*, which these preserve.
 */

#ifndef CSD_POWER_ENERGY_HH
#define CSD_POWER_ENERGY_HH

#include <array>

#include "common/types.hh"
#include "uop/uop.hh"

namespace csd
{

/** Energy model parameters (nanojoules / nJ-per-cycle). */
struct EnergyParams
{
    // Dynamic energy per micro-op, by functional-unit class (nJ).
    double intAluEnergy = 0.010;
    double intMulEnergy = 0.030;
    double branchEnergy = 0.010;
    double memLoadEnergy = 0.055;   //!< includes L1D access
    double memStoreEnergy = 0.055;
    double vecAluEnergy = 0.085;
    double vecMulEnergy = 0.130;
    double vecDivEnergy = 0.210;
    double fpScalarEnergy = 0.045;

    // Front-end dynamic energy per delivered uop (nJ): the legacy
    // decode pipeline burns more than a micro-op cache stream.
    double legacyDecodeEnergy = 0.012;
    double uopCacheStreamEnergy = 0.004;

    // Static leakage (nJ per cycle).
    double coreLeakage = 0.450;     //!< everything but the VPU
    double vpuLeakage = 0.210;      //!< the VPU's share (significant
                                    //!< portion of core peak, §II)

    /**
     * Hu et al. Equation 1: the area ratio of the sleep (header)
     * transistor to the unit. The literature estimates 0.05-0.20; the
     * paper conservatively uses 0.20.
     */
    double headerAreaRatio = 0.20;  //!< W_H

    /** VPU switching energy for one fully active cycle (E_cycle/alpha,
     *  from McPAT): peak switching of the full-width SIMD datapath
     *  including its clock tree. Yields a break-even time of a few
     *  cycles with the conservative W_H = 0.20. */
    double vpuSwitchingEnergyPerCycle = 3.0;

    /** Leakage of the header transistor itself while gated (nJ/cycle). */
    double headerLeakage = 0.012;

    /** Cycles to power the VPU back on (Laurenzano et al. estimate). */
    Cycles vpuWakeLatency = 30;
};

/** Derived quantities of the gating model. */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &params = {})
        : params_(params)
    {
        // Flatten the per-class energies into a FuClass-indexed table:
        // uopEnergy runs once per simulated uop.
        energyByFu_[static_cast<std::size_t>(FuClass::IntAlu)] =
            params_.intAluEnergy;
        energyByFu_[static_cast<std::size_t>(FuClass::IntMul)] =
            params_.intMulEnergy;
        energyByFu_[static_cast<std::size_t>(FuClass::Branch)] =
            params_.branchEnergy;
        energyByFu_[static_cast<std::size_t>(FuClass::MemLoad)] =
            params_.memLoadEnergy;
        energyByFu_[static_cast<std::size_t>(FuClass::MemStore)] =
            params_.memStoreEnergy;
        energyByFu_[static_cast<std::size_t>(FuClass::VecAlu)] =
            params_.vecAluEnergy;
        energyByFu_[static_cast<std::size_t>(FuClass::VecMul)] =
            params_.vecMulEnergy;
        energyByFu_[static_cast<std::size_t>(FuClass::VecFpDiv)] =
            params_.vecDivEnergy;
        energyByFu_[static_cast<std::size_t>(FuClass::FpScalar)] =
            params_.fpScalarEnergy;
        energyByFu_[static_cast<std::size_t>(FuClass::None)] = 0.0;
    }

    const EnergyParams &params() const { return params_; }

    /** Dynamic energy of one executed micro-op (nJ). */
    double uopEnergy(const Uop &uop) const { return fuEnergy(fuClass(uop)); }

    /** Dynamic energy of one micro-op executed on @p fu (nJ). */
    double
    fuEnergy(FuClass fu) const
    {
        return energyByFu_[static_cast<std::size_t>(fu)];
    }

    /**
     * E_overhead of one gate/ungate pair (Hu et al. Eq. 1):
     * E_overhead ~= 2 * W_H * E_cycle/alpha.
     */
    double
    gatingOverhead() const
    {
        return 2.0 * params_.headerAreaRatio *
               params_.vpuSwitchingEnergyPerCycle;
    }

    /**
     * Break-even time: cycles the VPU must stay gated for the saved
     * leakage (net of header leakage) to repay the gating overhead.
     */
    Cycles
    breakEvenCycles() const
    {
        const double saved_per_cycle =
            params_.vpuLeakage - params_.headerLeakage;
        if (saved_per_cycle <= 0)
            return ~static_cast<Cycles>(0);
        return static_cast<Cycles>(gatingOverhead() / saved_per_cycle) + 1;
    }

  private:
    EnergyParams params_;
    std::array<double, 10> energyByFu_{};  //!< indexed by FuClass
};

/** Accumulated energy breakdown (Fig. 12's stack components), in nJ. */
struct EnergyBreakdown
{
    double coreDynamic = 0;
    double coreStatic = 0;
    double vpuDynamic = 0;
    double vpuStatic = 0;       //!< leakage while on or waking
    double headerStatic = 0;    //!< header leakage while gated
    double gatingOverhead = 0;  //!< switch on/off energy
    double frontendDynamic = 0;

    double
    total() const
    {
        return coreDynamic + coreStatic + vpuDynamic + vpuStatic +
               headerStatic + gatingOverhead + frontendDynamic;
    }
};

} // namespace csd

#endif // CSD_POWER_ENERGY_HH
