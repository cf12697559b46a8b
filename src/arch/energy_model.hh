/**
 * @file
 * Energy model with the per-operation costs the paper uses (Section 6.1,
 * taken from Horowitz, ISSCC'14):
 *
 *   32-bit float ADD            0.9 pJ
 *   32-bit float MULT           3.7 pJ
 *   32-bit SRAM access          5.0 pJ
 *   32-bit DRAM access          640 pJ
 *
 * The paper does not print a per-hop link energy; we model the HMC
 * SerDes at 2 pJ/bit (64 pJ per 32-bit word per hop), a mid-range
 * figure for short-reach serial links of that era (documented
 * substitution, see docs/ARCHITECTURE.md, "Fidelity notes"). A remote
 * word additionally
 * pays DRAM on both ends, which the simulator accounts separately.
 */

#ifndef HYPAR_ARCH_ENERGY_MODEL_HH
#define HYPAR_ARCH_ENERGY_MODEL_HH

#include "util/units.hh"

namespace hypar::arch {

/** Per-event energies in joules; defaults follow the paper. */
struct EnergyModel
{
    double addJ = 0.9 * util::kPicoJoule;
    double multJ = 3.7 * util::kPicoJoule;
    double sramWordJ = 5.0 * util::kPicoJoule;
    double dramWordJ = 640.0 * util::kPicoJoule;
    double linkWordPerHopJ = 64.0 * util::kPicoJoule;

    /** One multiply-accumulate (one MULT + one ADD). */
    double macJ() const { return addJ + multJ; }

    /** Energy of `macs` multiply-accumulates. */
    double computeEnergy(double macs) const { return macs * macJ(); }

    /** Energy of `words` 32-bit SRAM accesses. */
    double sramEnergy(double words) const { return words * sramWordJ; }

    /** Energy of `words` 32-bit DRAM accesses. */
    double dramEnergy(double words) const { return words * dramWordJ; }

    /** Link energy of `words` 32-bit words moved over `hops` hops. */
    double
    linkEnergy(double words, double hops) const
    {
        return words * hops * linkWordPerHopJ;
    }
};

} // namespace hypar::arch

#endif // HYPAR_ARCH_ENERGY_MODEL_HH
