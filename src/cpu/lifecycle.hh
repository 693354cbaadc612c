/**
 * @file
 * Instruction-grain lifecycle tracing: one record per dynamic micro-op
 * holding its pipeline timestamps (fetch, decode/deliver, dispatch,
 * issue, complete, commit) plus provenance (parent macro-op PC, decoy /
 * devectorized / fused / eliminated flags, DIFT taint, delivery
 * source), kept in a bounded ring buffer.
 *
 * Two export formats, both instruction-pipeline viewers:
 *  - gem5 O3PipeView text (`O3PipeView:fetch:...`), readable by gem5's
 *    util/o3-pipeview.py and loadable directly in Konata;
 *  - the Kanata log format (`Kanata\t0004` header), Konata's native
 *    input, which carries per-uop labels with the provenance flags.
 *
 * Runtime control (read by Simulation at construction):
 *  - CSD_LIFECYCLE_FILE=path     record, and export at simulation teardown
 *                                (.kanata/.klog -> Kanata, else O3PipeView)
 *  - CSD_LIFECYCLE_CAPACITY=N    ring capacity (default 65536 records)
 * In code, Simulation::enableLifecycle() records without an export.
 *
 * Recording is off by default: the simulator's per-uop fast path pays
 * one pointer test when the tracer is not installed.
 */

#ifndef CSD_CPU_LIFECYCLE_HH
#define CSD_CPU_LIFECYCLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "decode/frontend.hh"
#include "uop/uop.hh"

namespace csd
{

/** Lifecycle of one dynamic micro-op. */
struct LifecycleRecord
{
    SeqNum seq = 0;          //!< dynamic sequence number (tracer-local)
    Uop uop;                 //!< static uop (copied: macroPc, flags, ...)
    Tick fetch = 0;          //!< front-end cycle the macro-op was fetched
    Tick decode = 0;         //!< fused slot delivered to the uop queue
    Tick dispatch = 0;
    Tick issue = 0;
    Tick complete = 0;
    Tick commit = 0;
    DeliverySource source = DeliverySource::Legacy;
    bool devectCtx = false;  //!< translated in the devectorized context
    bool tainted = false;    //!< reads or writes DIFT-tainted state
};

/** Bounded recorder of per-uop lifecycles with pipeline-viewer export. */
class LifecycleTracer
{
  public:
    explicit LifecycleTracer(std::size_t capacity = 1 << 16);

    /** Resize the ring (drops recorded lifecycles). */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const { return ring_.size(); }

    /** Record one lifecycle (assigns the record's seq). */
    void record(LifecycleRecord record);

    /** Records currently held (<= capacity). */
    std::size_t size() const { return count_; }

    /** Records overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    void clear();

    /** Records in record order (oldest first). */
    std::vector<LifecycleRecord> records() const;

    // --- export -----------------------------------------------------------

    /** gem5 O3PipeView text (one fetch..retire block per uop). */
    void exportO3PipeView(std::ostream &os) const;

    /** Konata-native Kanata log. */
    void exportKanata(std::ostream &os) const;

    /**
     * Export to @p path; format chosen by extension (.kanata / .klog
     * -> Kanata, anything else -> O3PipeView). Warns and returns false
     * on I/O error.
     */
    bool exportFile(const std::string &path) const;

    /** Label text used in exports: provenance flags + disassembly. */
    static std::string label(const LifecycleRecord &record);

  private:
    std::vector<LifecycleRecord> ring_;
    std::size_t start_ = 0;
    std::size_t count_ = 0;
    std::uint64_t dropped_ = 0;
    SeqNum nextSeq_ = 0;
};

} // namespace csd

#endif // CSD_CPU_LIFECYCLE_HH
